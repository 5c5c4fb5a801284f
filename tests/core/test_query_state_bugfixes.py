"""Regressions for the query-path cache-state fixes.

* Phase 4 must apply group reinforcement BEFORE admissions: an insert can
  evict the very leaves that were just aggregated, and the old
  insert-first order both lost those reinforcements silently and let the
  victim sweep pass over un-reinforced clock values.
* ``range_query`` must not mutate the ``QueryResult`` that ``query()``
  already emitted as its ``query`` event — slicing happens on a copy.
"""

from __future__ import annotations

import pytest

from repro import (
    AggregateCache,
    BackendDatabase,
    CostModel,
    Observability,
    Query,
)
from repro.core.manager import AggregateCache as ManagerClass


def make_manager(tiny_schema, tiny_facts, **kwargs):
    backend = BackendDatabase(tiny_schema, tiny_facts, CostModel())
    kwargs.setdefault("capacity_bytes", int(backend.base_size_bytes * 1.2))
    kwargs.setdefault("strategy", "vcmc")
    kwargs.setdefault("policy", "two_level")
    return AggregateCache(tiny_schema, backend, **kwargs)


def aggregating_level(manager):
    """A level whose chunks are answered by aggregation (non-leaf plan)."""
    for level in manager.schema.all_levels():
        plan = manager.strategy.find(level, 0)
        if plan is not None and not plan.is_leaf:
            return level
    pytest.skip("no aggregation-answered level in this configuration")


def test_reinforcement_applied_before_admissions(tiny_schema, tiny_facts):
    manager = make_manager(tiny_schema, tiny_facts)
    level = aggregating_level(manager)

    calls = []
    cache = manager.cache
    original_reinforce = cache.reinforce
    original_insert_many = cache.insert_many
    cache.reinforce = lambda *a, **k: (
        calls.append("reinforce"),
        original_reinforce(*a, **k),
    )[1]
    cache.insert_many = lambda *a, **k: (
        calls.append("insert"),
        original_insert_many(*a, **k),
    )[1]
    try:
        result = manager.query(Query.full_level(tiny_schema, level))
    finally:
        del cache.reinforce
        del cache.insert_many

    assert result.aggregated > 0, "query must exercise the aggregate path"
    assert "reinforce" in calls and "insert" in calls
    last_reinforce = max(
        i for i, name in enumerate(calls) if name == "reinforce"
    )
    first_insert = min(i for i, name in enumerate(calls) if name == "insert")
    assert last_reinforce < first_insert, (
        "phase 4 must reinforce aggregated leaves before admissions can "
        f"evict them (saw {calls})"
    )
    # Sequentially nothing can vanish between aggregation and
    # reinforcement, so no reinforcement may be reported skipped.
    assert result.reinforcements_skipped == 0
    assert manager.replans == 0


def test_reinforce_reports_skipped_for_evicted_leaves(
    tiny_schema, tiny_facts
):
    manager = make_manager(tiny_schema, tiny_facts)
    resident = manager.cache.resident_keys()
    assert resident
    present = resident[0]
    absent = None
    for level in tiny_schema.all_levels():
        for number in range(tiny_schema.num_chunks(level)):
            if (level, number) not in set(resident):
                absent = (level, number)
                break
        if absent:
            break
    assert absent is not None
    applied, skipped = manager.cache.reinforce([present, absent], 5.0)
    assert applied == 1
    assert skipped == 1


def test_range_query_does_not_mutate_logged_result(tiny_schema, tiny_facts):
    obs = Observability.in_memory()
    manager = make_manager(tiny_schema, tiny_facts, obs=obs)
    level = tiny_schema.base_level

    inner_results = []
    original_query = ManagerClass.query

    def capturing_query(self, query):
        result = original_query(self, query)
        inner_results.append(result)
        return result

    ManagerClass.query = capturing_query
    try:
        # Sub-cardinality ranges so slicing genuinely drops cells.
        ranges = tuple(
            (0, max(1, dim.cardinality(l) // 2))
            for dim, l in zip(tiny_schema.dimensions, level)
        )
        sliced = manager.range_query(level, ranges)
    finally:
        ManagerClass.query = original_query

    assert len(inner_results) == 1
    inner = inner_results[0]
    # The returned result is a copy: the logged/emitted inner result still
    # holds the full covering chunks.
    assert sliced is not inner
    assert sliced.complete_hit == inner.complete_hit
    inner_tuples = sum(c.size_tuples for c in inner.chunks)
    sliced_tuples = sum(c.size_tuples for c in sliced.chunks)
    assert sliced_tuples < inner_tuples, (
        "slicing must have restricted the cells for this regression to "
        "be meaningful"
    )
    # The audit trail (the query event) describes the covering fetch,
    # which matches the inner result — not the sliced copy.
    record = obs.ring_events("query")[-1]
    assert record["chunks"] == inner.query.num_chunks
    assert record["tuples_aggregated"] == inner.tuples_aggregated
    assert manager.replans == 0


def test_range_query_cached_chunks_unharmed(tiny_schema, tiny_facts):
    """After a sub-chunk range query, re-querying the full chunks returns
    the complete cells — the cache was not poisoned by sliced copies."""
    manager = make_manager(tiny_schema, tiny_facts)
    level = tiny_schema.base_level
    full = Query.full_level(tiny_schema, level)
    before = manager.query(full).total_value()
    ranges = tuple(
        (0, max(1, dim.cardinality(l) // 2))
        for dim, l in zip(tiny_schema.dimensions, level)
    )
    manager.range_query(level, ranges)
    after = manager.query(full).total_value()
    assert after == pytest.approx(before)
    assert manager.replans == 0
