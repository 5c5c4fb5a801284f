"""ConcurrentAggregateCache behaviour: sequential equivalence,
single-flight backend deduplication, and plan-vs-eviction revalidation."""

from __future__ import annotations

import threading
import time

import pytest

from repro import (
    AggregateCache,
    BackendDatabase,
    ConcurrentAggregateCache,
    CostModel,
    Observability,
    Query,
    QueryStreamGenerator,
)
from tests.helpers import COMPARED_FIELDS


def make_manager(tiny_schema, tiny_facts, capacity_fraction=0.6, **kwargs):
    """A fresh manager on a fresh backend (isolated request accounting)."""
    backend = BackendDatabase(tiny_schema, tiny_facts, CostModel())
    capacity = max(int(backend.base_size_bytes * capacity_fraction), 1)
    kwargs.setdefault("strategy", "vcmc")
    kwargs.setdefault("policy", "two_level")
    return AggregateCache(tiny_schema, backend, capacity, **kwargs)


def stream_for(tiny_schema, n=80, seed=901):
    generator = QueryStreamGenerator(tiny_schema, max_extent=3, seed=seed)
    return list(generator.generate(n))


def test_serve_with_one_worker_matches_sequential_manager(
    tiny_schema, tiny_facts
):
    stream = stream_for(tiny_schema)
    sequential_obs = Observability.in_memory(capacity=1 << 16)
    sequential = make_manager(tiny_schema, tiny_facts, obs=sequential_obs)
    expected = [sequential.query(q) for q in stream]

    service_obs = Observability.in_memory(capacity=1 << 16)
    service = ConcurrentAggregateCache(
        make_manager(tiny_schema, tiny_facts, obs=service_obs)
    )
    actual = service.serve(stream, workers=1)

    assert len(actual) == len(expected)
    for index, (a, b) in enumerate(zip(expected, actual)):
        for field in COMPARED_FIELDS:
            assert getattr(a, field) == getattr(b, field), (index, field)
        assert a.total_value() == pytest.approx(b.total_value())
        assert [c.key for c in a.chunks] == [c.key for c in b.chunks]
    # Manager-level accounting is identical too.
    assert service.queries_run == sequential.queries_run
    assert service.complete_hits == sequential.complete_hits
    assert (
        service.manager.optimizer_redirects == sequential.optimizer_redirects
    )
    assert service.cache.used_bytes == sequential.cache.used_bytes
    assert sorted(service.cache.resident_keys()) == sorted(
        sequential.cache.resident_keys()
    )
    sequential_events = sequential_obs.ring_events("query")
    service_events = service_obs.ring_events("query")
    assert len(sequential_events) == len(service_events) == len(stream)
    for a_rec, b_rec in zip(sequential_events, service_events):
        assert a_rec["query_seq"] == b_rec["query_seq"]
        assert a_rec["complete_hit"] == b_rec["complete_hit"]
        assert a_rec["from_backend"] == b_rec["from_backend"]
        assert a_rec["cache_used_bytes"] == b_rec["cache_used_bytes"]
    # Nothing should have needed the concurrency machinery.
    assert service.replans == 0
    assert service.flights.joined == 0
    assert service.flights.in_progress() == 0


def test_concurrent_misses_share_one_backend_fetch(tiny_schema, tiny_facts):
    # Capacity above the base size so every fetched chunk stays resident
    # (the follow-up query then proves the admissions landed).
    manager = make_manager(
        tiny_schema, tiny_facts, capacity_fraction=2.0, preload=False
    )
    service = ConcurrentAggregateCache(manager)
    backend = manager.backend

    # Gate the (single) leader's fetch open until every claimant has
    # either led or joined, so the dedup window is deterministic.
    original_fetch = backend.fetch
    fetch_calls = []
    calls_lock = threading.Lock()
    gate = threading.Event()

    def gated_fetch(requests):
        with calls_lock:
            fetch_calls.append(list(requests))
        assert gate.wait(timeout=10)
        return original_fetch(requests)

    backend.fetch = gated_fetch
    try:
        query = Query.full_level(tiny_schema, tiny_schema.base_level)
        workers = 4
        barrier = threading.Barrier(workers)
        results = [None] * workers

        def worker(slot):
            barrier.wait(timeout=10)
            results[slot] = service.query(query)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(workers)
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if service.flights.joined >= (workers - 1) * query.num_chunks:
                break
            time.sleep(0.005)
        gate.set()
        for t in threads:
            t.join(timeout=10)
    finally:
        del backend.fetch  # restore the class method

    assert len(fetch_calls) == 1, (
        "concurrent misses on the same chunks must issue one backend fetch"
    )
    assert backend.totals.requests == 1
    assert all(r is not None for r in results)
    reference = results[0].total_value()
    for result in results:
        assert result.from_backend == query.num_chunks
        assert result.total_value() == pytest.approx(reference)
    assert service.flights.joined == (len(results) - 1) * query.num_chunks
    assert service.flights.in_progress() == 0
    # The fetched chunks were admitted once and are now served from cache.
    followup = service.query(query)
    assert followup.complete_hit
    assert backend.totals.requests == 1


def test_plan_invalidated_by_racing_eviction_replans(
    tiny_schema, tiny_facts
):
    """Satellite: a plan leaf evicted between find and materialise must
    trigger a re-plan (or backend fallback), never a ReproError."""
    manager = make_manager(tiny_schema, tiny_facts, capacity_fraction=1.2)
    service = ConcurrentAggregateCache(manager)

    target = None
    for level in tiny_schema.all_levels():
        plan = manager.strategy.find(level, 0)
        if plan is not None and not plan.is_leaf:
            target = level
            break
    assert target is not None, "need a level answered by aggregation"

    original_find = manager._find
    sabotaged = []

    def racing_find(level, number):
        plan, visits = original_find(level, number)
        if plan is not None and not plan.is_leaf and not sabotaged:
            # Simulate a concurrent writer: evict one plan leaf after the
            # plan was returned but before it is materialised.
            leaf = next(iter(plan.leaves()))
            manager.cache.evict_many([(leaf.level, leaf.number)])
            manager.strategy.on_evict_many([(leaf.level, leaf.number)])
            sabotaged.append(leaf)
        return plan, visits

    manager._find = racing_find
    result = service.query(Query.full_level(tiny_schema, target))
    manager._find = original_find

    assert sabotaged, "the race was never staged"
    assert service.replans >= 1
    reference = make_manager(tiny_schema, tiny_facts, capacity_fraction=1.2)
    expected = reference.query(Query.full_level(tiny_schema, target))
    assert result.total_value() == pytest.approx(expected.total_value())


def test_manager_numbers_matches_query_subset(tiny_schema, tiny_facts):
    """``manager.query(numbers=...)`` is the shard-local slice the
    service's ``query_subset`` serves, field for field; the full plan is
    the plain query."""
    def same(a, b):
        for field in COMPARED_FIELDS:
            assert getattr(a, field) == getattr(b, field), field
        assert [c.key for c in a.chunks] == [c.key for c in b.chunks]
        assert a.total_value() == pytest.approx(b.total_value())

    sliced = make_manager(tiny_schema, tiny_facts)
    service = ConcurrentAggregateCache(make_manager(tiny_schema, tiny_facts))
    spelled = make_manager(tiny_schema, tiny_facts)
    plain = make_manager(tiny_schema, tiny_facts)
    for query in stream_for(tiny_schema, n=40):
        numbers = list(query.chunk_numbers(tiny_schema))
        subset = numbers[::2]
        result = sliced.query(query, numbers=subset)
        same(result, service.query_subset(query, subset))
        assert [c.number for c in result.chunks] == subset
        same(spelled.query(query, numbers=numbers), plain.query(query))
    assert sliced.replans == 0 and service.replans == 0
