"""Disarmed equivalence: the resilience layers must be invisible.

With no failpoints armed and no faults occurring, a manager built with
the full resilience stack (``ResilientBackend`` wrapper + degraded mode)
must produce field-identical results AND identical observability
counters to the plain manager over the full seeded query stream.
"""

from __future__ import annotations

import pytest

from repro import (
    AggregateCache,
    BackendDatabase,
    CostModel,
    Query,
    QueryStreamGenerator,
    ResilientBackend,
)
from repro.backend.resilient import BreakerState
from repro.obs import Observability
from tests.helpers import COMPARED_FIELDS


#: Timing histograms whose observed values are wall-clock; only their
#: counts must agree between the two runs.
def _comparable_snapshot(obs):
    snapshot = obs.metrics.snapshot()
    return {
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histogram_counts": {
            name: summary.get("count", 0)
            for name, summary in snapshot["histograms"].items()
        },
    }


def run_stream(tiny_schema, tiny_facts, resilient: bool):
    backend = BackendDatabase(tiny_schema, tiny_facts, CostModel())
    obs = Observability.in_memory()
    if resilient:
        backend = ResilientBackend(backend, seed=13, obs=obs)
    manager = AggregateCache(
        tiny_schema,
        backend,
        capacity_bytes=max(int(backend.base_size_bytes * 0.6), 1),
        strategy="vcmc",
        policy="two_level",
        degraded_mode=resilient,
        obs=obs,
    )
    stream = list(
        QueryStreamGenerator(tiny_schema, max_extent=3, seed=4242).generate(80)
    )
    results = [manager.query(q) for q in stream]
    return manager, backend, obs, results


def test_fault_free_stack_is_field_identical(tiny_schema, tiny_facts):
    plain_manager, _, plain_obs, plain = run_stream(
        tiny_schema, tiny_facts, resilient=False
    )
    armoured_manager, backend, armoured_obs, armoured = run_stream(
        tiny_schema, tiny_facts, resilient=True
    )

    for index, (a, b) in enumerate(zip(plain, armoured)):
        for field in COMPARED_FIELDS:
            assert getattr(a, field) == getattr(b, field), (index, field)
        assert [c.key for c in a.chunks] == [c.key for c in b.chunks], index
        for lhs, rhs in zip(a.chunks, b.chunks):
            assert lhs.cell_dict() == rhs.cell_dict(), index

    # Manager accounting and cache end-state agree exactly.
    assert armoured_manager.degraded_queries == 0
    assert armoured_manager.complete_hits == plain_manager.complete_hits
    assert (
        armoured_manager.cache.used_bytes == plain_manager.cache.used_bytes
    )
    assert sorted(armoured_manager.cache.resident_keys()) == sorted(
        plain_manager.cache.resident_keys()
    )

    # The resilience layer never engaged.
    assert backend.retries == 0
    assert backend.fast_failures == 0
    assert backend.breaker_transitions == []
    assert backend.breaker_state is BreakerState.CLOSED

    # Observability output is identical: same counters, same gauges, same
    # histogram counts — not one extra event or metric from the armour.
    assert _comparable_snapshot(armoured_obs) == _comparable_snapshot(
        plain_obs
    )
    plain_kinds = [e["kind"] for e in plain_obs.ring_events()]
    armoured_kinds = [e["kind"] for e in armoured_obs.ring_events()]
    assert plain_kinds == armoured_kinds


def test_fault_free_query_events_are_bit_identical(tiny_schema, tiny_facts):
    _, _, plain_obs, _ = run_stream(tiny_schema, tiny_facts, resilient=False)
    _, _, armoured_obs, _ = run_stream(tiny_schema, tiny_facts, resilient=True)
    def drop_timing(e):
        return {
            k: v
            for k, v in e.items()
            if not k.endswith("_ms") and k != "seq"
        }
    plain_events = [drop_timing(e) for e in plain_obs.ring_events("query")]
    armoured_events = [
        drop_timing(e) for e in armoured_obs.ring_events("query")
    ]
    assert plain_events == armoured_events


def test_total_values_agree(tiny_schema, tiny_facts):
    _, _, _, plain = run_stream(tiny_schema, tiny_facts, resilient=False)
    _, _, _, armoured = run_stream(tiny_schema, tiny_facts, resilient=True)
    for a, b in zip(plain, armoured):
        assert a.total_value() == pytest.approx(b.total_value())


def test_disarmed_failpoints_leave_single_queries_untouched(
    tiny_schema, tiny_facts
):
    # Bare sanity on the guard itself: no registry armed, so the five
    # failpoint sites are inert reads on the hot path.
    backend = BackendDatabase(tiny_schema, tiny_facts, CostModel())
    manager = AggregateCache(
        tiny_schema, backend, capacity_bytes=1 << 20, strategy="vcmc"
    )
    result = manager.query(Query.full_level(tiny_schema, (1, 1, 0)))
    assert not result.degraded
    assert result.coverage == 1.0
    assert result.unanswered == ()
