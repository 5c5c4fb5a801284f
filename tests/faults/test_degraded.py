"""Degraded (cache-only) serving when the backend is down."""

from __future__ import annotations

import threading

import pytest

from repro import AggregateCache, Query
from repro.faults import FailpointRegistry, TransientBackendError
from repro.obs import Observability
from tests.helpers import direct_aggregate, expected_cells_in_chunk


def make_manager(tiny_schema, tiny_backend, **kwargs):
    kwargs.setdefault("capacity_bytes", 1 << 30)
    kwargs.setdefault("strategy", "vcmc")
    kwargs.setdefault("preload", False)
    kwargs.setdefault("degraded_mode", True)
    return AggregateCache(tiny_schema, tiny_backend, **kwargs)


def outage(registry=None):
    registry = registry or FailpointRegistry()
    registry.fail("backend.fetch", TransientBackendError)
    return registry


def test_default_mode_still_raises(tiny_schema, tiny_backend):
    manager = make_manager(tiny_schema, tiny_backend, degraded_mode=False)
    with outage().armed():
        with pytest.raises(TransientBackendError):
            manager.query(Query.full_level(tiny_schema, (1, 1, 0)))


def test_partial_coverage_answers_are_exact(
    tiny_schema, tiny_backend, tiny_facts
):
    manager = make_manager(tiny_schema, tiny_backend)
    level = tiny_schema.base_level
    warm = Query(level, ((1, 3), (0, 2), (0, 1)))
    manager.query(warm)
    cached = set(warm.chunk_numbers(tiny_schema))

    full = Query.full_level(tiny_schema, level)
    everything = full.chunk_numbers(tiny_schema)
    with outage().armed():
        result = manager.query(full)

    assert result.degraded
    assert not result.complete_hit
    assert set(result.unanswered) == set(everything) - cached
    assert result.coverage == pytest.approx(len(cached) / len(everything))
    assert len(result.chunks) + len(result.unanswered) == len(everything)
    truth = direct_aggregate(tiny_facts, level)
    for chunk in result.chunks:
        expected = expected_cells_in_chunk(
            tiny_schema, truth, level, chunk.number
        )
        assert chunk.cell_dict() == pytest.approx(expected)
    assert manager.degraded_queries == 1
    manager.check_invariants()


def test_recovery_after_outage_serves_the_gaps(tiny_schema, tiny_backend):
    manager = make_manager(tiny_schema, tiny_backend)
    level = tiny_schema.base_level
    warm = Query(level, ((1, 3), (0, 2), (0, 1)))
    manager.query(warm)
    full = Query.full_level(tiny_schema, level)
    with outage().armed():
        degraded = manager.query(full)
    assert degraded.unanswered

    healed = manager.query(full)  # failpoints disarmed: backend is back
    assert not healed.degraded
    assert healed.coverage == 1.0
    assert healed.unanswered == ()
    assert healed.from_backend == len(degraded.unanswered)
    assert len(healed.chunks) == full.num_chunks
    again = manager.query(full)
    assert again.complete_hit


def test_aggregation_salvage_gives_full_coverage(
    tiny_schema, tiny_backend, tiny_facts, monkeypatch
):
    # Redirect every computable chunk to the backend (the Section 5.2
    # cost gate, forced): phase 3 then fails, and the salvage pass must
    # recover the exact answers by aggregating inside the cache.
    manager = make_manager(
        tiny_schema, tiny_backend, use_cost_optimizer=True
    )
    manager.query(Query.full_level(tiny_schema, tiny_schema.base_level))
    monkeypatch.setattr(
        manager, "_backend_is_cheaper", lambda *args: True
    )
    level = (1, 1, 0)
    with outage().armed():
        result = manager.query(Query.full_level(tiny_schema, level))
    assert result.degraded
    assert result.unanswered == ()
    assert result.coverage == 1.0
    assert result.complete_hit  # every chunk answered, backend untouched
    assert result.aggregated == len(result.chunks)
    truth = direct_aggregate(tiny_facts, level)
    cells = {}
    for chunk in result.chunks:
        cells.update(chunk.cell_dict())
    assert cells == pytest.approx(truth)
    manager.check_invariants()


def test_salvaged_query_with_a_shared_chunk_is_not_a_complete_hit(
    tiny_schema, tiny_backend, monkeypatch
):
    """A query whose own led fetch fails and is salvaged from the cache,
    while another of its chunks arrives through a racing query's
    successful flight, was served partly by the backend: no complete
    hit."""
    manager = make_manager(
        tiny_schema, tiny_backend, use_cost_optimizer=True
    )
    manager.query(Query.full_level(tiny_schema, tiny_schema.base_level))
    # Every computable chunk is redirected to the backend, so both queries
    # below miss in phase 1 and the failed one is salvaged by aggregation.
    monkeypatch.setattr(
        manager, "_backend_is_cheaper", lambda *args: True
    )
    query = Query.full_level(tiny_schema, (1, 1, 0))
    shared, salvaged = query.chunk_numbers(tiny_schema)[:2]
    gate = threading.Event()
    registry = FailpointRegistry(sleep=lambda _s: gate.wait(10))
    # Call 1 is the racing query's fetch (held at the gate, then
    # succeeds); call 2 is the measured query's own fetch (fails).
    registry.delay("backend.fetch", latency_ms=1.0, calls={1})
    registry.fail("backend.fetch", TransientBackendError, calls={2})
    results = {}

    def run(name, numbers):
        results[name] = manager.query(query, numbers=numbers)

    def wait_for(condition):
        for _ in range(1000):
            if condition():
                return
            threading.Event().wait(0.005)
        raise AssertionError("the racing queries never reached their step")

    with registry.armed():
        racer = threading.Thread(target=run, args=("racer", [shared]))
        racer.start()
        wait_for(lambda: manager.flights.in_progress() == 1)
        measured = threading.Thread(
            target=run, args=("measured", [shared, salvaged])
        )
        measured.start()
        wait_for(lambda: registry.calls("backend.fetch") == 2)
        gate.set()
        racer.join(timeout=10)
        measured.join(timeout=10)

    result = results["measured"]
    assert result.degraded
    assert result.unanswered == ()
    assert result.coverage == 1.0
    assert result.from_backend == 1
    assert result.aggregated == 1
    assert not result.complete_hit
    assert results["racer"].from_backend == 1
    assert manager.flights.in_progress() == 0
    manager.check_invariants()


def test_sequential_outage_leaves_no_flight_behind(
    tiny_schema, tiny_backend, monkeypatch
):
    """The bare manager runs the single-flight pipeline too: whatever way
    a query leaves — degraded, or raising out of the admission phase —
    no flight of its own may stay in the table."""
    manager = make_manager(
        tiny_schema, tiny_backend, use_cost_optimizer=True
    )
    level = tiny_schema.base_level
    warm = Query(level, ((1, 3), (0, 2), (0, 1)))
    manager.query(warm)
    cached = set(warm.chunk_numbers(tiny_schema))
    full = Query.full_level(tiny_schema, level)

    with outage().armed():
        result = manager.query(full)
    assert result.degraded
    assert set(result.unanswered) == (
        set(full.chunk_numbers(tiny_schema)) - cached
    )
    assert result.coverage == pytest.approx(len(cached) / full.num_chunks)
    assert manager.flights.in_progress() == 0

    # Healthy backend, a non-fault error out of phase 4: the led flights
    # were already published when it struck and must be abandoned.
    registry = FailpointRegistry()
    registry.fail("cache.insert", ValueError, calls={1})
    with registry.armed():
        with pytest.raises(ValueError):
            manager.query(full)
    assert manager.flights.in_progress() == 0
    healed = manager.query(full)
    assert healed.coverage == 1.0
    assert healed.from_backend == len(result.unanswered)

    # Outage plus the same error: the salvage pass aggregates the
    # redirected chunks, their admission blows up.
    monkeypatch.setattr(manager, "_backend_is_cheaper", lambda *args: True)
    registry = outage()
    registry.fail("cache.insert", ValueError)
    with registry.armed():
        with pytest.raises(ValueError):
            manager.query(Query.full_level(tiny_schema, (1, 1, 0)))
    assert manager.flights.in_progress() == 0
    manager.check_invariants()


def test_unknown_errors_propagate_even_in_degraded_mode(
    tiny_schema, tiny_backend
):
    manager = make_manager(tiny_schema, tiny_backend)
    registry = FailpointRegistry()
    registry.fail("backend.fetch", ValueError)  # not a FaultError
    with registry.armed():
        with pytest.raises(ValueError):
            manager.query(Query.full_level(tiny_schema, (1, 1, 0)))


def test_degraded_obs_accounting(tiny_schema, tiny_backend):
    obs = Observability.in_memory()
    manager = make_manager(tiny_schema, tiny_backend, obs=obs)
    level = tiny_schema.base_level
    warm = Query(level, ((1, 3), (0, 2), (0, 1)))
    manager.query(warm)
    full = Query.full_level(tiny_schema, level)
    with outage().armed():
        result = manager.query(full)
    counters = obs.metrics.snapshot()["counters"]
    assert counters["backend.degraded_queries"] == 1
    assert counters["backend.degraded_answers"] == len(result.chunks)
    assert counters["backend.unanswered_chunks"] == len(result.unanswered)
    query_events = obs.ring_events("query")
    assert query_events[-1]["degraded"] is True
    assert query_events[-1]["unanswered"] == list(result.unanswered)
    assert "degraded" not in query_events[0]  # fault-free event untouched
