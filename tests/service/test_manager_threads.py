"""A bare :class:`AggregateCache` — no serving façade — queried from many
threads: the pipeline's own locks and single-flight table keep answers
exact and the cache state consistent."""

from __future__ import annotations

import sys
import threading

import pytest

from repro import (
    AggregateCache,
    BackendDatabase,
    CostModel,
    QueryStreamGenerator,
)

THREADS = 8
NUM_QUERIES = 240


def make_manager(tiny_schema, tiny_facts, capacity_fraction):
    backend = BackendDatabase(tiny_schema, tiny_facts, CostModel())
    return AggregateCache(
        tiny_schema,
        backend,
        capacity_bytes=max(
            int(backend.base_size_bytes * capacity_fraction), 1
        ),
        strategy="vcmc",
        policy="two_level",
    )


def test_bare_manager_serves_threads_exactly(tiny_schema, tiny_facts):
    stream = list(
        QueryStreamGenerator(tiny_schema, max_extent=3, seed=5113).generate(
            NUM_QUERIES
        )
    )
    # Answers do not depend on cache state, so a roomy sequential manager
    # is the reference for every query's total.
    reference = make_manager(tiny_schema, tiny_facts, 2.0)
    expected = [reference.query(query).total_value() for query in stream]

    # Capacity-starved: admissions evict constantly, so lookups race
    # evictions and concurrent misses race each other's fetches.
    manager = make_manager(tiny_schema, tiny_facts, 0.35)
    results = [None] * NUM_QUERIES
    errors = []
    barrier = threading.Barrier(THREADS)

    def client(slot):
        try:
            barrier.wait(timeout=10)
            for index in range(slot, NUM_QUERIES, THREADS):
                results[index] = manager.query(stream[index])
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(slot,))
        for slot in range(THREADS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)

    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    for query, result, total in zip(stream, results, expected):
        assert result is not None
        assert len(result.chunks) == query.num_chunks
        assert result.coverage == 1.0
        assert result.total_value() == pytest.approx(total)
    assert manager.queries_run == NUM_QUERIES
    assert manager.complete_hits == sum(r.complete_hit for r in results)
    assert manager.flights.in_progress() == 0
    manager.check_invariants()
