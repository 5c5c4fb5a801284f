"""Concurrency stress: many workers, many queries, tight cache, then the
two consistency invariants the locking design promises.

* byte accounting: ``used_bytes`` equals the sum of resident entry sizes;
* count maintenance: every CountStore array equals one rebuilt from
  scratch off the final resident set (Property 1 survived the races).
"""

from __future__ import annotations

import pytest

from repro import (
    AggregateCache,
    BackendDatabase,
    ConcurrentAggregateCache,
    CostModel,
    QueryStreamGenerator,
)
from repro.obs import Observability

WORKERS = 8
NUM_QUERIES = 240


@pytest.mark.parametrize(
    "capacity_fraction",
    [0.35, 1.0],
    ids=["tight-cache-heavy-eviction", "roomy-cache"],
)
def test_stress_invariants(tiny_schema, tiny_facts, capacity_fraction):
    backend = BackendDatabase(tiny_schema, tiny_facts, CostModel())
    obs = Observability.in_memory(capacity=100_000)
    manager = AggregateCache(
        tiny_schema,
        backend,
        capacity_bytes=max(
            int(backend.base_size_bytes * capacity_fraction), 1
        ),
        strategy="vcmc",
        policy="two_level",
        obs=obs,
    )
    service = ConcurrentAggregateCache(manager)
    requests_before = backend.totals.requests
    stream = list(
        QueryStreamGenerator(tiny_schema, max_extent=3, seed=3271).generate(
            NUM_QUERIES
        )
    )

    results = service.serve(stream, workers=WORKERS)

    assert len(results) == NUM_QUERIES
    assert all(r is not None for r in results)
    for query, result in zip(stream, results):
        assert result.query is query, "results must come back in order"
        assert len(result.chunks) == query.num_chunks
    assert manager.queries_run == NUM_QUERIES
    assert manager.complete_hits == sum(1 for r in results if r.complete_hit)
    assert service.flights.in_progress() == 0
    # A query issues at most one batched backend request (its led
    # flights); single-flight followers never issue their own.
    assert backend.totals.requests - requests_before <= NUM_QUERIES

    # Both invariants, through the manager's own checker.
    manager.check_invariants()
    cache = manager.cache
    assert 0 <= cache.used_bytes <= cache.capacity_bytes

    # The metrics counters were incremented under their locks: the query
    # counter must equal the number of queries exactly, not approximately.
    snapshot = obs.snapshot()
    assert snapshot["counters"]["query.count"] == NUM_QUERIES
    assert (
        snapshot["counters"].get("query.complete_hits", 0)
        == manager.complete_hits
    )
