"""Eviction-path stress: warehouse invalidations racing live queries.

``invalidate_base_chunks`` evicts whole waves while worker threads
admit, reinforce and evict through the query path.  The service layer
serialises every movement (invalidations under the write lock, admission
waves under the store lock followed by one strategy wave), so no
interleaving may leave the Count/Cost stores describing chunks that are
not resident — the invariant checked here by rebuilding both stores from
the final resident set alone.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import (
    AggregateCache,
    BackendDatabase,
    ConcurrentAggregateCache,
    CostModel,
    CountStore,
    QueryStreamGenerator,
)
from repro.core.costs import CostStore

WORKERS = 6
NUM_QUERIES = 160


@pytest.mark.parametrize(
    "capacity_fraction",
    [0.35, 1.0],
    ids=["tight-cache", "roomy-cache"],
)
def test_invalidation_racing_queries_keeps_state_consistent(
    tiny_schema, tiny_facts, capacity_fraction
):
    backend = BackendDatabase(tiny_schema, tiny_facts, CostModel())
    manager = AggregateCache(
        tiny_schema,
        backend,
        capacity_bytes=max(
            int(backend.base_size_bytes * capacity_fraction), 1
        ),
        strategy="vcmc",
        policy="two_level",
    )
    service = ConcurrentAggregateCache(manager)
    stream = list(
        QueryStreamGenerator(tiny_schema, max_extent=3, seed=9041).generate(
            NUM_QUERIES
        )
    )

    num_base = tiny_schema.num_chunks(tiny_schema.base_level)
    stop = threading.Event()
    invalidations = []

    def invalidator():
        rng = np.random.default_rng(9041)
        while not stop.is_set():
            targets = rng.choice(
                num_base, size=max(1, num_base // 4), replace=False
            )
            invalidations.append(
                service.invalidate_base_chunks([int(n) for n in targets])
            )

    thread = threading.Thread(target=invalidator)
    thread.start()
    try:
        results = service.serve(stream, workers=WORKERS)
    finally:
        stop.set()
        thread.join()

    assert len(results) == NUM_QUERIES
    assert all(r is not None for r in results)
    assert invalidations and any(n > 0 for n in invalidations), (
        "the invalidator must actually have evicted waves mid-run for "
        "this stress to mean anything"
    )

    # Byte accounting survived the interleaved eviction waves.
    cache = manager.cache
    assert cache.used_bytes == sum(
        entry.size_bytes for entry in cache.entries()
    )

    resident = list(cache.resident_keys())

    # Counts: maintained state equals a rebuild from the resident set.
    rebuilt_counts = CountStore(tiny_schema)
    rebuilt_counts.on_insert_many(resident)
    for level in tiny_schema.all_levels():
        assert np.array_equal(
            manager.strategy.counts.counts_array(level),
            rebuilt_counts.counts_array(level),
        ), f"count store diverged at level {level}"

    # Costs: Cost, BestParent and cached flags bit-identical to a rebuild.
    costs = manager.strategy.costs
    rebuilt_costs = CostStore(tiny_schema, costs.sizes)
    rebuilt_costs.on_insert_many(resident)
    for level in tiny_schema.all_levels():
        assert np.array_equal(
            costs.cost_array(level), rebuilt_costs.cost_array(level)
        ), f"cost surface diverged at level {level}"
        assert np.array_equal(
            costs.best_array(level), rebuilt_costs.best_array(level)
        ), f"best parents diverged at level {level}"
        assert np.array_equal(
            costs._cached[level], rebuilt_costs._cached[level]
        ), f"cached flags diverged at level {level}"

    # Every cached flag corresponds to a resident chunk and vice versa.
    flagged = {
        (level, int(n))
        for level in tiny_schema.all_levels()
        for n in np.flatnonzero(costs._cached[level])
    }
    assert flagged == set(resident)
