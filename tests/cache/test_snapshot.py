"""Cache snapshot save/restore tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro import AggregateCache, Query
from repro.cache.snapshot import load_cache_snapshot, save_cache_snapshot
from repro.util.errors import ReproError
from tests.helpers import oracle_computable


@pytest.fixture
def warm_manager(tiny_schema, tiny_backend):
    manager = AggregateCache(
        tiny_schema, tiny_backend, capacity_bytes=1 << 20, strategy="vcmc"
    )
    # Warm with a couple of computed chunks on top of the preload.
    manager.query(Query.full_level(tiny_schema, (0, 0, 0)))
    manager.query(Query.full_level(tiny_schema, (1, 1, 0)))
    return manager


def test_roundtrip_restores_contents(warm_manager, tiny_schema, tiny_backend, tmp_path):
    path = tmp_path / "cache.npz"
    saved = save_cache_snapshot(warm_manager, path)
    assert saved == len(warm_manager.cache)

    fresh = AggregateCache(
        tiny_schema,
        tiny_backend,
        capacity_bytes=1 << 20,
        strategy="vcmc",
        preload=False,
    )
    restored = load_cache_snapshot(fresh, path)
    assert restored == saved
    assert set(fresh.cache.resident_keys()) == set(
        warm_manager.cache.resident_keys()
    )


def warm(tiny_schema, tiny_backend, strategy):
    manager = AggregateCache(
        tiny_schema, tiny_backend, capacity_bytes=1 << 20, strategy=strategy
    )
    manager.query(Query.full_level(tiny_schema, (0, 0, 0)))
    manager.query(Query.full_level(tiny_schema, (1, 1, 0)))
    return manager


@pytest.mark.parametrize("strategy", ["vcm", "vcmc"])
def test_roundtrip_restores_summary_state(
    strategy, tiny_schema, tiny_backend, tmp_path
):
    """A restored manager equals the snapshotted one in resident set and
    in every maintained Count, Cost and BestParent entry."""
    original = warm(tiny_schema, tiny_backend, strategy)
    path = tmp_path / "cache.npz"
    saved = save_cache_snapshot(original, path)
    fresh = AggregateCache(
        tiny_schema,
        tiny_backend,
        capacity_bytes=1 << 20,
        strategy=strategy,
        preload=False,
    )
    assert load_cache_snapshot(fresh, path) == saved
    assert set(fresh.cache.resident_keys()) == set(
        original.cache.resident_keys()
    )
    for level in tiny_schema.all_levels():
        assert np.array_equal(
            fresh.strategy.counts.counts_array(level),
            original.strategy.counts.counts_array(level),
        )
        if strategy == "vcmc":
            assert np.array_equal(
                fresh.strategy.costs.cost_array(level),
                original.strategy.costs.cost_array(level),
            )
            assert np.array_equal(
                fresh.strategy.costs.best_array(level),
                original.strategy.costs.best_array(level),
            )
    fresh.check_invariants()


@pytest.mark.parametrize("fraction", [0.5, 0.25, 0.1])
def test_restore_counts_only_chunks_still_resident(
    fraction, warm_manager, tiny_schema, tiny_backend, tmp_path
):
    """Into a smaller cache, a chunk admitted early in the restore can be
    displaced by a later one; the returned count is what stayed."""
    path = tmp_path / "cache.npz"
    save_cache_snapshot(warm_manager, path)
    small = AggregateCache(
        tiny_schema,
        tiny_backend,
        capacity_bytes=int(warm_manager.cache.used_bytes * fraction),
        strategy="vcmc",
        preload=False,
    )
    restored = load_cache_snapshot(small, path)
    assert restored == len(small.cache)
    small.check_invariants()


def test_restored_strategy_state_is_consistent(
    warm_manager, tiny_schema, tiny_backend, tmp_path
):
    path = tmp_path / "cache.npz"
    save_cache_snapshot(warm_manager, path)
    fresh = AggregateCache(
        tiny_schema,
        tiny_backend,
        capacity_bytes=1 << 20,
        strategy="vcm",
        preload=False,
    )
    load_cache_snapshot(fresh, path)
    cached = set(fresh.cache.resident_keys())
    for level in tiny_schema.all_levels():
        for number in range(tiny_schema.num_chunks(level)):
            expected = oracle_computable(tiny_schema, cached, level, number)
            assert (
                fresh.strategy.find(level, number) is not None
            ) == expected


def test_restore_into_smaller_cache_skips_gracefully(
    warm_manager, tiny_schema, tiny_backend, tmp_path
):
    path = tmp_path / "cache.npz"
    saved = save_cache_snapshot(warm_manager, path)
    small = AggregateCache(
        tiny_schema,
        tiny_backend,
        capacity_bytes=100,
        strategy="vcmc",
        preload=False,
    )
    restored = load_cache_snapshot(small, path)
    assert 0 <= restored <= saved
    assert small.cache.used_bytes <= 100


def test_queries_work_after_restore(
    warm_manager, tiny_schema, tiny_backend, tiny_facts, tmp_path
):
    path = tmp_path / "cache.npz"
    save_cache_snapshot(warm_manager, path)
    fresh = AggregateCache(
        tiny_schema,
        tiny_backend,
        capacity_bytes=1 << 20,
        strategy="vcmc",
        preload=False,
    )
    load_cache_snapshot(fresh, path)
    result = fresh.query(Query.full_level(tiny_schema, (0, 0, 0)))
    assert result.complete_hit
    assert result.total_value() == pytest.approx(tiny_facts.total())


def test_stale_snapshot_rejected_after_append(
    tiny_schema, tiny_facts, tmp_path
):
    """A snapshot saved before a warehouse append must not silently
    restore over the grown backend: its chunks describe the old fact
    table and would serve stale aggregates forever."""
    from repro import BackendDatabase, generate_fact_table

    backend = BackendDatabase(tiny_schema, tiny_facts)
    manager = AggregateCache(
        tiny_schema, backend, capacity_bytes=1 << 20, strategy="vcmc"
    )
    manager.query(Query.full_level(tiny_schema, (1, 1, 0)))
    path = tmp_path / "cache.npz"
    save_cache_snapshot(manager, path)

    delta = generate_fact_table(tiny_schema, num_tuples=30, seed=9)
    manager.refresh_from_backend(delta)

    fresh = AggregateCache(
        tiny_schema,
        backend,
        capacity_bytes=1 << 20,
        strategy="vcmc",
        preload=False,
    )
    with pytest.raises(ReproError, match="refresh generation"):
        load_cache_snapshot(fresh, path)
    assert len(fresh.cache) == 0


def test_snapshot_roundtrip_after_append(tiny_schema, tiny_facts, tmp_path):
    """A snapshot taken AFTER the append restores cleanly into a manager
    over the same (appended) backend: the generations match."""
    from repro import BackendDatabase, generate_fact_table

    backend = BackendDatabase(tiny_schema, tiny_facts)
    manager = AggregateCache(
        tiny_schema, backend, capacity_bytes=1 << 20, strategy="vcmc"
    )
    delta = generate_fact_table(tiny_schema, num_tuples=30, seed=9)
    manager.refresh_from_backend(delta)
    manager.query(Query.full_level(tiny_schema, (1, 1, 0)))
    path = tmp_path / "cache.npz"
    saved = save_cache_snapshot(manager, path)

    fresh = AggregateCache(
        tiny_schema,
        backend,
        capacity_bytes=1 << 20,
        strategy="vcmc",
        preload=False,
    )
    restored = load_cache_snapshot(fresh, path)
    assert restored == saved
    assert set(fresh.cache.resident_keys()) == set(
        manager.cache.resident_keys()
    )


def test_dimension_mismatch_rejected(warm_manager, tmp_path):
    from repro import BackendDatabase, generate_fact_table
    from repro.schema import CubeSchema, Dimension

    path = tmp_path / "cache.npz"
    save_cache_snapshot(warm_manager, path)
    other_schema = CubeSchema(
        [Dimension.flat("A", 4, 2), Dimension.flat("B", 4, 2)]
    )
    facts = generate_fact_table(other_schema, num_tuples=10, seed=1)
    other = AggregateCache(
        other_schema,
        BackendDatabase(other_schema, facts),
        capacity_bytes=1 << 20,
        preload=False,
    )
    with pytest.raises(ReproError, match="dimensions"):
        load_cache_snapshot(other, path)
