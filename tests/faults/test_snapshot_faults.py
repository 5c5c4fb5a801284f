"""Snapshot restore under corruption: drop the bad chunk, keep the rest."""

from __future__ import annotations

import numpy as np
import pytest

from repro import AggregateCache, Query
from repro.cache.snapshot import load_cache_snapshot, save_cache_snapshot
from repro.faults import CorruptChunkError, FailpointRegistry
from repro.obs import Observability


@pytest.fixture
def warm_manager(tiny_schema, tiny_backend):
    manager = AggregateCache(
        tiny_schema, tiny_backend, capacity_bytes=1 << 20, strategy="vcmc"
    )
    manager.query(Query.full_level(tiny_schema, (0, 0, 0)))
    manager.query(Query.full_level(tiny_schema, (1, 1, 0)))
    return manager


def fresh_manager(tiny_schema, tiny_backend, **kwargs):
    kwargs.setdefault("strategy", "vcmc")
    return AggregateCache(
        tiny_schema,
        tiny_backend,
        capacity_bytes=1 << 20,
        preload=False,
        obs=kwargs.pop("obs", None),
        **kwargs,
    )


def test_injected_corruption_skips_only_that_chunk(
    warm_manager, tiny_schema, tiny_backend, tmp_path
):
    path = tmp_path / "cache.npz"
    saved = save_cache_snapshot(warm_manager, path)
    assert saved >= 3

    obs = Observability.in_memory()
    fresh = fresh_manager(tiny_schema, tiny_backend, obs=obs)
    registry = FailpointRegistry()
    registry.fail(
        "snapshot.load",
        CorruptChunkError,
        predicate=lambda ctx, _index: ctx["index"] in (0, 2),
    )
    with registry.armed():
        restored = load_cache_snapshot(fresh, path)

    assert restored == saved - 2
    assert len(fresh.cache) == saved - 2
    missing = set(warm_manager.cache.resident_keys()) - set(
        fresh.cache.resident_keys()
    )
    assert len(missing) == 2
    assert obs.metrics.snapshot()["counters"]["snapshot.corrupt_chunks"] == 2
    corrupt_events = obs.ring_events("snapshot.corrupt")
    assert sorted(
        (tuple(e["level"]), e["number"]) for e in corrupt_events
    ) == sorted(missing)
    # Count/cost state was rebuilt for exactly the surviving set.
    fresh.check_invariants()


def test_surviving_chunks_answer_queries_exactly(
    warm_manager, tiny_schema, tiny_backend, tmp_path
):
    path = tmp_path / "cache.npz"
    save_cache_snapshot(warm_manager, path)
    fresh = fresh_manager(tiny_schema, tiny_backend)
    registry = FailpointRegistry(seed=5)
    registry.fail("snapshot.load", CorruptChunkError, p=0.3)
    with registry.armed():
        load_cache_snapshot(fresh, path)

    # Whatever survived, the two managers agree wherever both answer.
    reference = fresh_manager(tiny_schema, tiny_backend)
    load_cache_snapshot(reference, path)
    query = Query.full_level(tiny_schema, (1, 1, 0))
    lhs = fresh.query(query)
    rhs = reference.query(query)
    assert lhs.total_value() == pytest.approx(rhs.total_value())
    fresh.check_invariants()


def test_genuinely_corrupt_payload_is_rejected(
    warm_manager, tiny_schema, tiny_backend, tmp_path
):
    # Real corruption (not injected): truncate one chunk's counts array
    # so it disagrees with its values.  The loader must skip it and
    # restore everything else.
    path = tmp_path / "cache.npz"
    saved = save_cache_snapshot(warm_manager, path)
    with np.load(path, allow_pickle=True) as data:
        arrays = {name: data[name] for name in data.files}
    victim = next(
        i for i in range(saved) if len(arrays[f"chunk_{i}_values"]) > 0
    )
    arrays[f"chunk_{victim}_counts"] = arrays[f"chunk_{victim}_counts"][:-1]
    np.savez_compressed(path, **arrays)

    fresh = fresh_manager(tiny_schema, tiny_backend)
    restored = load_cache_snapshot(fresh, path)
    assert restored == saved - 1
    fresh.check_invariants()


def test_fault_free_restore_is_unchanged(
    warm_manager, tiny_schema, tiny_backend, tmp_path
):
    path = tmp_path / "cache.npz"
    saved = save_cache_snapshot(warm_manager, path)
    fresh = fresh_manager(tiny_schema, tiny_backend)
    assert load_cache_snapshot(fresh, path) == saved
    assert set(fresh.cache.resident_keys()) == set(
        warm_manager.cache.resident_keys()
    )
