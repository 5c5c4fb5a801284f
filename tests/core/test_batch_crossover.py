"""The adaptive scalar/batched crossover in the count store.

``CountStore.on_insert_many``/``on_evict_many`` route waves below
``batch_crossover`` through the scalar cascades (one lock hold, no
per-level array setup) and larger waves through the vectorised wave
machinery.  Both paths are the same function semantically; these tests
pin that — state, update charges and failure behaviour must not depend
on which side of the threshold a wave lands.  The cost store has a
single wave path; the same wave sizes pin its state against the oracle
and the one-wave rebuild."""

from __future__ import annotations

import pytest

import numpy as np

from repro.core.costs import CostStore
from repro.core.counts import CountStore
from repro.core.sizes import SizeEstimator
from repro.schema import apb_tiny_schema
from repro.util.errors import ReproError
from tests.helpers import IntegerSizes, assert_cost_state_exact

SCHEMA = apb_tiny_schema()


def _wave(size: int):
    """A deterministic multi-level wave of ``size`` distinct keys."""
    keys = []
    for level in SCHEMA.all_levels():
        for number in range(SCHEMA.num_chunks(level)):
            keys.append((level, number))
    assert len(keys) >= size
    return keys[:size]


def _fresh_stores():
    sizes = SizeEstimator(SCHEMA, total_base_tuples=500)
    return CountStore(SCHEMA), CostStore(SCHEMA, sizes)


@pytest.mark.parametrize("size", [1, 4, 31, 32, 40])
def test_crossover_sides_leave_identical_count_state(size):
    """The same wave through the scalar route (crossover above) and the
    vectorised route (crossover 0) ends in the same counts and charges
    the same number of updates."""
    keys = _wave(size)
    small, _ = _fresh_stores()
    large, _ = _fresh_stores()
    small.batch_crossover = len(keys) + 1  # scalar path
    large.batch_crossover = 0  # vectorised path
    assert small.on_insert_many(keys) == large.on_insert_many(keys)
    for level in SCHEMA.all_levels():
        assert np.array_equal(
            small.counts_array(level), large.counts_array(level)
        )
    assert small.on_evict_many(keys) == large.on_evict_many(keys)
    for level in SCHEMA.all_levels():
        assert not small.counts_array(level).any()
        assert not large.counts_array(level).any()


@pytest.mark.parametrize("size", [1, 31, 32, 40])
def test_crossover_sides_leave_identical_cost_state(size):
    """Cost waves of sizes either side of the count store's crossover
    leave the oracle's (Cost, BestParent) and the one-wave rebuild's
    arrays, through insertion, a partial and a full eviction."""
    keys = _wave(size)
    store = CostStore(SCHEMA, IntegerSizes())
    store.on_insert_many(keys)
    assert_cost_state_exact(store, set(keys))
    store.on_evict_many(keys[: size // 2])
    assert_cost_state_exact(store, set(keys[size // 2 :]))
    store.on_evict_many(keys[size // 2 :])
    assert_cost_state_exact(store, set())


def test_default_crossover_routes_small_waves_scalar():
    """The default threshold (32) is what the admission path relies on:
    a per-query wave of a few chunks takes the scalar route."""
    store = CountStore(SCHEMA)
    assert store.batch_crossover == 32


def test_scalar_evict_path_validates_before_mutating():
    """The small-wave eviction mirrors the vectorised precondition: a
    bad wave raises WITHOUT applying any of its cascades."""
    store = CountStore(SCHEMA)
    base = SCHEMA.base_level
    store.on_insert_many([(base, 0)])
    snapshot = {
        level: store.counts_array(level).copy()
        for level in SCHEMA.all_levels()
    }
    with pytest.raises(ReproError, match="underflow"):
        # (base, 0) is evictable once, but the wave owes it twice.
        store.on_evict_many([(base, 0), (base, 0)])
    for level in SCHEMA.all_levels():
        assert np.array_equal(
            store.counts_array(level), snapshot[level]
        ), "failed wave must not leave a partially applied cascade"


def test_scalar_cost_evict_path_validates_before_mutating():
    sizes = SizeEstimator(SCHEMA, total_base_tuples=500)
    store = CostStore(SCHEMA, sizes)
    base = SCHEMA.base_level
    store.on_insert_many([(base, 0)])
    with pytest.raises(ReproError):
        store.on_evict_many([(base, 0), (base, 1)])  # chunk 1 not cached
    assert store.is_cached(base, 0), "failed wave must not evict anything"
