"""Wave size does not change what a maintenance wave leaves behind.

Both stores settle any wave, one key or hundreds, with one exact
lattice-order pass.  The sizes below straddle 32 keys, where the count
store used to switch from per-key recursive cascades to a vectorised
pass: state, update charges and failure behaviour are pinned against the
reference cascade, the definition's oracle and the one-wave rebuild
whatever side of that line a wave lands."""

from __future__ import annotations

import pytest

import numpy as np

from repro.core.costs import CostStore
from repro.core.counts import CountStore
from repro.core.sizes import SizeEstimator
from repro.schema import apb_tiny_schema
from repro.util.errors import ReproError
from tests.helpers import (
    CascadeCounts,
    IntegerSizes,
    assert_cost_state_exact,
    assert_count_state_exact,
)

SCHEMA = apb_tiny_schema()


def _wave(size: int):
    """A deterministic multi-level wave of ``size`` distinct keys."""
    keys = []
    for level in SCHEMA.all_levels():
        for number in range(SCHEMA.num_chunks(level)):
            keys.append((level, number))
    assert len(keys) >= size
    return keys[:size]


@pytest.mark.parametrize("size", [1, 4, 31, 32, 40])
def test_crossover_sides_leave_identical_count_state(size):
    """The same keys as one wave and through the reference cascade one
    key at a time end in the same counts and charge the same number of
    updates, through insertion, a partial and a full eviction."""
    keys = _wave(size)
    store = CountStore(SCHEMA)
    reference = CascadeCounts(SCHEMA)
    half = size // 2
    steps = (
        (store.on_insert_many, reference.insert, keys),
        (store.on_evict_many, reference.evict, keys[:half]),
        (store.on_evict_many, reference.evict, keys[half:]),
    )
    resident: set = set()
    for wave, cascade, part in steps:
        assert wave(part) == sum(cascade(*key) for key in part)
        resident.symmetric_difference_update(part)
        assert_count_state_exact(store, resident, reference=reference)
    assert not resident


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


def test_scalar_evict_path_validates_before_mutating():
    """An eviction wave checks every chunk's debt first: a bad wave
    raises WITHOUT applying any of its deltas."""
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
