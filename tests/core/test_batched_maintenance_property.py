"""Property suite: maintenance waves leave exact, order-independent state.

For counts, ``on_insert_many`` / ``on_evict_many`` replace N recursive
per-chunk cascades with one lattice-order pass — an optimisation that
must be *invisible*: after every wave of any interleaving of insert and
evict waves, the store holds the definition's counts (``oracle_counts``),
exactly the state of the paper's recursive cascade driven one key at a
time (``CascadeCounts``) and of a store rebuilt from the resident set in
one wave, and it charges the cascade's number of updates (the paper's
Table 2 metric).

Costs have one wave path.  After every wave the ``Cost`` array equals the
brute-force least cost (``oracle_min_cost`` over integer sizes, so exact
``==``), every ``BestParent`` is the first least-cost parent, the arrays
are bit-identical to a store rebuilt from the resident set in one wave,
and the wave's update charge is the number of chunks whose
``(Cost, BestParent)`` changed.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import CostStore
from repro.core.counts import CountStore
from repro.schema import apb_tiny_schema
from tests.helpers import (
    CascadeCounts,
    IntegerSizes,
    assert_cost_state_exact,
    assert_count_state_exact,
)

SCHEMA = apb_tiny_schema()
ALL_KEYS = [
    (level, number)
    for level in SCHEMA.all_levels()
    for number in range(SCHEMA.num_chunks(level))
]


@st.composite
def wave_schedules(draw):
    """A sequence of single-sign waves: each round inserts a fresh subset
    of non-resident chunks as one wave, then evicts a subset of resident
    chunks as one wave (waves may span several lattice levels)."""
    schedule = []
    resident: set = set()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        available = sorted(k for k in ALL_KEYS if k not in resident)
        if available:
            indices = draw(
                st.lists(
                    st.integers(min_value=0, max_value=len(available) - 1),
                    max_size=10,
                    unique=True,
                )
            )
            insert = [available[i] for i in indices]
            if insert:
                resident.update(insert)
                schedule.append(("insert", insert))
        residents = sorted(resident)
        if residents:
            indices = draw(
                st.lists(
                    st.integers(min_value=0, max_value=len(residents) - 1),
                    max_size=8,
                    unique=True,
                )
            )
            evict = [residents[i] for i in indices]
            if evict:
                resident.difference_update(evict)
                schedule.append(("evict", evict))
    return schedule


def apply_scalar(reference: CascadeCounts, op: str, keys) -> int:
    method = reference.insert if op == "insert" else reference.evict
    return sum(method(level, number) for level, number in keys)


def apply_wave(store, op: str, keys) -> int:
    method = store.on_insert_many if op == "insert" else store.on_evict_many
    return method(keys)


def track(resident: set, op: str, keys) -> None:
    if op == "insert":
        resident.update(keys)
    else:
        resident.difference_update(keys)


@settings(max_examples=80, deadline=None)
@given(schedule=wave_schedules())
def test_batched_count_waves_equal_scalar_cascades(schedule):
    scalar = CascadeCounts(SCHEMA)
    batched = CountStore(SCHEMA)
    resident: set = set()
    total = 0
    for op, keys in schedule:
        scalar_updates = apply_scalar(scalar, op, keys)
        batched_updates = apply_wave(batched, op, keys)
        total += scalar_updates
        assert batched_updates == scalar_updates, (
            f"update charge diverged on {op} wave {keys}"
        )
        track(resident, op, keys)
        assert_count_state_exact(batched, resident, reference=scalar)
    assert batched.total_updates == total


def cost_state(store: CostStore) -> dict:
    return {
        level: (store.cost_array(level).copy(), store.best_array(level).copy())
        for level in SCHEMA.all_levels()
    }


@settings(max_examples=60, deadline=None)
@given(schedule=wave_schedules())
def test_cost_waves_equal_oracle_and_rebuild(schedule):
    store = CostStore(SCHEMA, IntegerSizes())
    resident: set = set()
    for op, keys in schedule:
        apply_wave(store, op, keys)
        track(resident, op, keys)
        assert_cost_state_exact(store, resident)


@settings(max_examples=60, deadline=None)
@given(schedule=wave_schedules())
def test_cost_wave_charges_each_changed_chunk_once(schedule):
    """A wave's update charge is the number of chunks whose
    ``(Cost, BestParent)`` differs before and after it — a chunk reached
    along several changed lattice paths is still settled once."""
    store = CostStore(SCHEMA, IntegerSizes())
    for op, keys in schedule:
        before = cost_state(store)
        updates = apply_wave(store, op, keys)
        after = cost_state(store)
        changed = sum(
            int(np.count_nonzero(
                (before[level][0] != after[level][0])
                | (before[level][1] != after[level][1])
            ))
            for level in SCHEMA.all_levels()
        )
        assert updates == changed, f"{op} wave {keys}"


@settings(max_examples=40, deadline=None)
@given(schedule=wave_schedules())
def test_batched_waves_equal_rebuild_from_resident_set(schedule):
    """Order independence, the stronger form: after any schedule the
    store equals a store rebuilt from the final resident set in one
    insertion wave, and the definition's counts."""
    store = CountStore(SCHEMA)
    resident: set = set()
    for op, keys in schedule:
        apply_wave(store, op, keys)
        track(resident, op, keys)
    assert_count_state_exact(store, resident)
