"""Property test: incremental count maintenance equals a from-scratch
recount after ANY interleaved insert/evict sequence.

The incremental algorithms (``on_insert`` / ``on_evict``) are the paper's
whole point — Section 4 argues eviction is the exact mirror of insertion.
This drives them with arbitrary interleavings (including inserting chunks
at several levels, re-evicting, and re-inserting) and checks every count
array against a :class:`CountStore` rebuilt from the final resident set
alone.  Order independence is exactly what the concurrent service layer
relies on when admissions from different queries interleave.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counts import CountStore
from repro.schema import apb_tiny_schema

SCHEMA = apb_tiny_schema()
ALL_KEYS = [
    (level, number)
    for level in SCHEMA.all_levels()
    for number in range(SCHEMA.num_chunks(level))
]


@st.composite
def interleavings(draw):
    """A sequence of (key, opcode) where the opcode toggles residency:
    insert if the chunk is out, evict if it is in."""
    indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(ALL_KEYS) - 1),
            min_size=0,
            max_size=60,
        )
    )
    return [ALL_KEYS[i] for i in indices]


def rebuild_from(resident) -> CountStore:
    store = CountStore(SCHEMA)
    for level, number in resident:
        store.on_insert_many([(level, number)])
    return store


def assert_counts_equal(maintained: CountStore, recounted: CountStore):
    for level in SCHEMA.all_levels():
        assert np.array_equal(
            maintained.counts_array(level), recounted.counts_array(level)
        ), f"diverged at level {level}"


@settings(max_examples=60, deadline=None)
@given(ops=interleavings())
def test_interleaved_inserts_and_evicts_match_recount(ops):
    store = CountStore(SCHEMA)
    resident: set = set()
    for key in ops:
        if key in resident:
            store.on_evict_many([key])
            resident.discard(key)
        else:
            store.on_insert_many([key])
            resident.add(key)
    assert_counts_equal(store, rebuild_from(resident))


@settings(max_examples=30, deadline=None)
@given(ops=interleavings())
def test_full_teardown_returns_to_zero(ops):
    """Inserting any set and evicting everything leaves all counts zero."""
    store = CountStore(SCHEMA)
    resident: set = set()
    for key in ops:
        if key not in resident:
            store.on_insert_many([key])
            resident.add(key)
    for key in resident:
        store.on_evict_many([key])
    for level in SCHEMA.all_levels():
        assert not store.counts_array(level).any()


def test_evicting_uncounted_chunk_fails_loudly():
    """Underflow (evicting a chunk that was never counted) must raise
    rather than silently corrupt counts — the guard the concurrent stress
    relies on to surface double-evict races."""
    from repro.util.errors import ReproError

    store = CountStore(SCHEMA)
    level, number = ALL_KEYS[0]
    with pytest.raises(ReproError, match="underflow"):
        store.on_evict_many([(level, number)])
