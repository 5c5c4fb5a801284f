"""Virtual count maintenance tests (Property 1, Lemma 2 — experiments E11/E12)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counts import CountStore
from repro.schema import apb_tiny_schema
from repro.util.errors import ReproError
from tests.helpers import oracle_computable


@pytest.fixture
def schema():
    return apb_tiny_schema()


def all_keys(schema):
    return [
        (level, number)
        for level in schema.all_levels()
        for number in range(schema.num_chunks(level))
    ]


def assert_property_1(schema, store, cached):
    """Count non-zero iff computable (the paper's Property 1), everywhere."""
    for level, number in all_keys(schema):
        expected = oracle_computable(schema, cached, level, number)
        assert store.is_computable(level, number) == expected, (
            level,
            number,
            cached,
        )


def test_empty_cache_counts_all_zero(schema):
    store = CountStore(schema)
    assert all(store.count(l, n) == 0 for l, n in all_keys(schema))
    assert store.num_entries() == sum(
        schema.num_chunks(l) for l in schema.all_levels()
    )


def test_single_base_chunk_insert(schema):
    store = CountStore(schema)
    store.on_insert_many([(schema.base_level, 0)])
    assert store.count(schema.base_level, 0) == 1
    assert_property_1(schema, store, {(schema.base_level, 0)})


def test_full_base_level_makes_everything_computable(schema):
    store = CountStore(schema)
    cached = set()
    base = schema.base_level
    for n in range(schema.num_chunks(base)):
        store.on_insert_many([(base, n)])
        cached.add((base, n))
    for level, number in all_keys(schema):
        assert store.is_computable(level, number)
    # Apex count: computable via all three parents (no direct presence).
    assert store.count(schema.apex_level, 0) == 3


def test_paper_figure4_counts():
    """Reproduce the count structure of the paper's Figure 4 / Example 4.

    Two dimensions with hierarchy size 1; level (1,1) has 4 chunks (2x2),
    (1,0) and (0,1) have 2 chunks, (0,0) has 1.  Cache contents chosen so
    the narrated facts hold: a base chunk present with count 1, a base
    chunk absent with count 0, a mid-level chunk *not* present yet counted
    computable through one parent, and the apex chunk present with count 3
    (presence + two successful parent paths).
    """
    from repro.schema import CubeSchema, Dimension

    schema = CubeSchema(
        [Dimension.flat("A", 4, 2), Dimension.flat("B", 4, 2)],
        bytes_per_tuple=20,
    )
    store = CountStore(schema)
    for level, number in [
        ((1, 1), 0),
        ((1, 1), 2),
        ((1, 1), 3),
        ((1, 0), 0),
        ((0, 1), 1),
        ((0, 0), 0),
    ]:
        store.on_insert_many([(level, number)])
    # Base level: counts are pure presence.
    assert [store.count((1, 1), n) for n in range(4)] == [1, 0, 1, 1]
    # (0,1) chunk 0 is NOT cached but computable via (1,1) chunks {0, 2}:
    # count 1 through one parent (the paper's narrated case).
    assert not store.is_computable((1, 1), 1)
    assert [store.count((0, 1), n) for n in range(2)] == [1, 1]
    assert [store.count((1, 0), n) for n in range(2)] == [1, 1]
    # Apex: present (+1) and both parent group-bys fully computable (+2).
    assert store.count((0, 0), 0) == 3


def test_insert_then_evict_restores_zero_state(schema):
    store = CountStore(schema)
    keys = [(schema.base_level, 0), ((1, 1, 1), 1), ((0, 1, 0), 0)]
    for level, number in keys:
        store.on_insert_many([(level, number)])
    for level, number in reversed(keys):
        store.on_evict_many([(level, number)])
    assert all(store.count(l, n) == 0 for l, n in all_keys(schema))


def test_evict_uncounted_chunk_raises(schema):
    store = CountStore(schema)
    with pytest.raises(ReproError, match="underflow"):
        store.on_evict_many([(schema.base_level, 0)])


def test_duplicate_insert_stacks_counts(schema):
    # The same chunk inserted twice (cache re-admission is guarded at the
    # store level, but CountStore itself just counts).
    store = CountStore(schema)
    store.on_insert_many([(schema.base_level, 0)])
    first = store.count(schema.base_level, 0)
    store.on_insert_many([(schema.base_level, 0)])
    assert store.count(schema.base_level, 0) == first + 1


def test_lemma2_update_bound(schema):
    """Lemma 2 (E12): inserting at level (l1..ln) updates at most
    n * prod(l_i + 1) counts."""
    n = schema.ndims
    for level in schema.all_levels():
        store = CountStore(schema)
        bound = n * math.prod(l + 1 for l in level)
        updates = store.on_insert_many([(level, 0)])
        assert updates <= bound, (level, updates, bound)


def test_insert_returns_update_count(schema):
    store = CountStore(schema)
    updates = store.on_insert_many([(schema.apex_level, 0)])
    assert updates == 1  # apex has no children
    assert store.total_updates == 1


@settings(max_examples=40, deadline=None)
@given(
    operations=st.lists(
        st.tuples(st.booleans(), st.integers(0, 10_000)),
        min_size=1,
        max_size=25,
    )
)
def test_property1_under_random_insert_evict(operations):
    """Property 1 holds after any interleaving of inserts and evictions."""
    schema = apb_tiny_schema()
    keys = [
        (level, number)
        for level in schema.all_levels()
        for number in range(schema.num_chunks(level))
    ]
    store = CountStore(schema)
    cached: set = set()
    for is_insert, pick in operations:
        if is_insert:
            candidates = [k for k in keys if k not in cached]
        else:
            candidates = sorted(cached)
        if not candidates:
            continue
        key = candidates[pick % len(candidates)]
        if is_insert:
            store.on_insert_many([key])
            cached.add(key)
        else:
            store.on_evict_many([key])
            cached.discard(key)
    assert_property_1(schema, store, cached)


def test_counts_array_view(schema):
    store = CountStore(schema)
    store.on_insert_many([(schema.base_level, 0)])
    arr = store.counts_array(schema.base_level)
    assert isinstance(arr, np.ndarray)
    assert arr[0] == 1
