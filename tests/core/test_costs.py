"""Cost store maintenance tests: VCMC's Cost must equal the true least cost."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import CostStore
from repro.core.sizes import SizeEstimator
from repro.schema import apb_tiny_schema
from repro.util.errors import ReproError
from tests.helpers import oracle_computable, oracle_min_cost


@pytest.fixture
def schema():
    return apb_tiny_schema()


@pytest.fixture
def sizes(schema):
    return SizeEstimator(schema, total_base_tuples=14)


def all_keys(schema):
    return [
        (level, number)
        for level in schema.all_levels()
        for number in range(schema.num_chunks(level))
    ]


def assert_costs_match_oracle(schema, sizes, store, cached):
    for level, number in all_keys(schema):
        expected = oracle_min_cost(schema, sizes, cached, level, number)
        actual = store.cost(level, number)
        if math.isinf(expected):
            assert math.isinf(actual), (level, number)
        else:
            assert actual == pytest.approx(expected), (level, number)


def load_base(schema, store):
    cached = set()
    for n in range(schema.num_chunks(schema.base_level)):
        store.on_insert_many([(schema.base_level, n)])
        cached.add((schema.base_level, n))
    return cached


def test_computability_always_exact(schema, sizes):
    store = CostStore(schema, sizes)
    cached = load_base(schema, store)
    store.on_insert_many([((1, 1, 0), 0)])
    cached.add(((1, 1, 0), 0))
    store.on_evict_many([(schema.base_level, 0)])
    cached.discard((schema.base_level, 0))
    for level, number in all_keys(schema):
        expected = oracle_computable(schema, cached, level, number)
        assert store.is_computable(level, number) == expected


def test_zero_tolerance_is_exact(schema, sizes):
    """No cost change is too small to propagate: one mid-level insert
    over a full base leaves every chunk at its true least cost."""
    exact = CostStore(schema, sizes)
    cached = load_base(schema, exact)
    exact.on_insert_many([((0, 1, 1), 1)])
    cached.add(((0, 1, 1), 1))
    for level, number in all_keys(schema):
        truth = oracle_min_cost(schema, sizes, cached, level, number)
        got = exact.cost(level, number)
        if math.isinf(truth):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(truth)


def test_empty_cache_all_infinite(schema, sizes):
    store = CostStore(schema, sizes)
    for level, number in all_keys(schema):
        assert not store.is_computable(level, number)
        assert store.best_parent_level(level, number) is None


def test_cached_chunk_costs_zero(schema, sizes):
    store = CostStore(schema, sizes)
    store.on_insert_many([((1, 1, 1), 0)])
    assert store.cost((1, 1, 1), 0) == 0.0
    assert store.is_cached((1, 1, 1), 0)
    assert store.best_parent_level((1, 1, 1), 0) is None


def test_full_base_costs_match_oracle(schema, sizes):
    store = CostStore(schema, sizes)
    cached = set()
    base = schema.base_level
    for n in range(schema.num_chunks(base)):
        store.on_insert_many([(base, n)])
        cached.add((base, n))
    assert_costs_match_oracle(schema, sizes, store, cached)


def test_best_parent_is_argmin(schema, sizes):
    """BestParent must point at a parent achieving the stored cost."""
    store = CostStore(schema, sizes)
    base = schema.base_level
    cached = set()
    for n in range(schema.num_chunks(base)):
        store.on_insert_many([(base, n)])
        cached.add((base, n))
    for level, number in all_keys(schema):
        if store.is_cached(level, number) or not store.is_computable(
            level, number
        ):
            continue
        parent = store.best_parent_level(level, number)
        numbers = schema.get_parent_chunk_numbers(level, number, parent)
        via = sum(
            store.cost(parent, int(n)) + sizes.chunk_tuples(parent, int(n))
            for n in numbers
        )
        assert via == pytest.approx(store.cost(level, number))


def test_inserting_nearer_ancestor_lowers_cost(schema, sizes):
    """Example 5 regime: a more immediate ancestor gives a cheaper path."""
    store = CostStore(schema, sizes)
    base = schema.base_level
    for n in range(schema.num_chunks(base)):
        store.on_insert_many([(base, n)])
    apex_cost_from_base = store.cost(schema.apex_level, 0)
    mid = (0, 1, 1)  # immediate parent of the apex on Product
    for n in range(schema.num_chunks(mid)):
        store.on_insert_many([(mid, n)])
    assert store.cost(schema.apex_level, 0) < apex_cost_from_base
    assert store.best_parent_level(schema.apex_level, 0) == (1, 0, 0) or (
        store.cost(schema.apex_level, 0) > 0
    )


def test_evict_restores_previous_costs(schema, sizes):
    store = CostStore(schema, sizes)
    base = schema.base_level
    cached = set()
    for n in range(schema.num_chunks(base)):
        store.on_insert_many([(base, n)])
        cached.add((base, n))
    snapshot = {
        key: store.cost(*key) for key in all_keys(schema)
    }
    mid = (1, 1, 0)
    store.on_insert_many([(mid, 0)])
    store.on_evict_many([(mid, 0)])
    for key in all_keys(schema):
        after = store.cost(*key)
        assert after == pytest.approx(snapshot[key])
    assert_costs_match_oracle(schema, sizes, store, cached)


def test_evicting_base_chunk_breaks_descendants(schema, sizes):
    store = CostStore(schema, sizes)
    base = schema.base_level
    cached = set()
    for n in range(schema.num_chunks(base)):
        store.on_insert_many([(base, n)])
        cached.add((base, n))
    victim = (base, 0)
    store.on_evict_many([victim])
    cached.discard(victim)
    assert_costs_match_oracle(schema, sizes, store, cached)
    assert not store.is_computable(schema.apex_level, 0)


def test_evict_uncached_raises(schema, sizes):
    store = CostStore(schema, sizes)
    with pytest.raises(ReproError):
        store.on_evict_many([(schema.base_level, 0)])


def test_update_counters(schema, sizes):
    store = CostStore(schema, sizes)
    updates = store.on_insert_many([(schema.apex_level, 0)])
    assert updates == 1
    assert store.total_updates == 1


@settings(max_examples=30, deadline=None)
@given(
    operations=st.lists(
        st.tuples(st.booleans(), st.integers(0, 10_000)),
        min_size=1,
        max_size=20,
    )
)
def test_costs_match_oracle_under_random_ops(operations):
    """The maintained Cost equals the brute-force least cost after any
    interleaving of inserts and evictions."""
    schema = apb_tiny_schema()
    sizes = SizeEstimator(schema, total_base_tuples=14)
    keys = [
        (level, number)
        for level in schema.all_levels()
        for number in range(schema.num_chunks(level))
    ]
    store = CostStore(schema, sizes)
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
    assert_costs_match_oracle(schema, sizes, store, cached)
