"""Lookup strategy tests.

The heart of the reproduction: all four strategies must agree with the
brute-force computability oracle; the cost-based ones must find true
least-cost plans; every returned plan must execute to the correct data;
and the complexity instrumentation must show the orderings the paper
claims (VCM constant-time rejects, ESMC >= ESM work, etc.).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import rollup_chunks
from repro.cache.replacement import make_policy
from repro.cache.store import ChunkCache
from repro.core.sizes import SizeEstimator
from repro.core.strategies import STRATEGY_NAMES, make_strategy
from repro.schema import apb_tiny_schema
from repro.util.errors import LookupBudgetExceeded, ReproError
from tests.helpers import (
    admit,
    direct_aggregate,
    expected_cells_in_chunk,
    oracle_computable,
    oracle_min_cost,
)

AGG_STRATEGIES = ("esm", "esmc", "vcm", "vcmc")


def fresh_setup(schema, facts):
    cache = ChunkCache(1 << 30, make_policy("benefit"), schema.bytes_per_tuple)
    sizes = SizeEstimator(schema, facts.num_tuples)
    return cache, sizes


def insert_keys(schema, backend, cache, strategies, keys):
    for level, number in keys:
        chunk = backend.compute_chunk(level, number)
        admit(cache, chunk, benefit=1.0)
        for strategy in strategies:
            strategy.on_insert_many([(level, number)])


def all_keys(schema):
    return [
        (level, number)
        for level in schema.all_levels()
        for number in range(schema.num_chunks(level))
    ]


def test_registry_names():
    assert set(STRATEGY_NAMES) == {"esm", "esmc", "vcm", "vcmc", "noagg"}


def test_unknown_strategy_rejected(tiny_schema, tiny_facts, big_cache):
    sizes = SizeEstimator(tiny_schema, tiny_facts.num_tuples)
    with pytest.raises(ReproError, match="unknown strategy"):
        make_strategy("bogus", tiny_schema, big_cache, sizes)


@pytest.mark.parametrize("name", AGG_STRATEGIES)
def test_empty_cache_nothing_computable(name, tiny_schema, tiny_facts, big_cache):
    sizes = SizeEstimator(tiny_schema, tiny_facts.num_tuples)
    strategy = make_strategy(name, tiny_schema, big_cache, sizes)
    for level, number in all_keys(tiny_schema):
        assert strategy.find(level, number) is None


@pytest.mark.parametrize("name", AGG_STRATEGIES)
def test_direct_hit_returns_leaf(name, tiny_schema, tiny_facts, tiny_backend):
    cache, sizes = fresh_setup(tiny_schema, tiny_facts)
    strategy = make_strategy(name, tiny_schema, cache, sizes)
    key = ((1, 1, 0), 1)
    insert_keys(tiny_schema, tiny_backend, cache, [strategy], [key])
    plan = strategy.find(*key)
    assert plan is not None and plan.is_leaf
    assert (plan.level, plan.number) == key


@pytest.mark.parametrize("name", AGG_STRATEGIES)
def test_agrees_with_oracle_on_partial_cache(
    name, tiny_schema, tiny_facts, tiny_backend
):
    cache, sizes = fresh_setup(tiny_schema, tiny_facts)
    strategy = make_strategy(name, tiny_schema, cache, sizes)
    base = tiny_schema.base_level
    # Cache base chunks 0..5 (of 8) plus one mid-level chunk.
    cached = {(base, n) for n in range(6)} | {((1, 1, 1), 1)}
    insert_keys(tiny_schema, tiny_backend, cache, [strategy], sorted(cached))
    for level, number in all_keys(tiny_schema):
        expected = oracle_computable(tiny_schema, cached, level, number)
        plan = strategy.find(level, number)
        assert (plan is not None) == expected, (name, level, number)


@pytest.mark.parametrize("name", AGG_STRATEGIES)
def test_plans_execute_to_ground_truth(
    name, tiny_schema, tiny_facts, tiny_backend
):
    """Any plan a strategy returns must aggregate to the right answer."""
    cache, sizes = fresh_setup(tiny_schema, tiny_facts)
    strategy = make_strategy(name, tiny_schema, cache, sizes)
    base = tiny_schema.base_level
    keys = [(base, n) for n in range(tiny_schema.num_chunks(base))]
    insert_keys(tiny_schema, tiny_backend, cache, [strategy], keys)

    def execute(node):
        if node.is_leaf:
            return cache.peek(node.level, node.number)
        inputs = [execute(child) for child in node.inputs]
        return rollup_chunks(tiny_schema, node.level, node.number, inputs)

    for level in [(0, 0, 0), (1, 0, 1), (2, 1, 0), (0, 1, 1)]:
        truth = direct_aggregate(tiny_facts, level)
        for number in range(tiny_schema.num_chunks(level)):
            plan = strategy.find(level, number)
            assert plan is not None
            chunk = execute(plan)
            expected = expected_cells_in_chunk(
                tiny_schema, truth, level, number
            )
            assert chunk.cell_dict() == pytest.approx(expected), (
                name,
                level,
                number,
            )


@pytest.mark.parametrize("name", ["esmc", "vcmc"])
def test_cost_based_plans_are_least_cost(
    name, tiny_schema, tiny_facts, tiny_backend
):
    cache, sizes = fresh_setup(tiny_schema, tiny_facts)
    strategy = make_strategy(name, tiny_schema, cache, sizes)
    base = tiny_schema.base_level
    cached = {(base, n) for n in range(tiny_schema.num_chunks(base))}
    cached |= {((1, 1, 1), n) for n in range(tiny_schema.num_chunks((1, 1, 1)))}
    insert_keys(tiny_schema, tiny_backend, cache, [strategy], sorted(cached))
    for level, number in all_keys(tiny_schema):
        plan = strategy.find(level, number)
        expected = oracle_min_cost(tiny_schema, sizes, cached, level, number)
        if plan is None:
            assert math.isinf(expected)
            continue
        assert plan.estimated_cost(sizes) == pytest.approx(expected), (
            name,
            level,
            number,
        )


def test_esm_takes_first_path_not_cheapest(tiny_schema, tiny_facts, tiny_backend):
    """ESM stops at the first successful path, which can cost more than
    the optimum — the motivation for the cost-based variants."""
    cache, sizes = fresh_setup(tiny_schema, tiny_facts)
    esm = make_strategy("esm", tiny_schema, cache, sizes)
    base = tiny_schema.base_level
    cached = {(base, n) for n in range(tiny_schema.num_chunks(base))}
    # A cheap path exists through (0,1,1), but ESM searches Product first.
    mid = (0, 1, 1)
    cached |= {(mid, n) for n in range(tiny_schema.num_chunks(mid))}
    insert_keys(tiny_schema, tiny_backend, cache, [esm], sorted(cached))
    plan = esm.find((0, 0, 0), 0)
    optimum = oracle_min_cost(tiny_schema, sizes, cached, (0, 0, 0), 0)
    assert plan.estimated_cost(sizes) > optimum


def test_vcm_rejects_in_constant_visits(tiny_schema, tiny_facts, big_cache):
    sizes = SizeEstimator(tiny_schema, tiny_facts.num_tuples)
    vcm = make_strategy("vcm", tiny_schema, big_cache, sizes)
    vcm.find(tiny_schema.apex_level, 0)
    assert vcm.last_find_visits == 1
    esm = make_strategy("esm", tiny_schema, big_cache, sizes)
    esm.find(tiny_schema.apex_level, 0)
    assert esm.last_find_visits > 10


def test_vcm_explores_one_path_when_computable(
    tiny_schema, tiny_facts, tiny_backend
):
    cache, sizes = fresh_setup(tiny_schema, tiny_facts)
    vcm = make_strategy("vcm", tiny_schema, cache, sizes)
    esm = make_strategy("esm", tiny_schema, cache, sizes)
    base = tiny_schema.base_level
    keys = [(base, n) for n in range(tiny_schema.num_chunks(base))]
    insert_keys(tiny_schema, tiny_backend, cache, [vcm, esm], keys)
    plan_vcm = vcm.find(tiny_schema.apex_level, 0)
    # One visit per plan node: VCM never explores a failing branch.
    assert vcm.last_find_visits == plan_vcm.num_nodes


def test_esmc_does_more_work_than_esm_on_warm_cache(
    tiny_schema, tiny_facts, tiny_backend
):
    cache, sizes = fresh_setup(tiny_schema, tiny_facts)
    esm = make_strategy("esm", tiny_schema, cache, sizes)
    esmc = make_strategy("esmc", tiny_schema, cache, sizes)
    base = tiny_schema.base_level
    keys = [(base, n) for n in range(tiny_schema.num_chunks(base))]
    insert_keys(tiny_schema, tiny_backend, cache, [esm, esmc], keys)
    esm.find(tiny_schema.apex_level, 0)
    esmc.find(tiny_schema.apex_level, 0)
    assert esmc.last_find_visits > esm.last_find_visits


def test_visit_budget_enforced(tiny_schema, tiny_facts, big_cache):
    sizes = SizeEstimator(tiny_schema, tiny_facts.num_tuples)
    esm = make_strategy("esm", tiny_schema, big_cache, sizes, visit_budget=5)
    with pytest.raises(LookupBudgetExceeded):
        esm.find(tiny_schema.apex_level, 0)


def test_noagg_only_direct_hits(tiny_schema, tiny_facts, tiny_backend):
    cache, sizes = fresh_setup(tiny_schema, tiny_facts)
    noagg = make_strategy("noagg", tiny_schema, cache, sizes)
    base = tiny_schema.base_level
    keys = [(base, n) for n in range(tiny_schema.num_chunks(base))]
    insert_keys(tiny_schema, tiny_backend, cache, [noagg], keys)
    assert noagg.find(base, 0).is_leaf
    assert noagg.find(tiny_schema.apex_level, 0) is None


def test_state_bytes_accounting(tiny_schema, tiny_facts, big_cache):
    sizes = SizeEstimator(tiny_schema, tiny_facts.num_tuples)
    total_chunks = tiny_schema.total_chunks()
    for name, expected in [
        ("esm", 0),
        ("esmc", 0),
        ("noagg", 0),
        ("vcm", total_chunks * 1),
        ("vcmc", total_chunks * 6),
    ]:
        strategy = make_strategy(name, tiny_schema, big_cache, sizes)
        assert strategy.state_bytes() == expected, name


def test_maintenance_consistency_after_evictions(
    tiny_schema, tiny_facts, tiny_backend
):
    """VCM/VCMC must stay oracle-consistent through insert/evict churn."""
    cache, sizes = fresh_setup(tiny_schema, tiny_facts)
    vcm = make_strategy("vcm", tiny_schema, cache, sizes)
    vcmc = make_strategy("vcmc", tiny_schema, cache, sizes)
    strategies = [vcm, vcmc]
    base = tiny_schema.base_level
    cached = set()
    keys = [(base, n) for n in range(tiny_schema.num_chunks(base))]
    insert_keys(tiny_schema, tiny_backend, cache, strategies, keys)
    cached.update(keys)
    # Evict half the base.
    for level, number in keys[::2]:
        cache.evict_many([(level, number)])
        for strategy in strategies:
            strategy.on_evict_many([(level, number)])
        cached.discard((level, number))
    for level, number in all_keys(tiny_schema):
        expected = oracle_computable(tiny_schema, cached, level, number)
        assert (vcm.find(level, number) is not None) == expected
        assert (vcmc.find(level, number) is not None) == expected


@settings(max_examples=15, deadline=None)
@given(
    picks=st.lists(st.integers(0, 10_000), min_size=1, max_size=12),
    seed=st.integers(0, 100),
)
def test_all_strategies_agree_randomised(picks, seed):
    """Property: on random cache contents every aggregation-capable
    strategy gives the same computable/not-computable verdict, and the two
    cost-based ones report the same optimal cost."""
    from repro import BackendDatabase, generate_fact_table

    schema = apb_tiny_schema()
    facts = generate_fact_table(schema, num_tuples=60, seed=seed)
    backend = BackendDatabase(schema, facts)
    cache = ChunkCache(1 << 30, make_policy("benefit"), schema.bytes_per_tuple)
    sizes = SizeEstimator(schema, facts.num_tuples)
    strategies = [
        make_strategy(name, schema, cache, sizes) for name in AGG_STRATEGIES
    ]
    keys = [
        (level, number)
        for level in schema.all_levels()
        for number in range(schema.num_chunks(level))
    ]
    cached: set = set()
    for pick in picks:
        key = keys[pick % len(keys)]
        if key in cached:
            continue
        chunk = backend.compute_chunk(*key)
        admit(cache, chunk, benefit=1.0)
        for strategy in strategies:
            strategy.on_insert_many([key])
        cached.add(key)
    probe_levels = [(0, 0, 0), (1, 1, 0), (2, 0, 1)]
    for level in probe_levels:
        for number in range(schema.num_chunks(level)):
            plans = [s.find(level, number) for s in strategies]
            verdicts = [p is not None for p in plans]
            assert len(set(verdicts)) == 1, (level, number, verdicts)
            if verdicts[0]:
                esmc_cost = plans[1].estimated_cost(sizes)
                vcmc_cost = plans[3].estimated_cost(sizes)
                assert esmc_cost == pytest.approx(vcmc_cost)
