"""The fused plan executor against the hop-by-hop reference.

``AggregateCache._execute_plan`` aggregates a plan's cached leaves
straight to the target level (one kernel pass per distinct leaf level,
plus one same-level merge when the leaves span several levels) instead of
materialising every inner node.  SUM/COUNT are additive, so the answer
must be the reference's cells; only the rows read differ.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.manager as manager_module
from repro import (
    AggregateCache,
    BackendDatabase,
    ConcurrentAggregateCache,
    CostModel,
    generate_fact_table,
)
from repro.core.plans import PlanNode
from repro.core.strategies import STRATEGY_NAMES
from repro.schema import apb_tiny_schema
from repro.util.errors import ReproError
from tests.core.reference_executor import execute_hop_by_hop

SCHEMA = apb_tiny_schema()
ALL_KEYS = [
    (level, number)
    for level in SCHEMA.all_levels()
    for number in range(SCHEMA.num_chunks(level))
]
INT_FACTS = generate_fact_table(SCHEMA, num_tuples=300, seed=42)
# A float-valued measure: sums depend on accumulation order in the last
# digits, which is exactly where fused and hop-by-hop may differ.
FLOAT_FACTS = replace(
    INT_FACTS,
    values=INT_FACTS.values
    * np.random.default_rng(7).uniform(0.1, 1.9, INT_FACTS.num_tuples),
)
BACKENDS = {
    "int": BackendDatabase(SCHEMA, INT_FACTS, CostModel()),
    "float": BackendDatabase(SCHEMA, FLOAT_FACTS, CostModel()),
}


def manager_with(resident, strategy="vcmc", measure="int") -> AggregateCache:
    """A roomy manager holding exactly ``resident`` (no preload)."""
    backend = BACKENDS[measure]
    manager = AggregateCache(
        SCHEMA,
        backend,
        capacity_bytes=1 << 30,
        strategy=strategy,
        policy="benefit",
        preload=False,
    )
    manager._admit_wave(
        [backend.compute_chunk(level, number) for level, number in resident]
    )
    return manager


def leaf_rows(manager, execution) -> int:
    return sum(
        manager.cache.peek(*key).size_tuples for key in execution.leaf_keys
    )


@pytest.mark.parametrize("measure", ["int", "float"])
@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
@settings(max_examples=25, deadline=None)
@given(
    resident=st.sets(
        st.sampled_from(ALL_KEYS), min_size=1, max_size=len(ALL_KEYS)
    )
)
def test_fused_equals_hop_by_hop(strategy, measure, resident):
    """Random resident sets, every computable chunk: same cells, same
    leaves, and never more leaf rows than the reference reads."""
    manager = manager_with(sorted(resident), strategy, measure)
    for level, number in ALL_KEYS:
        plan = manager.strategy.find(level, number)
        if plan is None or plan.is_leaf:
            continue
        fused = manager._execute_plan(plan)
        want = execute_hop_by_hop(SCHEMA, manager.cache, plan)

        got, ref = fused.chunk, want.chunk
        assert got.key == ref.key
        assert all(
            np.array_equal(a, b) for a, b in zip(got.coords, ref.coords)
        )
        assert np.array_equal(got.counts, ref.counts)
        if measure == "int":
            assert np.array_equal(got.values, ref.values)
        else:
            assert np.allclose(got.values, ref.values, rtol=1e-12, atol=0.0)
        assert fused.leaf_keys == want.leaf_keys

        # The rows fed to the kernel: every leaf once, plus the per-level
        # partial results when a merge pass was needed.
        rows = leaf_rows(manager, fused)
        levels = len({level for level, _ in fused.leaf_keys})
        assert rows <= want.tuples_aggregated
        if levels == 1:
            assert fused.tuples_aggregated == rows
        else:
            merge_rows = fused.tuples_aggregated - rows
            assert 0 < merge_rows <= levels * max(got.size_tuples, 1)


def two_level_plan() -> PlanNode:
    """Apex from Product level 1: chunk 0 is a cached leaf, chunk 1 is
    itself aggregated from two cached Product-level-2 chunks.  The apex
    has one cell, so it is fed from both leaf levels."""
    mid, fine = (1, 0, 0), (2, 0, 0)
    return PlanNode.aggregate(
        SCHEMA.apex_level,
        0,
        mid,
        (
            PlanNode.leaf(mid, 0),
            PlanNode.aggregate(
                mid, 1, fine, (PlanNode.leaf(fine, 2), PlanNode.leaf(fine, 3))
            ),
        ),
    )


def test_leaves_on_two_levels_are_merged(monkeypatch):
    plan = two_level_plan()
    leaves = [(leaf.level, leaf.number) for leaf in plan.leaves()]
    manager = manager_with(leaves)
    calls = []
    real = manager_module.rollup_many

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(manager_module, "rollup_many", counting)
    fused = manager._execute_plan(plan)
    monkeypatch.undo()

    want = execute_hop_by_hop(SCHEMA, manager.cache, plan)
    assert fused.chunk.size_tuples == 1
    assert np.array_equal(fused.chunk.values, want.chunk.values)
    assert np.array_equal(fused.chunk.counts, want.chunk.counts)
    assert fused.chunk.total() == pytest.approx(INT_FACTS.total())
    assert fused.leaf_keys == set(leaves)
    # One pass per leaf level and one merge of the two one-cell partials.
    assert len(calls) == 3
    rows = leaf_rows(manager, fused)
    assert fused.tuples_aggregated == rows + 2


def test_evicted_leaf_raises_before_any_kernel_work(monkeypatch):
    plan = two_level_plan()
    leaves = [(leaf.level, leaf.number) for leaf in plan.leaves()]
    manager = manager_with(leaves)
    # Evict the LAST leaf: every earlier one still resolves.
    manager.cache.evict_many([leaves[-1]])
    manager.strategy.on_evict_many([leaves[-1]])

    def no_kernel(*args, **kwargs):
        raise AssertionError("kernel ran on a plan with an evicted leaf")

    monkeypatch.setattr(manager_module, "rollup_many", no_kernel)
    with pytest.raises(ReproError, match="no longer cached"):
        manager._execute_plan(plan)


def test_service_replans_a_stale_plan_then_falls_back():
    """``_materialise`` with a plan whose leaf is gone: re-plan while the
    chunk is still computable another way, backend fallback once it is
    not."""
    apex = SCHEMA.apex_level
    base = SCHEMA.base_level
    base_keys = [(base, n) for n in range(SCHEMA.num_chunks(base))]
    manager = manager_with(base_keys + [((1, 0, 0), 0), ((1, 0, 0), 1)])
    service = ConcurrentAggregateCache(manager)

    stale = manager.strategy.find(apex, 0)
    assert {leaf.level for leaf in stale.leaves()} == {(1, 0, 0)}
    victim = ((1, 0, 0), 1)
    manager.cache.evict_many([victim])
    manager.strategy.on_evict_many([victim])

    chunk, execution, _ = manager._materialise(apex, 0, stale)
    assert chunk is None and execution is not None
    assert service.replans == 1
    assert victim not in execution.leaf_keys
    assert execution.chunk.total() == pytest.approx(INT_FACTS.total())

    # Now nothing covers the apex any more.
    gone = list(manager.cache.resident_keys())
    manager.cache.evict_many(gone)
    manager.strategy.on_evict_many(gone)
    chunk, execution, _ = manager._materialise(apex, 0, stale)
    assert chunk is None and execution is None
    assert service.replans == 2
