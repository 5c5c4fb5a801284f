"""AggregateCache (middle tier) tests: the full query path."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AggregateCache,
    BackendDatabase,
    CostModel,
    Query,
    QueryStreamGenerator,
    generate_fact_table,
)
from repro.core.costs import BEST_NONE
from repro.schema import apb_tiny_schema
from repro.util.errors import ReproError
from tests.helpers import direct_aggregate, expected_cells_in_chunk


@pytest.fixture
def manager(tiny_schema, tiny_backend):
    return AggregateCache(
        tiny_schema,
        tiny_backend,
        capacity_bytes=1 << 20,
        strategy="vcmc",
        policy="two_level",
    )


def query_answer_cells(schema, result):
    cells = {}
    for chunk in result.chunks:
        cells.update(chunk.cell_dict())
    return cells


class TestCorrectness:
    @pytest.mark.parametrize("strategy", ["esm", "esmc", "vcm", "vcmc", "noagg"])
    def test_every_strategy_answers_correctly(
        self, strategy, tiny_schema, tiny_backend, tiny_facts
    ):
        manager = AggregateCache(
            tiny_schema, tiny_backend, capacity_bytes=1 << 20, strategy=strategy
        )
        for level in [(0, 0, 0), (1, 1, 0), (2, 1, 1), (0, 1, 1)]:
            truth = direct_aggregate(tiny_facts, level)
            result = manager.query(Query.full_level(tiny_schema, level))
            assert query_answer_cells(tiny_schema, result) == pytest.approx(
                truth
            ), (strategy, level)

    def test_partial_region_answers_correctly(
        self, manager, tiny_schema, tiny_facts
    ):
        level = tiny_schema.base_level
        query = Query(level, ((1, 3), (0, 2), (0, 1)))
        truth = direct_aggregate(tiny_facts, level)
        result = manager.query(query)
        expected = {}
        for number in query.chunk_numbers(tiny_schema):
            expected.update(
                expected_cells_in_chunk(tiny_schema, truth, level, number)
            )
        assert query_answer_cells(tiny_schema, result) == pytest.approx(expected)

    def test_repeated_query_is_complete_hit(self, manager, tiny_schema):
        query = Query.full_level(tiny_schema, (1, 0, 1))
        manager.query(query)
        second = manager.query(query)
        assert second.complete_hit
        assert second.from_backend == 0

    def test_preload_makes_descendants_complete_hits(
        self, manager, tiny_schema
    ):
        # Capacity is huge, so the whole base table is preloaded.
        assert manager.preloaded_level == tiny_schema.base_level
        result = manager.query(Query.full_level(tiny_schema, (0, 0, 0)))
        assert result.complete_hit
        assert result.aggregated == 1
        assert result.from_backend == 0


class TestAccounting:
    def test_breakdown_fields_populated(self, manager, tiny_schema):
        result = manager.query(Query.full_level(tiny_schema, (0, 1, 0)))
        b = result.breakdown
        assert b.lookup_ms >= 0 and b.aggregate_ms >= 0 and b.update_ms >= 0
        assert b.backend_ms == 0.0  # complete hit after preload
        assert result.total_ms == pytest.approx(b.total_ms)

    def test_miss_charges_backend(self, tiny_schema, tiny_backend):
        manager = AggregateCache(
            tiny_schema,
            tiny_backend,
            capacity_bytes=1 << 20,
            strategy="noagg",
            policy="benefit",
            preload=False,
        )
        result = manager.query(Query.full_level(tiny_schema, (0, 0, 0)))
        assert not result.complete_hit
        assert result.from_backend == 1
        assert (
            result.breakdown.backend_ms
            >= tiny_backend.cost_model.connection_overhead_ms
        )

    def test_hit_counters(self, manager, tiny_schema):
        result = manager.query(Query.full_level(tiny_schema, tiny_schema.base_level))
        assert result.direct_hits == result.query.num_chunks
        assert result.aggregated == 0
        assert manager.complete_hit_ratio == 1.0

    def test_tuples_aggregated_counted(self, manager, tiny_schema, tiny_facts):
        result = manager.query(Query.full_level(tiny_schema, (0, 0, 0)))
        # A (possibly multi-step) plan over the preloaded base reads every
        # base tuple at least once.
        assert result.tuples_aggregated >= tiny_facts.num_tuples

    def test_lookup_visits_reported(self, manager, tiny_schema):
        result = manager.query(Query.full_level(tiny_schema, (0, 0, 0)))
        assert result.lookup_visits >= 1


class TestCachingBehaviour:
    def test_computed_chunks_are_admitted(self, manager, tiny_schema):
        query = Query.full_level(tiny_schema, (0, 0, 0))
        manager.query(query)
        assert manager.cache.contains((0, 0, 0), 0)

    def test_second_query_cheaper_than_first(self, tiny_schema, tiny_backend):
        manager = AggregateCache(
            tiny_schema,
            tiny_backend,
            capacity_bytes=1 << 20,
            strategy="vcmc",
            preload=False,
        )
        query = Query.full_level(tiny_schema, (1, 1, 1))
        first = manager.query(query)
        second = manager.query(query)
        assert first.breakdown.backend_ms > 0
        assert second.breakdown.backend_ms == 0.0

    def test_no_preload_flag(self, tiny_schema, tiny_backend):
        manager = AggregateCache(
            tiny_schema, tiny_backend, capacity_bytes=1 << 20, preload=False
        )
        assert manager.preloaded_level is None
        assert len(manager.cache) == 0

    def test_tiny_cache_still_correct(self, tiny_schema, tiny_backend, tiny_facts):
        manager = AggregateCache(
            tiny_schema,
            tiny_backend,
            capacity_bytes=60,  # 3 tuples worth of space
            strategy="vcmc",
        )
        truth = direct_aggregate(tiny_facts, (0, 0, 0))
        result = manager.query(Query.full_level(tiny_schema, (0, 0, 0)))
        assert query_answer_cells(tiny_schema, result) == pytest.approx(truth)

    def test_describe(self, manager):
        text = manager.describe()
        assert "vcmc" in text and "two_level" in text

    def test_check_invariants_names_the_violation(self, manager, tiny_schema):
        manager.query(Query.full_level(tiny_schema, (1, 1, 0)))
        manager.check_invariants()

        manager.cache.used_bytes += 1
        with pytest.raises(ReproError, match="byte accounting"):
            manager.check_invariants()
        manager.cache.used_bytes -= 1

        counts = manager.strategy.counts.counts_array(tiny_schema.base_level)
        counts[0] += 1
        with pytest.raises(ReproError, match="count maintenance"):
            manager.check_invariants()
        counts[0] -= 1
        manager.check_invariants()

        costs = manager.strategy.costs
        apex = tiny_schema.apex_level
        assert costs.is_computable(apex, 0) and not costs.is_cached(apex, 0)
        cost = costs.cost_array(apex)
        original = cost[0]
        cost[0] = original + 1.0
        with pytest.raises(ReproError, match="cost maintenance violated"):
            manager.check_invariants()
        cost[0] = original
        manager.check_invariants()

        best = costs.best_array(apex)
        best[0] = BEST_NONE if best[0] != BEST_NONE else 0
        with pytest.raises(ReproError, match="cost maintenance violated"):
            manager.check_invariants()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000), strategy=st.sampled_from(["vcm", "vcmc", "esm"]))
def test_stream_always_answers_ground_truth(seed, strategy):
    """Property: over a random query stream with a small, churning cache,
    every answer equals direct aggregation of the fact table."""
    schema = apb_tiny_schema()
    facts = generate_fact_table(schema, num_tuples=120, seed=seed)
    backend = BackendDatabase(schema, facts, CostModel())
    manager = AggregateCache(
        schema,
        backend,
        capacity_bytes=facts.size_bytes // 2 + 20,
        strategy=strategy,
        policy="two_level",
    )
    gen = QueryStreamGenerator(schema, seed=seed)
    truths: dict = {}
    for query in gen.generate(15):
        if query.level not in truths:
            truths[query.level] = direct_aggregate(facts, query.level)
        result = manager.query(query)
        expected = {}
        for number in query.chunk_numbers(schema):
            expected.update(
                expected_cells_in_chunk(
                    schema, truths[query.level], query.level, number
                )
            )
        assert query_answer_cells(schema, result) == pytest.approx(expected)
