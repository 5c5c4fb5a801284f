"""Router merge semantics: disjoint union, AVG recomposition, death.

Everything here runs in-process over :class:`LocalShard` — no worker
processes — with ``serialize=True`` where noted so the partials round-
trip through the exact bytes a :class:`ProcessShard` would move.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import (
    AggregateCache,
    BackendDatabase,
    ConcurrentAggregateCache,
    CostModel,
    Query,
    QueryStreamGenerator,
)
from repro.adaptive import AVG, COUNT, SUM, aggregate_answer
from repro.faults.errors import ShardDeadError
from repro.sharding import (
    LocalShard,
    ShardPartial,
    ShardRouter,
    WorkerSpec,
    build_shard_service,
    merge_partials,
)


def _service(tiny_schema, tiny_facts, fraction=2.0):
    backend = BackendDatabase(tiny_schema, tiny_facts, CostModel())
    capacity = max(int(backend.base_size_bytes * fraction), 1)
    return ConcurrentAggregateCache(
        AggregateCache(tiny_schema, backend, capacity)
    )


def _local_router(tiny_schema, tiny_facts, num_shards, serialize=True):
    backend = BackendDatabase(tiny_schema, tiny_facts, CostModel())
    capacity = max(int(backend.base_size_bytes * 2.0), 1)
    shards = [
        LocalShard(
            index,
            build_shard_service(
                WorkerSpec(
                    index=index,
                    num_shards=num_shards,
                    schema=tiny_schema,
                    capacity_bytes=capacity,
                    backend=backend,
                )
            ),
            serialize=serialize,
        )
        for index in range(num_shards)
    ]
    return ShardRouter(shards, tiny_schema)


def _base_query(tiny_schema):
    ranges = tuple(
        (0, extent)
        for extent in tiny_schema.chunk_shape(tiny_schema.base_level)
    )
    return Query(level=tiny_schema.base_level, chunk_ranges=ranges)


def _stream(tiny_schema, n=40, seed=4242):
    return list(
        QueryStreamGenerator(tiny_schema, max_extent=3, seed=seed).generate(n)
    )


def test_merge_with_no_partials_is_fully_degraded(tiny_schema):
    query = _base_query(tiny_schema)
    numbers = query.chunk_numbers(tiny_schema)
    result = merge_partials(query, numbers, [], dead_numbers=numbers)
    assert result.degraded
    assert not result.complete_hit
    assert result.coverage == 0.0
    assert result.chunks == []
    assert tuple(result.unanswered) == tuple(numbers)


def test_merge_single_partial_is_field_identical(tiny_schema, tiny_facts):
    """All cells on one shard: the merge must degenerate to identity."""
    service = _service(tiny_schema, tiny_facts)
    query = _base_query(tiny_schema)
    numbers = query.chunk_numbers(tiny_schema)
    own = service.query_subset(query, numbers)
    merged = merge_partials(
        query, numbers, [ShardPartial.from_result(0, own)]
    )
    for name in (
        "complete_hit", "direct_hits", "aggregated", "from_backend",
        "tuples_aggregated", "lookup_visits", "state_updates",
        "reinforcements_skipped", "degraded", "coverage",
    ):
        assert getattr(merged, name) == getattr(own, name), name
    assert tuple(merged.unanswered) == tuple(own.unanswered)
    assert [c.number for c in merged.chunks] == [
        c.number for c in own.chunks
    ]


def test_merge_orders_cells_by_plan_not_by_arrival(tiny_schema, tiny_facts):
    service = _service(tiny_schema, tiny_facts)
    query = _base_query(tiny_schema)
    numbers = query.chunk_numbers(tiny_schema)
    split = len(numbers) // 2
    first = service.query_subset(query, numbers[:split])
    second = service.query_subset(query, numbers[split:])
    merged = merge_partials(
        query,
        numbers,
        # Deliberately out of plan order.
        [
            ShardPartial.from_result(1, second),
            ShardPartial.from_result(0, first),
        ],
    )
    assert [c.number for c in merged.chunks] == list(numbers)
    assert merged.coverage == 1.0
    assert not merged.degraded


def test_merge_lists_unanswered_in_plan_order(tiny_schema, tiny_facts):
    """Two degraded partials arriving out of plan order, plus a dead
    slice between them: ``unanswered`` follows the plan, not arrival."""
    service = _service(tiny_schema, tiny_facts)
    query = _base_query(tiny_schema)
    numbers = list(query.chunk_numbers(tiny_schema))
    third = len(numbers) // 3
    head, middle, tail = (
        numbers[:third], numbers[third:2 * third], numbers[2 * third:]
    )

    def degraded(shard, part):
        own = ShardPartial.from_result(
            shard, service.query_subset(query, part)
        )
        return replace(
            own, chunks=[], complete_hit=False, degraded=True,
            coverage=0.0, unanswered=tuple(part),
        )

    merged = merge_partials(
        query,
        numbers,
        [degraded(2, tail), degraded(0, head)],
        dead_numbers=middle,
    )
    assert tuple(merged.unanswered) == tuple(numbers)
    assert merged.degraded
    assert merged.coverage == 0.0


@pytest.mark.parametrize("aggregate", (SUM, COUNT, AVG))
def test_aggregates_recompose_across_shards(
    tiny_schema, tiny_facts, aggregate
):
    """AVG from summed SUM/COUNT across shard partials must equal the
    unsharded answer — the additive-merge contract."""
    baseline = _service(tiny_schema, tiny_facts)
    router = _local_router(tiny_schema, tiny_facts, num_shards=3)
    for query in _stream(tiny_schema, n=25):
        want = aggregate_answer(baseline.query(query).chunks, aggregate)
        result, got = router.aggregate(query, aggregate)
        assert not result.degraded
        assert got == pytest.approx(want, rel=1e-12, abs=1e-9)


def test_local_router_matches_unsharded_service(tiny_schema, tiny_facts):
    baseline = _service(tiny_schema, tiny_facts)
    router = _local_router(tiny_schema, tiny_facts, num_shards=2)
    for query in _stream(tiny_schema):
        want = baseline.query(query)
        got = router.query(query)
        assert got.coverage == 1.0
        assert [c.number for c in got.chunks] == [
            c.number for c in want.chunks
        ]
        for a, b in zip(got.chunks, want.chunks):
            assert a.cell_dict() == b.cell_dict()


def test_dead_shard_slices_surface_as_exact_partials(
    tiny_schema, tiny_facts
):
    """A dead shard's chunks land in ``unanswered`` with plan-relative
    coverage; everything returned stays exact (PR 5 semantics)."""
    baseline = _service(tiny_schema, tiny_facts)
    router = _local_router(tiny_schema, tiny_facts, num_shards=2)
    victim = router.shards[1]

    def dead_rpc(query, numbers, timeout_s=None, contract=None):
        raise ShardDeadError("injected: shard 1 stopped answering")

    victim.query_partial = dead_rpc

    hit_dead = 0
    for query in _stream(tiny_schema):
        numbers = query.chunk_numbers(tiny_schema)
        dead_slice = [
            n
            for n in numbers
            if router.shard_map.owner(query.level, n) == victim.index
        ]
        want = baseline.query(query)
        got = router.query(query)
        if not dead_slice:
            assert not got.degraded
            assert got.coverage == 1.0
            continue
        hit_dead += 1
        assert got.degraded
        assert not got.complete_hit
        assert sorted(got.unanswered) == sorted(dead_slice)
        answered = [n for n in numbers if n not in set(dead_slice)]
        assert got.coverage == pytest.approx(
            len(answered) / len(numbers)
        )
        assert [c.number for c in got.chunks] == answered
        want_cells = {c.number: c.cell_dict() for c in want.chunks}
        for chunk in got.chunks:
            assert chunk.cell_dict() == want_cells[chunk.number]
    assert hit_dead > 0, "stream never touched the dead shard"
    assert router.shard_deaths == 1


def test_batched_serve_matches_per_query_path(tiny_schema, tiny_facts):
    stream = _stream(tiny_schema, n=30)
    sequential = _local_router(tiny_schema, tiny_facts, num_shards=2)
    want = [sequential.query(q) for q in stream]
    batched = _local_router(tiny_schema, tiny_facts, num_shards=2)
    got = batched.serve(stream, workers=4, batch_size=8)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.complete_hit == b.complete_hit
        assert a.coverage == b.coverage
        assert [c.number for c in a.chunks] == [c.number for c in b.chunks]
        for x, y in zip(a.chunks, b.chunks):
            assert x.cell_dict() == y.cell_dict()
