"""ShardRouter over real forked worker processes.

These tests exercise the pipes: field identity at one shard, batched
serving equivalence, the shared mmap warehouse path, mid-stream shard
death (both a real ``os._exit`` crash and an injected ``shard.rpc``
fault), and lifecycle.  Kept small — every router here forks processes.
"""

from __future__ import annotations

import pytest

from repro import (
    AggregateCache,
    BackendDatabase,
    ConcurrentAggregateCache,
    CostModel,
    QueryStreamGenerator,
)
from repro.faults.errors import ShardDeadError
from repro.faults.registry import FailpointRegistry
from repro.sharding import ShardRouter
from tests.helpers import COMPARED_FIELDS


def _stream(tiny_schema, n=30, seed=1133):
    return list(
        QueryStreamGenerator(tiny_schema, max_extent=3, seed=seed).generate(n)
    )


def _spawn(tiny_schema, backend, num_shards, **kwargs):
    capacity = max(int(backend.base_size_bytes * 0.6), 1) * num_shards
    return ShardRouter.spawn(
        num_shards, tiny_schema, capacity, backend=backend, **kwargs
    )


@pytest.fixture
def dict_backend(tiny_schema, tiny_facts):
    backend = BackendDatabase(tiny_schema, tiny_facts, CostModel())
    yield backend
    backend.close()


def test_one_shard_router_is_field_identical(
    tiny_schema, tiny_facts, dict_backend
):
    """The one-shard contract, over a real pipe."""
    capacity = max(int(dict_backend.base_size_bytes * 0.6), 1)
    baseline = ConcurrentAggregateCache(
        AggregateCache(tiny_schema, dict_backend, capacity)
    )
    stream = _stream(tiny_schema)
    with _spawn(tiny_schema, dict_backend, 1) as router:
        for query in stream:
            want = baseline.query(query)
            got = router.query(query)
            for name in COMPARED_FIELDS:
                assert getattr(got, name) == getattr(want, name), name
            assert [c.number for c in got.chunks] == [
                c.number for c in want.chunks
            ]
            for a, b in zip(got.chunks, want.chunks):
                assert a.cell_dict() == b.cell_dict()
        assert router.queries_run == len(stream)


def test_batched_serve_matches_sequential(tiny_schema, dict_backend):
    """Per-shard FIFO dispatch makes the batched path field-identical
    to sequential serving — same cache evolution, same counters."""
    stream = _stream(tiny_schema, n=40)
    with _spawn(tiny_schema, dict_backend, 2) as router:
        want = router.serve(stream, workers=1)
    with _spawn(tiny_schema, dict_backend, 2) as router:
        got = router.serve(stream, workers=4, batch_size=8)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in COMPARED_FIELDS:
            assert getattr(a, name) == getattr(b, name), name
        for x, y in zip(a.chunks, b.chunks):
            assert x.number == y.number
            assert x.cell_dict() == y.cell_dict()


def test_workers_share_one_mmap_warehouse(
    tiny_schema, tiny_facts, dict_backend, tmp_path
):
    store_path = str(tmp_path / "warehouse.rcol")
    warehouse = BackendDatabase(
        tiny_schema, tiny_facts, CostModel(), store="mmap",
        store_path=store_path,
    )
    try:
        stream = _stream(tiny_schema, n=15)
        capacity = max(int(warehouse.base_size_bytes * 0.6), 1)
        baseline = AggregateCache(tiny_schema, dict_backend, capacity)
        with ShardRouter.spawn(
            2, tiny_schema, capacity * 2, store_path=store_path,
            cost_model=CostModel(),
        ) as router:
            for query in stream:
                want = baseline.query(query)
                got = router.query(query)
                assert got.coverage == 1.0
                for a, b in zip(got.chunks, want.chunks):
                    assert a.cell_dict() == b.cell_dict()
            for stats in router.stats():
                assert stats["alive"]
                assert stats["queries_run"] > 0
    finally:
        warehouse.close()


def test_crashed_shard_degrades_not_fails(tiny_schema, dict_backend):
    stream = _stream(tiny_schema, n=25)
    with _spawn(tiny_schema, dict_backend, 2) as router:
        victim = router.shards[1]
        victim.crash()
        degraded = 0
        for query in stream:
            numbers = query.chunk_numbers(tiny_schema)
            owned = router.shard_map.split(query.level, numbers)
            result = router.query(query)
            if victim.index not in owned:
                assert not result.degraded
                continue
            degraded += 1
            assert result.degraded
            assert sorted(result.unanswered) == sorted(
                owned[victim.index]
            )
            answered = len(numbers) - len(owned[victim.index])
            assert result.coverage == pytest.approx(
                answered / len(numbers)
            )
        assert degraded > 0, "stream never touched the crashed shard"
        assert router.shard_deaths == 1
        assert router.alive_shards == 1
        by_shard = {s["shard"]: s for s in router.stats()}
        assert by_shard[victim.index] == {
            "shard": victim.index, "alive": False
        }
        assert by_shard[0]["alive"]


def test_injected_rpc_fault_marks_shard_dead(tiny_schema, dict_backend):
    stream = _stream(tiny_schema, n=20)
    registry = FailpointRegistry(seed=7)
    registry.fail(
        "shard.rpc",
        ShardDeadError("injected rpc fault"),
        predicate=lambda ctx, index: ctx.get("shard") == 1,
    )
    with _spawn(tiny_schema, dict_backend, 2) as router:
        with registry.armed():
            results = [router.query(query) for query in stream]
        assert router.shard_deaths == 1
        assert not router.shards[1].alive
        assert any(r.degraded for r in results)
        # Everything the surviving shard answered stays exact and the
        # degraded results report their loss honestly.
        for result in results:
            assert 0.0 <= result.coverage <= 1.0
            assert result.degraded == (result.coverage < 1.0)


def test_router_close_is_idempotent(tiny_schema, dict_backend):
    router = _spawn(tiny_schema, dict_backend, 2)
    assert router.query(_stream(tiny_schema, n=1)[0]).coverage == 1.0
    router.close()
    router.close()
    for shard in router.shards:
        assert not shard.alive
        assert not shard.process.is_alive()
    with pytest.raises(ShardDeadError):
        router.shards[0].request("stats")
