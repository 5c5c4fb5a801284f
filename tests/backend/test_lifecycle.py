"""Idempotent close() and context-manager protocol on the backend tier.

Shard workers close their backend from ``finally`` blocks *and* on
orderly shutdown, so double close must be a no-op everywhere.
"""

from __future__ import annotations

from repro import BackendDatabase, CostModel
from repro.backend.columnar import MmapColumnarStore
from repro.cache.store import ChunkCache
from repro.cache.replacement import make_policy
from tests.helpers import admit


def test_backend_close_is_idempotent(tiny_schema, tiny_facts):
    backend = BackendDatabase(tiny_schema, tiny_facts, CostModel())
    assert not backend.closed
    backend.close()
    assert backend.closed
    backend.close()
    assert backend.closed


def test_backend_context_manager(tiny_schema, tiny_facts):
    with BackendDatabase(tiny_schema, tiny_facts, CostModel()) as backend:
        assert backend.base_size_bytes > 0
        assert not backend.closed
    assert backend.closed


def test_mmap_store_close_is_idempotent(tiny_schema, tiny_facts, tmp_path):
    path = str(tmp_path / "cube.rcol")
    backend = BackendDatabase(
        tiny_schema, tiny_facts, CostModel(), store="mmap", store_path=path
    )
    backend.close()
    store = MmapColumnarStore.open(path)
    arrays = store.get(0)
    assert not store.closed
    store.close()
    assert store.closed
    store.close()
    # Arrays handed out before close stay readable (memmap holds the
    # mapping until the views die).
    assert arrays is not None


def test_mmap_store_context_manager(tiny_schema, tiny_facts, tmp_path):
    path = str(tmp_path / "cube.rcol")
    BackendDatabase(
        tiny_schema, tiny_facts, CostModel(), store="mmap", store_path=path
    ).close()
    with MmapColumnarStore.open(path) as store:
        assert not store.closed
    assert store.closed


def test_chunk_cache_close_is_idempotent(tiny_schema, tiny_facts):
    backend = BackendDatabase(tiny_schema, tiny_facts, CostModel())
    cache = ChunkCache(
        capacity_bytes=1 << 20,
        policy=make_policy("two_level"),
        bytes_per_tuple=40,
    )
    chunk = next(iter(backend.compute_level(tiny_schema.base_level)))
    admit(cache, chunk, benefit=1.0)
    with cache:
        pass
    cache.close()
    backend.close()
