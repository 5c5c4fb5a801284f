"""ChunkStore interface tests: membership masks, copy-on-write, parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AggregateCache,
    BackendDatabase,
    CostModel,
    QueryStreamGenerator,
    generate_fact_table,
)
from repro.backend.chunkstore import DictChunkStore, make_chunk_store
from repro.util.errors import ReproError
from tests.helpers import assert_chunks_identical


@pytest.fixture
def base_chunks(tiny_backend):
    """The tiny backend's clustered base chunks, as a plain dict."""
    store = tiny_backend.store
    return {int(n): store.get(int(n)) for n in store.numbers}


def make_store(kind, schema, chunks):
    return make_chunk_store(
        kind,
        chunks,
        level=schema.base_level,
        ndims=schema.ndims,
        num_extras=schema.num_extra_measures,
    )


# --------------------------------------------------------------------- #
# stored_mask edge cases


def test_stored_mask_empty_store():
    store = DictChunkStore.from_chunks({})
    mask = store.stored_mask(np.array([0, 3, 7], dtype=np.int64))
    assert mask.dtype == bool
    assert not mask.any()


def test_stored_mask_empty_query(tiny_backend):
    mask = tiny_backend.store.stored_mask(np.empty(0, dtype=np.int64))
    assert mask.shape == (0,)


def test_stored_mask_all_miss(tiny_schema, base_chunks):
    store = DictChunkStore.from_chunks(base_chunks)
    beyond = int(store.numbers.max()) + 1
    queries = np.array([beyond, beyond + 5, beyond + 99], dtype=np.int64)
    assert not store.stored_mask(queries).any()


@pytest.mark.parametrize("kind", ["dict", "mmap"])
def test_stored_mask_duplicate_queries(kind, tiny_schema, base_chunks):
    store = make_store(kind, tiny_schema, base_chunks)
    present = int(store.numbers[0])
    absent = int(store.numbers.max()) + 1
    queries = np.array(
        [present, present, absent, present, absent], dtype=np.int64
    )
    mask = store.stored_mask(queries)
    # Positional, not set-like: every occurrence answered independently.
    assert mask.tolist() == [True, True, False, True, False]
    store.close()


@pytest.mark.parametrize("kind", ["dict", "mmap"])
def test_stored_mask_matches_get(kind, tiny_schema, base_chunks):
    store = make_store(kind, tiny_schema, base_chunks)
    universe = np.arange(int(store.numbers.max()) + 2, dtype=np.int64)
    mask = store.stored_mask(universe)
    for number, stored in zip(universe, mask):
        assert (store.get(int(number)) is not None) == bool(stored)
    store.close()


# --------------------------------------------------------------------- #
# dict/mmap parity


def test_get_parity(tiny_schema, base_chunks):
    mmap_store = make_store("mmap", tiny_schema, base_chunks)
    assert np.array_equal(
        mmap_store.numbers, sorted(int(n) for n in base_chunks)
    )
    for number, want in base_chunks.items():
        got = mmap_store.get(number)
        assert got.level == want.level and got.number == want.number
        for a, b in zip(got.coords, want.coords):
            assert np.array_equal(a, b)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.counts, want.counts)
        for a, b in zip(got.extras, want.extras):
            assert np.array_equal(a, b)
    mmap_store.close()


def test_scan_parity(tiny_schema, base_chunks):
    dict_store = make_store("dict", tiny_schema, base_chunks)
    mmap_store = make_store("mmap", tiny_schema, base_chunks)
    d_coords, d_values, d_counts, d_extras = dict_store.scan_columns()
    m_coords, m_values, m_counts, m_extras = mmap_store.scan_columns()
    for a, b in zip(d_coords, m_coords):
        assert np.array_equal(a, b)
    assert np.array_equal(d_values, m_values)
    assert np.array_equal(d_counts, m_counts)
    for a, b in zip(d_extras, m_extras):
        assert np.array_equal(a, b)
    mmap_store.close()


def test_answers_do_not_depend_on_the_store(tiny_schema, tiny_facts):
    """The same facts behind either store: every chunk of every level
    fetched from the backend, and every answer of a seeded paper-mix
    stream served through a churning cache, is bit-identical."""
    backends = [
        BackendDatabase(tiny_schema, tiny_facts, CostModel(), store=kind)
        for kind in ("dict", "mmap")
    ]
    for level in tiny_schema.all_levels():
        requests = [(level, n) for n in range(tiny_schema.num_chunks(level))]
        (got, _), (want, _) = (b.fetch(requests) for b in backends)
        assert len(got) == len(want) == len(requests)
        for a, b in zip(got, want):
            assert_chunks_identical(a, b)

    managers = [
        AggregateCache(
            tiny_schema, backend, capacity_bytes=backend.base_size_bytes // 2
        )
        for backend in backends
    ]
    stream = QueryStreamGenerator(tiny_schema, max_extent=2, seed=8832)
    from_backend = 0
    for query in stream.generate(40):
        got, want = (m.query(query) for m in managers)
        assert got.from_backend == want.from_backend
        from_backend += got.from_backend
        assert len(got.chunks) == len(want.chunks) == query.num_chunks
        for a, b in zip(got.chunks, want.chunks):
            assert_chunks_identical(a, b)
    assert from_backend > 0, "the stream never reached the stores"
    for backend in backends:
        backend.close()


# --------------------------------------------------------------------- #
# copy-on-write generations


@pytest.mark.parametrize("kind", ["dict", "mmap"])
def test_with_changes_leaves_old_generation_intact(
    kind, tiny_schema, tiny_facts
):
    backend = BackendDatabase(
        tiny_schema, tiny_facts, CostModel(), store=kind
    )
    old = backend.store
    old_numbers = old.numbers.copy()
    old_values = {
        int(n): old.get(int(n)).values.copy() for n in old_numbers
    }

    wave = generate_fact_table(tiny_schema, num_tuples=80, seed=911)
    backend.apply_append(wave)
    new = backend.store

    assert new is not old
    assert new.generation == old.generation + 1
    # The pre-append snapshot still answers exactly as before.
    assert np.array_equal(old.numbers, old_numbers)
    for number, values in old_values.items():
        assert np.array_equal(old.get(number).values, values)
    # The successor reflects the append (total grew by the wave).
    new_total = sum(
        float(new.get(int(n)).values.sum()) for n in new.numbers
    )
    old_total = sum(values.sum() for values in old_values.values())
    assert new_total == pytest.approx(old_total + wave.total())
    backend.close()


def test_with_changes_empty_is_noop(tiny_schema, base_chunks):
    store = DictChunkStore.from_chunks(base_chunks)
    assert store.with_changes({}) is store


# --------------------------------------------------------------------- #
# factory


def test_make_chunk_store_unknown_kind(tiny_schema, base_chunks):
    with pytest.raises(ReproError, match="unknown chunk store kind"):
        make_store("redis", tiny_schema, base_chunks)


@pytest.mark.parametrize("kind", ["dict", "mmap"])
def test_backend_reports_store_kind(kind, tiny_schema, tiny_facts):
    backend = BackendDatabase(
        tiny_schema, tiny_facts, CostModel(), store=kind
    )
    assert backend.store_kind == kind
    assert backend.store.kind == kind
    backend.close()
