"""Regressions for three hot-path bugs found in the seed.

1. ``preload_levels`` judged a level complete from per-chunk membership
   checks taken mid-loop, missing evictions caused by later inserts of the
   same level.
2. ``_check_within_chunk`` trusted endpoint checks on dimensions whose
   coordinate arrays ``unravel_index`` does not sort (every dimension but
   the first), letting out-of-chunk cells slip through.
3. ``_slice_chunk`` returned the cache-resident chunk object itself when
   the selection mask was all-true, aliasing cache state to callers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import AggregateCache, BackendDatabase, CostModel
from repro.aggregation.aggregate import _check_within_chunk
from repro.chunks.chunk import Chunk
from repro.util.errors import ReproError


# --------------------------------------------------------------------- #
# 1. eviction during preload


def test_preload_levels_detects_eviction_within_level(
    tiny_schema, tiny_facts
):
    backend = BackendDatabase(tiny_schema, tiny_facts, CostModel())
    level = tiny_schema.base_level
    chunks = backend.compute_level(level)
    sizes = [c.size_bytes(tiny_schema.bytes_per_tuple) for c in chunks]
    nonzero = [s for s in sizes if s > 0]
    assert len(nonzero) >= 2, "test needs a level with several chunks"
    # Room for all but one chunk: the loop's later inserts must evict an
    # earlier chunk of the same level.
    capacity = sum(nonzero) - min(nonzero)
    manager = AggregateCache(
        tiny_schema,
        backend,
        capacity_bytes=capacity,
        policy="benefit",
        preload=False,
    )
    loaded = manager.preload_levels([level])
    assert loaded == [], "an incompletely resident level reported loaded"
    # some chunk of the level must indeed be missing
    missing = [
        c.number
        for c in chunks
        if not manager.cache.contains(level, c.number)
    ]
    assert missing


def test_preload_levels_reports_levels_that_fully_fit(
    tiny_schema, tiny_facts
):
    backend = BackendDatabase(tiny_schema, tiny_facts, CostModel())
    level = tiny_schema.base_level
    manager = AggregateCache(
        tiny_schema, backend, capacity_bytes=1 << 20, preload=False
    )
    loaded = manager.preload_levels([level])
    assert loaded == [level]
    for number in range(tiny_schema.num_chunks(level)):
        assert manager.cache.contains(level, number)


def test_preload_levels_detects_cross_level_eviction(
    tiny_schema, tiny_facts
):
    """A later level's inserts can also evict an earlier level's chunks;
    completeness must be judged after everything is in."""
    backend = BackendDatabase(tiny_schema, tiny_facts, CostModel())
    first, second = (1, 1, 1), tiny_schema.base_level
    per_tuple = tiny_schema.bytes_per_tuple
    first_bytes = sum(
        c.size_bytes(per_tuple) for c in backend.compute_level(first)
    )
    second_sizes = [
        c.size_bytes(per_tuple) for c in backend.compute_level(second)
    ]
    capacity = first_bytes + sum(second_sizes) - min(
        s for s in second_sizes if s > 0
    )
    manager = AggregateCache(
        tiny_schema,
        backend,
        capacity_bytes=capacity,
        policy="benefit",
        preload=False,
    )
    loaded = manager.preload_levels([first, second])
    for level in loaded:
        for number in range(tiny_schema.num_chunks(level)):
            assert manager.cache.contains(level, number), (
                f"level {level} reported loaded but chunk {number} is gone"
            )


# --------------------------------------------------------------------- #
# 2. out-of-chunk cells on unsorted dimensions


def _chunk_with_offset_span(schema, level):
    """A chunk of ``level`` whose dim-1 span starts above ordinal 0."""
    for number in range(schema.num_chunks(level)):
        spans = schema.chunks.chunk_cell_spans(level, number)
        if spans[1][0] > 0:
            return number, spans
    pytest.skip("schema has no chunk offset on dimension 1")


def test_check_within_chunk_catches_unsorted_dimension(tiny_schema):
    level = (1, 1, 1)
    number, spans = _chunk_with_offset_span(tiny_schema, level)
    (p_lo, _), (c_lo, _), (t_lo, _) = spans
    # Dimension 1's endpoints sit inside the span while a middle cell
    # falls below it — only a full min/max check can see the violation.
    chunk = Chunk(
        level=level,
        number=number,
        coords=(
            np.array([p_lo, p_lo, p_lo], dtype=np.int64),
            np.array([c_lo, c_lo - 1, c_lo], dtype=np.int64),
            np.array([t_lo, t_lo, t_lo], dtype=np.int64),
        ),
        values=np.ones(3),
        counts=np.ones(3, dtype=np.int64),
    )
    with pytest.raises(ReproError, match="dimension 1"):
        _check_within_chunk(chunk, spans)


def test_check_within_chunk_accepts_in_range_cells(tiny_schema):
    level = (1, 1, 1)
    number, spans = _chunk_with_offset_span(tiny_schema, level)
    coords = tuple(
        np.array([lo], dtype=np.int64) for lo, _ in spans
    )
    chunk = Chunk(
        level=level,
        number=number,
        coords=coords,
        values=np.ones(1),
        counts=np.ones(1, dtype=np.int64),
    )
    _check_within_chunk(chunk, spans)  # must not raise


# --------------------------------------------------------------------- #
# 3. range-query aliasing


def test_range_query_never_aliases_cached_chunks(tiny_schema, tiny_facts):
    backend = BackendDatabase(tiny_schema, tiny_facts, CostModel())
    manager = AggregateCache(
        tiny_schema, backend, capacity_bytes=1 << 20, preload=False
    )
    level = (1, 1, 1)
    full = tuple(
        (0, extent) for extent in tiny_schema.chunks.cell_shape(level)
    )
    for _ in range(2):  # first from the backend, then from the cache
        result = manager.range_query(level, full)
        for chunk in result.chunks:
            cached = manager.cache.peek(chunk.level, chunk.number)
            if cached is not None:
                assert chunk is not cached, (
                    "range_query handed out a cache-resident chunk object"
                )


def test_range_query_result_mutation_cannot_corrupt_cache(
    tiny_schema, tiny_facts
):
    backend = BackendDatabase(tiny_schema, tiny_facts, CostModel())
    manager = AggregateCache(
        tiny_schema, backend, capacity_bytes=1 << 20, preload=False
    )
    level = (1, 1, 1)
    full = tuple(
        (0, extent) for extent in tiny_schema.chunks.cell_shape(level)
    )
    result = manager.range_query(level, full)
    chunk = result.chunks[0]
    cached = manager.cache.peek(chunk.level, chunk.number)
    assert cached is not None
    original_cost = cached.compute_cost
    chunk.compute_cost = -123.0
    chunk.number = 10_000
    assert cached.compute_cost == original_cost
    assert cached.number != 10_000
    # data arrays may remain shared (read-only by contract)
    assert chunk.values is cached.values
