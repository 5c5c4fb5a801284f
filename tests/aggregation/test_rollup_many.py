"""Property tests: ``rollup_many`` ≡ per-target ``rollup_chunks``.

The batched kernel combines many targets into one group-by pass over a
``(target, cell)`` key space; these tests check that the combination is
invisible — every output chunk is field-for-field (bit-for-bit) identical
to aggregating its target alone — across random schemas, level pairs,
target sets and sparse source chunks, including the degenerate shapes
(no targets, targets with no sources, all-empty source chunks).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import rollup_chunks, rollup_many
from repro.chunks.chunk import Chunk, ChunkOrigin
from repro.obs import Observability
from repro.schema import CubeSchema, Dimension, apb_tiny_schema
from repro.util.errors import ChunkAlignmentError, ReproError
from tests.helpers import assert_chunks_identical


@st.composite
def random_schema(draw):
    """A random small uniform cube, sometimes with an extra measure."""
    ndims = draw(st.integers(1, 3))
    dims = []
    for i in range(ndims):
        height = draw(st.integers(1, 3))
        cards = [1]
        for _ in range(height):
            cards.append(cards[-1] * draw(st.integers(1, 3)))
        chunks = []
        for card in cards:
            divisors = [d for d in range(1, card + 1) if card % d == 0]
            chunks.append(draw(st.sampled_from(divisors)))
        try:
            dims.append(Dimension.uniform(f"D{i}", cards, chunks))
        except ChunkAlignmentError:
            dims.append(Dimension.uniform(f"D{i}", cards, cards))
    measures = ("Sales", "Cost") if draw(st.booleans()) else ("Sales",)
    return CubeSchema(dims, measure=measures, bytes_per_tuple=12)


@st.composite
def random_source_chunk(draw, schema, level, number):
    """A sparse chunk at ``(level, number)`` with unique in-span cells and
    integer-valued measures (exact under any summation order)."""
    spans = schema.chunks.chunk_cell_spans(level, number)
    max_cells = 1
    for lo, hi in spans:
        max_cells *= hi - lo
    k = draw(st.integers(0, min(4, max_cells)))
    cells = draw(
        st.sets(
            st.tuples(*(st.integers(lo, hi - 1) for lo, hi in spans)),
            min_size=k,
            max_size=k,
        )
    )
    ordered = sorted(cells)
    n = len(ordered)
    coords = tuple(
        np.array([cell[d] for cell in ordered], dtype=np.int64)
        for d in range(len(spans))
    )
    values = np.array(
        draw(
            st.lists(
                st.integers(-100, 100), min_size=n, max_size=n
            )
        ),
        dtype=np.float64,
    )
    counts = np.array(
        draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    extras = tuple(
        np.array(
            draw(
                st.lists(st.integers(-100, 100), min_size=n, max_size=n)
            ),
            dtype=np.float64,
        )
        for _ in range(schema.num_extra_measures)
    )
    return Chunk(
        level=level,
        number=number,
        coords=coords,
        values=values,
        counts=counts,
        extras=extras,
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rollup_many_matches_per_target_rollup(data):
    schema = data.draw(random_schema(), label="schema")
    levels = list(schema.all_levels())
    target_level = data.draw(st.sampled_from(levels), label="target_level")
    detailed = [
        l
        for l in levels
        if all(s >= t for s, t in zip(l, target_level))
    ]
    source_level = data.draw(st.sampled_from(detailed), label="source_level")

    num_targets = schema.num_chunks(target_level)
    targets = data.draw(
        st.lists(
            st.integers(0, num_targets - 1),
            min_size=0,
            max_size=min(4, num_targets),
            unique=True,
        ),
        label="targets",
    )
    sources_per_target = []
    for number in targets:
        covering = schema.get_parent_chunk_numbers(
            target_level, number, source_level
        ).tolist()
        picked = data.draw(
            st.lists(
                st.sampled_from(covering),
                min_size=0,
                max_size=min(3, len(covering)),
                unique=True,
            ),
            label=f"sources[{number}]",
        )
        sources_per_target.append(
            [
                data.draw(
                    random_source_chunk(schema, source_level, sn),
                    label=f"chunk[{number},{sn}]",
                )
                for sn in picked
            ]
        )

    batched = rollup_many(schema, target_level, targets, sources_per_target)
    assert len(batched) == len(targets)
    for number, sources, got in zip(targets, sources_per_target, batched):
        want = rollup_chunks(schema, target_level, number, sources)
        assert_chunks_identical(got, want)


def test_empty_target_list():
    schema = apb_tiny_schema()
    assert rollup_many(schema, (0, 0, 0), [], []) == []


def test_target_with_no_sources_is_empty_chunk():
    schema = apb_tiny_schema()
    [chunk] = rollup_many(schema, (0, 0, 0), [0], [[]])
    assert chunk.is_empty
    assert chunk.level == (0, 0, 0) and chunk.number == 0
    assert chunk.compute_cost == 0.0
    assert len(chunk.coords) == 3
    assert len(chunk.extras) == schema.num_extra_measures


def test_all_empty_source_chunks():
    schema = apb_tiny_schema()
    base = schema.base_level
    empties = [Chunk.empty(base, n, ndims=3) for n in (0, 1)]
    covering = schema.get_parent_chunk_numbers((0, 0, 0), 0, base).tolist()
    assert all(n in covering for n in (0, 1))
    [chunk] = rollup_many(schema, (0, 0, 0), [0], [empties])
    assert chunk.is_empty
    # Empty sources still count toward the work the kernel had to inspect.
    assert chunk.compute_cost == 0.0


def test_mixed_source_levels_rejected():
    schema = apb_tiny_schema()
    base = schema.base_level
    fine = Chunk.empty(base, 0, ndims=3)
    coarse = Chunk.empty((1, 1, 1), 0, ndims=3)
    with pytest.raises(ReproError, match="share one level"):
        rollup_many(schema, (0, 0, 0), [0], [[fine, coarse]])


def test_downward_aggregation_rejected():
    schema = apb_tiny_schema()
    coarse = Chunk.empty((0, 0, 0), 0, ndims=3)
    with pytest.raises(ReproError, match="more\\s+detailed"):
        rollup_many(schema, schema.base_level, [0], [[coarse]])


def test_origin_is_applied_to_every_output():
    schema = apb_tiny_schema()
    out = rollup_many(
        schema,
        (0, 0, 0),
        [0],
        [[]],
        origin=ChunkOrigin.BACKEND,
    )
    assert out[0].origin is ChunkOrigin.BACKEND


def test_non_uniform_chunk_widths_fall_back_to_global_keys():
    """Targets with unequal span widths can't share a chunk-local key
    shape; the kernel's level-global fallback must still match the
    per-target path exactly."""
    dim = Dimension(
        "D0",
        cardinalities=[1, 4],
        parent_maps=[None, [0, 0, 0, 0]],
        chunk_boundaries=[[0, 1], [0, 1, 4]],  # widths 1 and 3
    )
    schema = CubeSchema([dim], bytes_per_tuple=12)
    level = (1,)
    sources_per_target = [
        [
            Chunk(
                level=level,
                number=0,
                coords=(np.array([0], dtype=np.int64),),
                values=np.array([5.0]),
                counts=np.array([2], dtype=np.int64),
            )
        ],
        [
            Chunk(
                level=level,
                number=1,
                coords=(np.array([1, 3], dtype=np.int64),),
                values=np.array([1.0, 7.0]),
                counts=np.array([1, 4], dtype=np.int64),
            )
        ],
    ]
    batched = rollup_many(schema, level, [0, 1], sources_per_target)
    for number, sources, got in zip([0, 1], sources_per_target, batched):
        want = rollup_chunks(schema, level, number, sources)
        assert_chunks_identical(got, want)


def test_batched_call_metrics():
    schema = apb_tiny_schema()
    obs = Observability.in_memory()
    rollup_many(schema, (0, 0, 0), [0], [[]], obs=obs)
    rollup_many(schema, (0, 0, 0), [0], [[]], obs=obs)
    assert obs.metrics.counter("aggregation.batched_calls").value == 2
