"""Chunk addressing tests: numbering, GetParentChunkNumbers/GetChildChunkNumber."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schema import apb_tiny_schema
from repro.util.errors import SchemaError


@pytest.fixture(scope="module")
def schema():
    return apb_tiny_schema()


class TestNumbering:
    def test_coords_roundtrip_every_chunk(self, schema):
        for level in schema.all_levels():
            for number in range(schema.num_chunks(level)):
                coords = schema.chunks.chunk_coords(level, number)
                assert schema.chunks.chunk_number(level, coords) == number

    def test_row_major_order(self, schema):
        level = schema.base_level  # chunk shape (4, 2, 1)
        assert schema.chunk_shape(level) == (4, 2, 1)
        assert schema.chunks.chunk_number(level, (0, 0, 0)) == 0
        assert schema.chunks.chunk_number(level, (0, 1, 0)) == 1
        assert schema.chunks.chunk_number(level, (1, 0, 0)) == 2

    def test_out_of_range_rejected(self, schema):
        level = schema.base_level
        with pytest.raises(SchemaError):
            schema.chunks.chunk_coords(level, schema.num_chunks(level))
        with pytest.raises(SchemaError):
            schema.chunks.chunk_number(level, (4, 0, 0))
        with pytest.raises(SchemaError):
            schema.chunks.chunk_number(level, (0, 0))


class TestCrossLevelMapping:
    def test_parent_chunks_partition_each_level(self, schema):
        """The parent chunk sets of all chunks at a level exactly partition
        the parent level's chunks (closure property, multi-dimensional)."""
        for level in schema.all_levels():
            for parent in schema.parents_of(level):
                seen: list[int] = []
                for number in range(schema.num_chunks(level)):
                    seen.extend(
                        schema.get_parent_chunk_numbers(
                            level, number, parent
                        ).tolist()
                    )
                assert sorted(seen) == list(range(schema.num_chunks(parent)))

    def test_child_of_parent_roundtrip(self, schema):
        for level in schema.all_levels():
            for parent in schema.parents_of(level):
                for number in range(schema.num_chunks(level)):
                    for pn in schema.get_parent_chunk_numbers(
                        level, number, parent
                    ).tolist():
                        assert (
                            schema.get_child_chunk_number(parent, pn, level)
                            == number
                        )

    def test_mapping_to_self_is_identity(self, schema):
        level = (1, 1, 0)
        for number in range(schema.num_chunks(level)):
            assert schema.get_parent_chunk_numbers(
                level, number, level
            ).tolist() == [number]
            assert schema.get_child_chunk_number(level, number, level) == number

    def test_transitivity_through_intermediate_level(self, schema):
        """Mapping apex -> base directly equals mapping via any middle level."""
        apex, base = schema.apex_level, schema.base_level
        direct = set(
            schema.get_parent_chunk_numbers(apex, 0, base).tolist()
        )
        for mid in schema.parents_of(apex):
            via = set()
            for m in schema.get_parent_chunk_numbers(apex, 0, mid).tolist():
                via.update(
                    schema.get_parent_chunk_numbers(mid, m, base).tolist()
                )
            assert via == direct

    def test_non_ancestor_levels_rejected(self, schema):
        with pytest.raises(SchemaError):
            schema.get_parent_chunk_numbers((1, 1, 1), 0, (0, 1, 1))
        with pytest.raises(SchemaError):
            schema.get_child_chunk_number((0, 1, 1), 0, (1, 1, 1))

    def test_parent_numbers_stable_and_span_table_cached(self, schema):
        # Non-edge results are built per call from the coordinate-pattern
        # span table (no unbounded per-chunk-number result dict), so
        # repeated calls agree by value and only the span table is
        # memoised.
        a = schema.get_parent_chunk_numbers((0, 0, 0), 0, schema.base_level)
        b = schema.get_parent_chunk_numbers((0, 0, 0), 0, schema.base_level)
        assert np.array_equal(a, b)
        spans_a = schema.chunks.child_chunk_spans((0, 0, 0), schema.base_level)
        spans_b = schema.chunks.child_chunk_spans((0, 0, 0), schema.base_level)
        assert spans_a is spans_b  # memoised per (level, parent_level)

    def test_edge_parent_numbers_memoised_read_only(self, schema):
        # Immediate lattice parents (component sums one apart) share one
        # memoised read-only array; farther ancestors get a fresh one.
        level, parent = (1, 1, 0), (1, 1, 1)
        a = schema.get_parent_chunk_numbers(level, 0, parent)
        assert schema.get_parent_chunk_numbers(level, 0, parent) is a
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
        base = schema.base_level
        far = schema.get_parent_chunk_numbers((0, 0, 0), 0, base)
        assert schema.get_parent_chunk_numbers((0, 0, 0), 0, base) is not far
        assert far.flags.writeable

    def test_chunk_coords_memoised(self, schema):
        level = schema.base_level
        a = schema.chunks.chunk_coords(level, 3)
        b = schema.chunks.chunk_coords(level, 3)
        assert a is b  # memoised


class TestCellGeometry:
    def test_cell_spans_cover_level(self, schema):
        for level in schema.all_levels():
            total = 0
            for number in range(schema.num_chunks(level)):
                total += schema.chunks.chunk_cell_count(level, number)
            assert total == schema.num_cells(level)

    def test_chunk_of_cell_consistent_with_spans(self, schema):
        level = schema.base_level
        shape = schema.chunks.cell_shape(level)
        for cell in itertools.product(*(range(c) for c in shape)):
            number = schema.chunks.chunk_of_cell(level, cell)
            spans = schema.chunks.chunk_cell_spans(level, number)
            assert all(lo <= c < hi for c, (lo, hi) in zip(cell, spans))

    def test_vectorised_chunk_of_cells_matches_scalar(self, schema):
        level = schema.base_level
        shape = schema.chunks.cell_shape(level)
        cells = list(itertools.product(*(range(c) for c in shape)))
        ords = [np.array([c[d] for c in cells]) for d in range(3)]
        vec = schema.chunks.chunk_numbers_of_cells(level, ords)
        scalar = [schema.chunks.chunk_of_cell(level, c) for c in cells]
        assert vec.tolist() == scalar


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_parent_chunks_cover_exact_cells(data):
    """Property: a chunk's cells at the parent level are exactly the union
    of its parent chunks' cells (pushed down)."""
    schema = apb_tiny_schema()
    levels = list(schema.all_levels())
    level = data.draw(st.sampled_from(levels), label="level")
    parents = schema.parents_of(level)
    if not parents:
        return
    parent = data.draw(st.sampled_from(parents), label="parent")
    number = data.draw(
        st.integers(0, schema.num_chunks(level) - 1), label="number"
    )
    # Cells of the target chunk, mapped down to parent-level ordinals.
    spans = schema.chunks.chunk_cell_spans(level, number)
    fine_spans = [
        dim.fine_value_span(l, lo, hi, pl)
        for dim, l, pl, (lo, hi) in zip(
            schema.dimensions, level, parent, spans
        )
    ]
    expected = math.prod(hi - lo for lo, hi in fine_spans)
    got = sum(
        schema.chunks.chunk_cell_count(parent, int(pn))
        for pn in schema.get_parent_chunk_numbers(level, number, parent)
    )
    assert got == expected
