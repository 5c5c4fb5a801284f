"""Chunk-number arithmetic across lattice levels.

Within a group-by, chunks are identified by a single integer: the row-major
linearisation of the per-dimension chunk indices.  This module implements
the two mapping primitives the paper's algorithms are built on:

* ``get_parent_chunk_numbers(level, number, parent_level)`` — the set of
  chunks at a **more detailed** level whose aggregation yields the given
  chunk (the paper's ``GetParentChunkNumbers``).
* ``get_child_chunk_number(level, number, child_level)`` — the single chunk
  at a **more aggregated** level that contains the given chunk (the paper's
  ``GetChildChunkNumber``).

Both are exact thanks to the closure property validated by
:class:`~repro.schema.dimension.Dimension`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.schema.dimension import Dimension
from repro.schema.lattice import is_computable_from, validate_level
from repro.util.errors import SchemaError

Level = tuple[int, ...]


class ChunkAddressing:
    """Chunk numbering and cross-level chunk mapping for one cube schema."""

    def __init__(self, dimensions: Sequence[Dimension]) -> None:
        self._dims = tuple(dimensions)
        self._heights = tuple(d.height for d in self._dims)
        self._shape_cache: dict[Level, tuple[int, ...]] = {}
        self._stride_cache: dict[Level, tuple[int, ...]] = {}
        self._coords_cache: dict[tuple[Level, int], tuple[int, ...]] = {}
        self._span_cache: dict[
            tuple[Level, Level], tuple[tuple[tuple[int, int], ...], ...]
        ] = {}
        self._child_table_cache: dict[tuple[Level, Level], np.ndarray] = {}
        self._edge_parents_cache: dict[tuple[Level, int, Level], np.ndarray] = {}

    @property
    def ndims(self) -> int:
        return len(self._dims)

    @property
    def heights(self) -> Level:
        return self._heights

    # ------------------------------------------------------------------ #
    # per-level geometry

    def chunk_shape(self, level: Level) -> tuple[int, ...]:
        """Per-dimension chunk counts of ``level``."""
        shape = self._shape_cache.get(level)
        if shape is None:
            validate_level(level, self._heights)
            shape = tuple(d.num_chunks(l) for d, l in zip(self._dims, level))
            self._shape_cache[level] = shape
        return shape

    def num_chunks(self, level: Level) -> int:
        return math.prod(self.chunk_shape(level))

    def _strides(self, level: Level) -> tuple[int, ...]:
        strides = self._stride_cache.get(level)
        if strides is None:
            shape = self.chunk_shape(level)
            acc = 1
            rev = []
            for extent in reversed(shape):
                rev.append(acc)
                acc *= extent
            strides = tuple(reversed(rev))
            self._stride_cache[level] = strides
        return strides

    # ------------------------------------------------------------------ #
    # number <-> coordinates

    def chunk_coords(self, level: Level, number: int) -> tuple[int, ...]:
        """Per-dimension chunk indices of chunk ``number`` at ``level``.

        Memoised: the lookup strategies and the count/cost maintenance
        decode the same chunk numbers over and over on every cache
        movement, and the domain is bounded by the schema's total chunk
        count.
        """
        key = (level, number)
        coords = self._coords_cache.get(key)
        if coords is not None:
            return coords
        shape = self.chunk_shape(level)
        total = math.prod(shape)
        if not 0 <= number < total:
            raise SchemaError(
                f"chunk number {number} out of range at level {level} "
                f"(has {total} chunks)"
            )
        coords = tuple(
            (number // stride) % extent
            for stride, extent in zip(self._strides(level), shape)
        )
        self._coords_cache[key] = coords
        return coords

    def chunk_number(self, level: Level, coords: Sequence[int]) -> int:
        """Row-major chunk number from per-dimension chunk indices."""
        shape = self.chunk_shape(level)
        if len(coords) != len(shape):
            raise SchemaError(
                f"{len(coords)} chunk coordinates for {len(shape)} dimensions"
            )
        number = 0
        for coord, stride, extent in zip(coords, self._strides(level), shape):
            if not 0 <= coord < extent:
                raise SchemaError(
                    f"chunk coordinate {coord} out of range 0..{extent - 1} "
                    f"at level {level}"
                )
            number += coord * stride
        return number

    # ------------------------------------------------------------------ #
    # cross-level mapping

    def child_chunk_spans(
        self, level: Level, parent_level: Level
    ) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-dimension child-chunk spans for every chunk coordinate.

        ``result[d][coord]`` is the half-open ``parent_level`` chunk-index
        range covering coordinate ``coord`` of dimension ``d`` at
        ``level``.  Cached per ``(level, parent_level)`` pair: the table
        size is the *sum* of per-dimension chunk counts, unlike a
        per-chunk-number cache whose footprint grows with their product.
        """
        key = (level, parent_level)
        spans = self._span_cache.get(key)
        if spans is not None:
            return spans
        if not is_computable_from(level, parent_level):
            raise SchemaError(
                f"level {parent_level} is not an ancestor of {level}"
            )
        spans = tuple(
            tuple(
                dim.child_chunk_span(l_coarse, coord, l_fine)
                for coord in range(extent)
            )
            for dim, l_coarse, l_fine, extent in zip(
                self._dims, level, parent_level, self.chunk_shape(level)
            )
        )
        self._span_cache[key] = spans
        return spans

    def get_parent_chunk_numbers(
        self, level: Level, number: int, parent_level: Level
    ) -> np.ndarray:
        """Chunk numbers at ``parent_level`` that aggregate to this chunk.

        ``parent_level`` must be at least as detailed as ``level`` in every
        dimension.  When it is an immediate lattice parent (component sums
        one apart) the result is memoised and returned as a shared
        read-only array: the lookup strategies and the count/cost
        maintenance ask for the same lattice edges over and over, and
        their number is bounded by the chunk count times the dimensions.
        Farther ancestors are built per call from the bounded span table
        (:meth:`child_chunk_spans`), so their results never accumulate.
        """
        edge = sum(parent_level) - sum(level) == 1
        if edge:
            key = (level, number, parent_level)
            cached = self._edge_parents_cache.get(key)
            if cached is not None:
                return cached
        spans = self.child_chunk_spans(level, parent_level)
        coords = self.chunk_coords(level, number)
        numbers = np.zeros(1, dtype=np.int64)
        for per_coord, coord, stride in zip(
            spans, coords, self._strides(parent_level)
        ):
            first, last = per_coord[coord]
            span = np.arange(first, last, dtype=np.int64) * stride
            numbers = (numbers[:, None] + span[None, :]).ravel()
        if edge:
            numbers.flags.writeable = False
            self._edge_parents_cache[key] = numbers
        return numbers

    def child_chunk_table(self, level: Level, child_level: Level) -> np.ndarray:
        """For every chunk number at ``level``, the number of the chunk at
        the more aggregated ``child_level`` containing it.  Built once per
        pair in a single pass and returned read-only."""
        key = (level, child_level)
        table = self._child_table_cache.get(key)
        if table is None:
            # Per dimension, the child chunk index of every chunk index at
            # ``level``: the span table lists each child index's covering
            # range, and by the closure property the ranges tile the axis.
            table = np.zeros(1, dtype=np.int64)
            for per_coord, stride in zip(
                self.child_chunk_spans(child_level, level),
                self._strides(child_level),
            ):
                widths = [last - first for first, last in per_coord]
                child = np.repeat(
                    np.arange(len(per_coord), dtype=np.int64) * stride, widths
                )
                table = (table[:, None] + child[None, :]).ravel()
            table.flags.writeable = False
            self._child_table_cache[key] = table
        return table

    def get_child_chunk_number(
        self, level: Level, number: int, child_level: Level
    ) -> int:
        """The chunk at the more aggregated ``child_level`` containing this
        one (a :meth:`child_chunk_table` lookup)."""
        table = self.child_chunk_table(level, child_level)
        if not 0 <= number < table.size:
            raise SchemaError(
                f"chunk number {number} out of range at level {level} "
                f"(has {table.size} chunks)"
            )
        return table.item(number)

    # ------------------------------------------------------------------ #
    # cell geometry

    def chunk_cell_spans(
        self, level: Level, number: int
    ) -> tuple[tuple[int, int], ...]:
        """Per-dimension half-open ordinal ranges covered by the chunk."""
        coords = self.chunk_coords(level, number)
        return tuple(
            dim.chunk_range(l, coord)
            for dim, l, coord in zip(self._dims, level, coords)
        )

    def chunk_cell_count(self, level: Level, number: int) -> int:
        """Number of cells (occupied or not) inside the chunk."""
        return math.prod(hi - lo for lo, hi in self.chunk_cell_spans(level, number))

    def cell_shape(self, level: Level) -> tuple[int, ...]:
        """Per-dimension cardinalities of ``level``."""
        return tuple(d.cardinality(l) for d, l in zip(self._dims, level))

    def num_cells(self, level: Level) -> int:
        return math.prod(self.cell_shape(level))

    def chunk_of_cell(self, level: Level, cell: Sequence[int]) -> int:
        """Chunk number containing the cell with the given ordinals."""
        coords = [
            dim.chunk_of_value(l, ordinal)
            for dim, l, ordinal in zip(self._dims, level, cell)
        ]
        return self.chunk_number(level, coords)

    def chunk_numbers_of_cells(
        self, level: Level, ordinals: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Vectorised ``chunk_of_cell`` for parallel ordinal arrays."""
        total = None
        for dim, l, ords, stride in zip(
            self._dims, level, ordinals, self._strides(level)
        ):
            bounds = dim.chunk_boundaries(l)
            idx = np.searchsorted(bounds, ords, side="right") - 1
            part = idx.astype(np.int64) * stride
            total = part if total is None else total + part
        assert total is not None
        return total
