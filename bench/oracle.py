"""Brute-force reference answers, straight from the fact columns.

No lattice, no chunks, no cache: a query is answered by mapping every
base fact row (the generated table plus each appended batch the query
could have seen) to the query's level through the dimension hierarchies,
keeping the rows inside the queried region, and grouping them with one
``np.unique``.  The only repo code involved is the schema's own
definition of the hierarchy (``Dimension.map_ordinals`` and the chunk
boundaries that define what region a query names).
"""

from __future__ import annotations

import numpy as np


class _Part:
    """One batch of fact rows, with its per-level ordinals memoised."""

    def __init__(self, schema, facts) -> None:
        self.schema = schema
        self.coords = facts.coords
        self.values = facts.values
        self.counts = facts.counts
        self._mapped: dict[tuple[int, int], np.ndarray] = {}

    def ordinals(self, dim_index: int, level: int) -> np.ndarray:
        key = (dim_index, level)
        mapped = self._mapped.get(key)
        if mapped is None:
            dim = self.schema.dimensions[dim_index]
            mapped = dim.map_ordinals(
                dim.height, level, self.coords[dim_index]
            )
            self._mapped[key] = mapped
        return mapped


class Oracle:
    def __init__(self, schema, facts) -> None:
        self.schema = schema
        self._parts = [_Part(schema, facts)]

    def append(self, batch) -> None:
        """Record one appended batch, in the order the waves happened."""
        self._parts.append(_Part(self.schema, batch))

    def answer(self, query, waves_seen: int):
        """``(cells, values, counts)`` of ``query`` over the base table
        plus the first ``waves_seen`` batches; ``cells`` are sorted flat
        cell indices at the query's level."""
        schema = self.schema
        level = query.level
        bounds = []
        for dim, lvl, (lo, hi) in zip(
            schema.dimensions, level, query.chunk_ranges
        ):
            bounds.append(
                (dim.chunk_range(lvl, lo)[0], dim.chunk_range(lvl, hi - 1)[1])
            )
        shape = schema.chunks.cell_shape(level)
        flats, values, counts = [], [], []
        for part in self._parts[: 1 + waves_seen]:
            axes = [part.ordinals(d, lvl) for d, lvl in enumerate(level)]
            mask = np.ones(len(part.values), dtype=bool)
            for axis, (lo, hi) in zip(axes, bounds):
                mask &= (axis >= lo) & (axis < hi)
            flats.append(
                np.ravel_multi_index([axis[mask] for axis in axes], shape)
            )
            values.append(part.values[mask])
            counts.append(part.counts[mask])
        cells, inverse = np.unique(np.concatenate(flats), return_inverse=True)
        return (
            cells,
            np.bincount(
                inverse, weights=np.concatenate(values), minlength=len(cells)
            ),
            np.bincount(
                inverse, weights=np.concatenate(counts), minlength=len(cells)
            ).astype(np.int64),
        )

    def matches(self, query, chunks, waves_seen: int) -> bool:
        """Whether ``chunks`` is exactly the answer to ``query``: one
        chunk per queried chunk number, the same cells, and every cell's
        SUM and COUNT equal.  Measures are integer-valued, so float sums
        are exact and compared with ``==``."""
        schema = self.schema
        if sorted(c.number for c in chunks) != sorted(
            query.chunk_numbers(schema)
        ):
            return False
        shape = schema.chunks.cell_shape(query.level)
        got_cells = np.concatenate(
            [np.ravel_multi_index(c.coords, shape) for c in chunks]
        )
        order = np.argsort(got_cells, kind="stable")
        cells, values, counts = self.answer(query, waves_seen)
        return (
            np.array_equal(got_cells[order], cells)
            and np.array_equal(
                np.concatenate([c.values for c in chunks])[order], values
            )
            and np.array_equal(
                np.concatenate([c.counts for c in chunks])[order], counts
            )
        )
