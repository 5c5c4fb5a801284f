"""Analytic chunk-size estimation.

Plan costs must be *deterministic* and independent of what happens to be
materialised, or VCMC's maintained ``Cost`` array would be ill-defined.
This estimator gives the expected number of occupied cells of any chunk at
any level, from just the base tuple count, assuming uniform placement
(Cardenas' formula).  The data generator samples uniformly by default, so
the estimate tracks actual sizes closely; skewed data only perturbs the
constant factors, not the orderings the experiments measure.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.schema.cube import CubeSchema, Level

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backend.generator import FactTable


class SizeEstimator:
    """Expected occupied-cell counts per chunk / per level.

    Parameters
    ----------
    schema:
        The cube schema.
    total_base_tuples:
        Number of distinct cells in the base fact table.
    """

    def __init__(self, schema: CubeSchema, total_base_tuples: int) -> None:
        self.schema = schema
        self.total_base_tuples = int(total_base_tuples)
        self._fill: dict[Level, float] = {}
        self._chunk_cells: dict[tuple[Level, int], int] = {}
        self._exact = False
        """True when ``_fill`` was calibrated from a fact table (see
        :meth:`exact`); drives how :meth:`observe_append` recalibrates."""

    @classmethod
    def exact(cls, schema: CubeSchema, facts: "FactTable") -> "SizeEstimator":
        """An estimator calibrated with the *exact* per-level sizes.

        Computes every group-by's true distinct-cell count from the fact
        table (one vectorised pass per level).  Per-chunk estimates still
        assume uniformity within the level, but level totals — which drive
        path costs — are exact.  Use this when the data is clustered or
        skewed and the analytic (uniform) fills would mislead the
        cost-based strategies.
        """
        estimator = cls(schema, facts.num_tuples)
        for level in schema.all_levels():
            estimator._fill[level] = estimator._fill_of_facts(facts, level)
        estimator._exact = True
        return estimator

    def _fill_of_facts(self, facts: "FactTable", level: Level) -> float:
        """The exact occupied-cell fraction of ``facts`` at ``level``."""
        schema = self.schema
        if level == schema.base_level:
            return facts.num_tuples / max(schema.num_cells(level), 1)
        coords = [
            dim.map_ordinals(dim.height, l, facts.coords[d])
            for d, (dim, l) in enumerate(zip(schema.dimensions, level))
        ]
        cell_shape = schema.chunks.cell_shape(level)
        # Distinct cells by sorting and counting neighbours that differ:
        # the same count as ``np.unique`` without its extra passes.
        flat = np.sort(np.ravel_multi_index(coords, cell_shape))
        distinct = int(np.count_nonzero(flat[1:] != flat[:-1])) + 1 if flat.size else 0
        return distinct / max(schema.num_cells(level), 1)

    def observe_append(
        self, facts: "FactTable", total_base_tuples: int
    ) -> None:
        """Recalibrate incrementally after a warehouse append.

        ``total_base_tuples`` is the backend's distinct-cell count AFTER
        the merge (appended cells may collide with stored ones, so it is
        not derivable from the batch alone).  Analytic fills are simply
        dropped — :meth:`level_fill` recomputes them lazily from the new
        total.  Exact fills are updated per level from the batch's own
        exact fill under the independence approximation
        ``f' = 1 - (1 - f)(1 - f_batch)`` (the expected union occupancy);
        the base level, where the union size is known exactly, is set
        exactly.
        """
        self.total_base_tuples = int(total_base_tuples)
        if not self._exact:
            self._fill.clear()
            return
        for level in list(self._fill):
            batch_fill = self._fill_of_facts(facts, level)
            if level == self.schema.base_level:
                self._fill[level] = self.total_base_tuples / max(
                    self.schema.num_cells(level), 1
                )
            else:
                old = self._fill[level]
                self._fill[level] = old + batch_fill - old * batch_fill

    def level_fill(self, level: Level) -> float:
        """Expected fraction of occupied cells at ``level``.

        ``1 - (1 - 1/C)^N`` for ``C`` cells and ``N`` base tuples thrown in
        uniformly (computed stably via log1p/expm1).
        """
        fill = self._fill.get(level)
        if fill is None:
            cells = self.schema.num_cells(level)
            if cells <= 1:
                fill = 1.0
            else:
                fill = -math.expm1(
                    self.total_base_tuples * math.log1p(-1.0 / cells)
                )
            self._fill[level] = fill
        return fill

    def chunk_tuples(self, level: Level, number: int) -> float:
        """Expected occupied cells of one chunk."""
        key = (level, number)
        cells = self._chunk_cells.get(key)
        if cells is None:
            cells = self.schema.chunks.chunk_cell_count(level, number)
            self._chunk_cells[key] = cells
        return cells * self.level_fill(level)

    def level_tuples(self, level: Level) -> float:
        """Expected occupied cells of an entire group-by."""
        return self.schema.num_cells(level) * self.level_fill(level)

    def level_bytes(self, level: Level) -> float:
        return self.level_tuples(level) * self.schema.bytes_per_tuple

    def chunk_bytes(self, level: Level, number: int) -> float:
        return self.chunk_tuples(level, number) * self.schema.bytes_per_tuple
