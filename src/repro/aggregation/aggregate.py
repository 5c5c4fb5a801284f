"""Aggregating chunks across lattice levels.

The closure property guarantees that a chunk at an aggregated level is the
exact aggregation of a known set of chunks at any more detailed level.
:func:`rollup_many` performs that aggregation for a whole *batch* of target
chunks in one pass: every source row is tagged with its target-chunk id,
the combined ``(target, cell)`` key is grouped once (one
``ravel_multi_index`` + ``np.bincount`` sweep — dense over the chunk-local
key space when it is small, ``np.unique``-based otherwise), and the
grouped output is split back into per-target :class:`Chunk` payloads.
:func:`rollup_chunks` is the single-target wrapper every historical caller
uses — both spellings execute the same kernel.

The kernel is vectorised with numpy: this is the "aggregation time" the
paper measures, so it must be fast relative to the simulated backend.
Batching is what removes the per-target overheads (per-call concatenation,
per-call ``np.unique``) that otherwise dominate multi-chunk roll-ups; see
``docs/perf.md`` for measured numbers.

Output validation (the :func:`_check_within_chunk` min/max sweep) is a
sanity check on the *caller's* plan, not on the kernel, and it taxes the
measured aggregation time.  It defaults on, and benchmark-harness runs
turn it off via :func:`set_default_validation`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.chunks.chunk import Chunk, ChunkOrigin
from repro.schema.cube import CubeSchema, Level
from repro.util.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability

_VALIDATE_DEFAULT = True
"""Module-wide default for output validation (``validate=None`` calls)."""


def set_default_validation(enabled: bool) -> bool:
    """Set the module-wide validation default; returns the previous value.

    Tests keep this on (``tests/conftest.py``); the benchmark harness turns
    it off around measured sections so the sanity sweep does not tax the
    reported aggregation time.
    """
    global _VALIDATE_DEFAULT
    previous = _VALIDATE_DEFAULT
    _VALIDATE_DEFAULT = bool(enabled)
    return previous


def default_validation() -> bool:
    """The current module-wide validation default."""
    return _VALIDATE_DEFAULT


def rollup_chunks(
    schema: CubeSchema,
    target_level: Level,
    target_number: int,
    sources: Sequence[Chunk],
    origin: ChunkOrigin = ChunkOrigin.CACHE_COMPUTED,
    validate: bool | None = None,
) -> Chunk:
    """Aggregate ``sources`` into the chunk ``target_number`` of ``target_level``.

    All sources must be at a single level at least as detailed as
    ``target_level`` in every dimension, and together they must cover the
    target chunk exactly (the caller — a lookup strategy's plan — is
    responsible for supplying the right set; this is checked cheaply).

    Returns a new :class:`Chunk` whose ``compute_cost`` is the number of
    source tuples aggregated (the paper's linear cost metric).

    This is a thin wrapper over :func:`rollup_many` with one target, so
    every caller and test exercises the batched kernel.
    """
    return rollup_many(
        schema,
        target_level,
        (target_number,),
        (sources,),
        origin=origin,
        validate=validate,
    )[0]


def rollup_many(
    schema: CubeSchema,
    target_level: Level,
    target_numbers: Sequence[int],
    sources_per_target: Sequence[Sequence[Chunk]],
    origin: ChunkOrigin = ChunkOrigin.CACHE_COMPUTED,
    validate: bool | None = None,
    obs: "Observability | None" = None,
) -> list[Chunk]:
    """Aggregate many target chunks of one level in a single grouped pass.

    ``sources_per_target[i]`` are the source chunks whose aggregation
    yields chunk ``target_numbers[i]`` of ``target_level``.  Every source
    chunk across the whole batch must share one level (at least as
    detailed as ``target_level`` in every dimension).  The returned list
    is parallel to ``target_numbers``; each chunk's ``compute_cost`` is
    its own source-tuple count, exactly as :func:`rollup_chunks` reports.

    The batch is computed in ONE kernel invocation: all source rows are
    concatenated, tagged with their target index, mapped to target-level
    ordinals through the precomputed per-dimension lookup tables, grouped
    by the combined ``(target, cell)`` key, and split back per target.
    Per-target outputs are bit-identical to sequential
    :func:`rollup_chunks` calls: within a target, rows keep their source
    order, so each output cell's float accumulation order is unchanged.
    """
    num_targets = len(target_numbers)
    if len(sources_per_target) != num_targets:
        raise ReproError(
            f"rollup_many: {num_targets} target numbers but "
            f"{len(sources_per_target)} source sets"
        )
    if num_targets == 0:
        return []
    if validate is None:
        validate = _VALIDATE_DEFAULT

    source_level: Level | None = None
    for sources in sources_per_target:
        for chunk in sources:
            if source_level is None:
                source_level = chunk.level
            elif chunk.level != source_level:
                raise ReproError(
                    f"rollup sources must share one level; got {chunk.level} "
                    f"and {source_level}"
                )
    if source_level is not None:
        for t, s in zip(target_level, source_level):
            if t > s:
                raise ReproError(
                    f"cannot aggregate level {source_level} into the more "
                    f"detailed level {target_level}"
                )

    tuples_in = [sum(c.size_tuples for c in sources) for sources in sources_per_target]

    # Non-empty sources, flattened in (target, source-order) order.  The
    # target tag is the *position* in the active-target list, so the
    # grouped keys come back sorted by active position.
    tagged: list[tuple[int, Chunk]] = []
    active: list[int] = []
    for t, sources in enumerate(sources_per_target):
        nonempty = [c for c in sources if not c.is_empty]
        if not nonempty:
            continue
        position = len(active)
        active.append(t)
        tagged.extend((position, c) for c in nonempty)

    results: list[Chunk | None] = [None] * num_targets
    total_rows = 0
    if tagged:
        num_extras = len(tagged[0][1].extras)
        row_counts = np.array([c.size_tuples for _, c in tagged], dtype=np.int64)
        tags = np.repeat(
            np.array([pos for pos, _ in tagged], dtype=np.int64), row_counts
        )
        total_rows = int(row_counts.sum())
        merged_coords = [
            np.concatenate([c.coords[d] for _, c in tagged])
            for d in range(schema.ndims)
        ]
        values = np.concatenate([c.values for _, c in tagged])
        counts = np.concatenate([c.counts for _, c in tagged])
        merged_extras = [
            np.concatenate([c.extras[m] for _, c in tagged])
            for m in range(num_extras)
        ]

        # Map source-level ordinals down to target-level ordinals per
        # dimension — a single precomputed-table fancy-index each.
        target_coords = [
            dim.map_ordinals(src_l, tgt_l, ords)
            for dim, src_l, tgt_l, ords in zip(
                schema.dimensions, source_level, target_level, merged_coords
            )
        ]

        # Combined key space.  When every active target's chunk has the
        # same span widths (always true for uniformly chunked dimensions),
        # keys are built from *chunk-local* cell coordinates: the space is
        # then ``A * cells_per_chunk`` instead of ``A * num_cells(level)``,
        # usually small enough for a dense ``np.bincount`` sweep — O(rows)
        # instead of the O(rows log rows) sort inside ``np.unique``.
        # Subtracting each span's low is a per-dimension monotone shift,
        # so local keys sort exactly like global ones and the output order
        # (and float accumulation order) is unchanged.
        spans_per_active = [
            schema.chunks.chunk_cell_spans(target_level, target_numbers[t])
            for t in active
        ]
        widths = tuple(hi - lo for lo, hi in spans_per_active[0])
        local = all(
            tuple(hi - lo for lo, hi in spans) == widths
            for spans in spans_per_active[1:]
        )
        if local:
            cell_shape = widths
            num_cells = math.prod(cell_shape)
            # flat = tag*num_cells + Σ_d (coord_d - low_d[tag]) * stride_d.
            # The span lows fold into one per-target adjustment, so the
            # key build is a Horner sweep over the (freshly allocated)
            # mapped coordinates plus a single small-table gather —
            # instead of one low_d[tags] gather per dimension.
            strides = [1] * schema.ndims
            for d in range(schema.ndims - 2, -1, -1):
                strides[d] = strides[d + 1] * cell_shape[d + 1]
            adjust = np.array(
                [
                    position * num_cells
                    - sum(
                        spans[d][0] * strides[d]
                        for d in range(schema.ndims)
                    )
                    for position, spans in enumerate(spans_per_active)
                ],
                dtype=np.int64,
            )
            flat = target_coords[0] * strides[0]
            for d in range(1, schema.ndims):
                axis = target_coords[d]
                flat += axis * strides[d] if strides[d] != 1 else axis
            flat += adjust[tags]
            space = len(active) * num_cells
            if len(flat) and (flat.min() < 0 or flat.max() >= space):
                raise ReproError(
                    f"aggregated cells fall outside chunk span at level "
                    f"{target_level}: the plan's sources did not match "
                    "the target chunks"
                )
        else:  # non-uniform chunk widths: fall back to level-global keys
            cell_shape = schema.chunks.cell_shape(target_level)
            num_cells = math.prod(cell_shape)
            try:
                flat = np.ravel_multi_index(
                    (tags, *target_coords), (len(active), *cell_shape)
                )
            except ValueError:
                raise ReproError(
                    f"aggregated cells fall outside chunk span at level "
                    f"{target_level}: the plan's sources did not match "
                    "the target chunks"
                ) from None
            space = len(active) * num_cells
        if space <= max(1 << 16, 4 * total_rows) and space <= 1 << 22:
            # Dense path: one bincount per measure over the whole space.
            occupancy = np.bincount(flat, minlength=space)
            unique_flat = np.nonzero(occupancy)[0]
            summed = np.bincount(flat, weights=values, minlength=space)[
                unique_flat
            ]
            summed_counts = np.bincount(
                flat, weights=counts, minlength=space
            )[unique_flat].astype(np.int64)
            summed_extras = [
                np.bincount(flat, weights=extra, minlength=space)[
                    unique_flat
                ].astype(np.float64)
                for extra in merged_extras
            ]
        else:
            unique_flat, inverse = np.unique(flat, return_inverse=True)
            summed = np.bincount(
                inverse, weights=values, minlength=len(unique_flat)
            )
            summed_counts = np.bincount(
                inverse, weights=counts, minlength=len(unique_flat)
            ).astype(np.int64)
            summed_extras = [
                np.bincount(
                    inverse, weights=extra, minlength=len(unique_flat)
                ).astype(np.float64)
                for extra in merged_extras
            ]

        # Split the grouped output back per target: the combined key is
        # position * num_cells + cell, so each active target owns one
        # contiguous, cell-sorted slice of the unique keys.
        boundaries = np.searchsorted(
            unique_flat, np.arange(len(active) + 1, dtype=np.int64) * num_cells
        )
        summed = summed.astype(np.float64)
        for position, t in enumerate(active):
            lo, hi = int(boundaries[position]), int(boundaries[position + 1])
            cells = unique_flat[lo:hi] - position * num_cells
            out_coords = tuple(
                axis.astype(np.int64)
                for axis in np.unravel_index(cells, cell_shape)
            )
            if local:
                out_coords = tuple(
                    axis + span[0]
                    for axis, span in zip(
                        out_coords, spans_per_active[position]
                    )
                )
            results[t] = Chunk(
                level=target_level,
                number=target_numbers[t],
                coords=out_coords,
                values=summed[lo:hi],
                counts=summed_counts[lo:hi],
                origin=origin,
                extras=tuple(extra[lo:hi] for extra in summed_extras),
            )
            if validate:
                _check_within_chunk(results[t], spans_per_active[position])

    for t in range(num_targets):
        chunk = results[t]
        if chunk is None:
            chunk = Chunk.empty(
                target_level,
                target_numbers[t],
                schema.ndims,
                origin,
                num_extras=schema.num_extra_measures,
            )
            results[t] = chunk
        chunk.compute_cost = float(tuples_in[t])

    if obs is not None and obs.enabled:
        obs.metrics.counter("aggregation.batched_calls").inc()
        obs.metrics.histogram("aggregation.rows_per_pass").observe(total_rows)
    return results  # type: ignore[return-value]


def _check_within_chunk(
    chunk: Chunk, spans: Sequence[tuple[int, int]]
) -> None:
    """Cheap sanity check: every output cell lies inside ``spans``, the
    target chunk's per-dimension cell spans."""
    if chunk.is_empty:
        return
    for d, (lo, hi) in enumerate(spans):
        axis = chunk.coords[d]
        # unravel_index sorts only dimension 0's ordinals, so the cheap
        # endpoint test is conclusive there alone; every other dimension
        # needs the full min/max scan.
        if d == 0 and lo <= axis[0] and axis[-1] < hi:
            continue
        if axis.min() < lo or axis.max() >= hi:
            raise ReproError(
                f"aggregated cells fall outside chunk {chunk.number} of "
                f"level {chunk.level} on dimension {d}: the plan's "
                "sources did not match the target chunk"
            )
