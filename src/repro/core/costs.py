"""Cost and best-parent maintenance for VCMC (Section 5.2 of the paper).

For every chunk, VCMC maintains:

* ``Cost`` — the least cost of computing the chunk from the cache (0 when
  the chunk is directly cached, +inf when not computable).  Cost is the
  paper's linear metric: the number of tuples aggregated along the path,
  summed recursively, using the deterministic size estimator.
* ``BestParent`` — which lattice parent the least-cost path goes through:
  the *first* least-cost parent in ``schema.parents_of(level)`` order.

Both are a pure function of the resident set, so maintenance is exact:
after any sequence of waves the arrays are bit-identical to a store
rebuilt from the resident set in one wave.

Every cache movement is a wave (:meth:`CostStore.on_insert_many` /
:meth:`CostStore.on_evict_many`; a single movement is a wave of one).  A
wave writes its direct effects first — an inserted chunk gets cost 0 and
``BEST_CACHED``, an evicted chunk becomes dirty — then walks the levels
most detailed first and settles each dirty chunk **at most once**, with
every parent level already final.  Only the component sums that hold
dirty chunks are visited, so a wave costs what it touches.  A dirty chunk
carries the set of its parent indices whose chunks changed:

* in an insert wave costs can only fall, so the new cost is the minimum
  of the old one and the paths through the changed parents;
* in an evict wave costs can only rise, so a chunk whose ``BestParent``
  did not change keeps its state, and only one whose best path did is
  re-minimised over all its parents.

A chunk marks its children dirty only when its cost really changed
(exact ``!=``).  This covers both of the paper's trigger cases (newly
computable, and cheaper/costlier path) plus eviction-induced increases,
which the paper handles in its (omitted) delete algorithm.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence

import numpy as np

from repro.core.counts import most_detailed_first
from repro.core.sizes import SizeEstimator
from repro.schema.cube import CubeSchema, Level
from repro.util.errors import ReproError

#: sentinel ``BestParent`` values
BEST_NONE = -1     # not computable
BEST_CACHED = -2   # directly present in the cache

_Option = tuple[tuple[int, ...], float]


class CostStore:
    """``Cost`` / ``BestParent`` arrays plus their maintenance wave."""

    def __init__(self, schema: CubeSchema, sizes: SizeEstimator) -> None:
        self.schema = schema
        self.sizes = sizes
        self._keys: list[tuple[Level, int]] = []
        """Every chunk in one flat index: level blocks, chunk numbers
        within.  The wave works on flat indices; the per-level arrays
        below are views of the flat ones."""
        self._offset: dict[Level, int] = {}
        for level in schema.all_levels():
            self._offset[level] = len(self._keys)
            self._keys.extend((level, n) for n in range(schema.num_chunks(level)))
        total = len(self._keys)
        self._flat_cost = np.full(total, np.inf, dtype=np.float64)
        self._flat_best = np.full(total, BEST_NONE, dtype=np.int16)
        self._flat_cached = np.zeros(total, dtype=bool)
        self._cost: dict[Level, np.ndarray] = {}
        self._best: dict[Level, np.ndarray] = {}
        self._cached: dict[Level, np.ndarray] = {}
        for level, start in self._offset.items():
            block = slice(start, start + schema.num_chunks(level))
            self._cost[level] = self._flat_cost[block]
            self._best[level] = self._flat_best[block]
            self._cached[level] = self._flat_cached[block]
        self._parents: dict[Level, list[Level]] = {
            level: schema.parents_of(level) for level in schema.all_levels()
        }
        self._options: dict[int, tuple[_Option, ...]] = {}
        """Per chunk, one ``(parent chunk indices, aggregation cost)`` per
        parent index — built from ``sizes``, so :meth:`recalibrate` drops
        it."""
        self._children: dict[int, tuple[tuple[int, int], ...]] = {}
        self.total_updates = 0
        """Lifetime number of chunks whose (cost, best parent) changed."""
        self._lock = threading.Lock()
        """Serialises maintenance waves (mirrors CountStore's lock)."""

    # ------------------------------------------------------------------ #
    # queries

    def cost(self, level: Level, number: int) -> float:
        """Least cost (estimated tuples aggregated) to compute the chunk.

        This is the instantaneous answer the paper highlights as valuable
        for a cost-based optimizer deciding cache-vs-backend.
        """
        return float(self._cost[level][number])

    def is_computable(self, level: Level, number: int) -> bool:
        return bool(np.isfinite(self._cost[level][number]))

    def is_cached(self, level: Level, number: int) -> bool:
        return bool(self._cached[level][number])

    def best_parent_level(self, level: Level, number: int) -> Level | None:
        """The parent level of the least-cost path.

        ``None`` when the chunk is directly cached or not computable —
        check :meth:`is_cached` / :meth:`is_computable` to distinguish.
        """
        best = int(self._best[level][number])
        if best < 0:
            return None
        return self._parents[level][best]

    def num_entries(self) -> int:
        return sum(arr.size for arr in self._cost.values())

    def cost_array(self, level: Level) -> np.ndarray:
        """One level's ``Cost`` entries (diagnostics/tests)."""
        return self._cost[level]

    def best_array(self, level: Level) -> np.ndarray:
        """One level's ``BestParent`` entries (diagnostics/tests)."""
        return self._best[level]

    # ------------------------------------------------------------------ #
    # maintenance

    def on_insert_many(self, keys: Sequence[tuple[Level, int]]) -> int:
        """A wave of chunks entered the cache.  Returns the number of
        chunks whose (cost, best parent) changed."""
        with self._lock:
            return self._settle(keys, insert=True)

    def on_evict_many(self, keys: Sequence[tuple[Level, int]]) -> int:
        """A wave of chunks left the cache (mirror of ``on_insert_many``).
        Raises before changing anything if a key is not cached."""
        with self._lock:
            for level, number in keys:
                if not self._cached[level][number]:
                    raise ReproError(
                        f"evicting chunk {number} of level {level} which the "
                        "cost store does not believe is cached"
                    )
            return self._settle(keys, insert=False)

    def recalibrate(self, resident_keys: Sequence[tuple[Level, int]]) -> int:
        """Rebuild the whole cost surface after the size estimator moved.

        A warehouse append recalibrates :attr:`sizes`
        (:meth:`SizeEstimator.observe_append`), which silently invalidates
        every memoised aggregation cost and every maintained ``Cost``
        entry derived from the old fills.  This drops the size-derived
        option memo and re-derives cost/best-parent state from scratch for
        exactly ``resident_keys`` in one insertion wave.  Returns the
        updates applied.
        """
        with self._lock:
            self._options.clear()
            self._flat_cost.fill(np.inf)
            self._flat_best.fill(BEST_NONE)
            self._flat_cached.fill(False)
            return self._settle(resident_keys, insert=True)

    # ------------------------------------------------------------------ #
    # internals

    def _settle(self, keys: Sequence[tuple[Level, int]], insert: bool) -> int:
        """One single-sign wave: direct effects, then one lattice-order
        pass settling each dirty chunk at most once.

        ``dirty[sum(level)][chunk]`` is a bit mask of the parent indices
        whose chunks changed cost; a sum is present only while it holds
        dirty chunks.  A directly evicted chunk is dirty with an empty
        mask: its ``BEST_CACHED`` pointer forces a re-minimisation.  A
        lattice edge lowers the component sum by one, so by the time the
        walk reaches a chunk every parent level has settled.
        """
        dirty: dict[int, dict[int, int]] = {}
        costs, bests, cached = self._flat_cost, self._flat_best, self._flat_cached
        updates = 0
        for level, number in keys:
            chunk = self._offset[level] + number
            if insert:
                cached[chunk] = True
                old_cost = costs.item(chunk)
                if old_cost == 0.0 and bests[chunk] == BEST_CACHED:
                    continue
                costs[chunk] = 0.0
                bests[chunk] = BEST_CACHED
                updates += 1
                if old_cost != 0.0:
                    self._mark_children(chunk, dirty, sum(level) - 1)
            else:
                cached[chunk] = False
                dirty.setdefault(sum(level), {}).setdefault(chunk, 0)
        for level_sum, wave in most_detailed_first(dirty):
            for chunk, changed in wave.items():
                if cached[chunk]:
                    # A cached chunk stays at cost 0 whatever its parents do.
                    continue
                old_cost = costs.item(chunk)
                old_best = bests.item(chunk)
                if insert:
                    # Costs only fell: the old optimum against the changed
                    # parents' paths, the lower index winning a tie.
                    cost, best = old_cost, old_best
                    options = self._chunk_options(chunk)
                    idx = 0
                    while changed:
                        if changed & 1:
                            via = self._via(options[idx])
                            if via < cost or (via == cost and idx < best):
                                cost, best = via, idx
                        changed >>= 1
                        idx += 1
                elif old_best == BEST_CACHED or (
                    old_best >= 0 and (changed >> old_best) & 1
                ):
                    cost, best = self._best_option(self._chunk_options(chunk))
                else:
                    # Costs only rose and the best path is untouched: it
                    # is still the first least-cost one.
                    continue
                if cost == old_cost and best == old_best:
                    continue
                costs[chunk] = cost
                bests[chunk] = best
                updates += 1
                if cost != old_cost:
                    self._mark_children(chunk, dirty, level_sum - 1)
        self.total_updates += updates
        return updates

    def _chunk_options(self, chunk: int) -> tuple[_Option, ...]:
        """Memoised ``(parent chunk indices, aggregation cost)`` per
        parent index; the aggregation cost is the estimated tuples read
        when aggregating those parent chunks — the per-step cost of the
        paper's linear model."""
        options = self._options.get(chunk)
        if options is None:
            level, number = self._keys[chunk]
            chunk_tuples = self.sizes.chunk_tuples
            built = []
            for parent in self._parents[level]:
                numbers = self.schema.get_parent_chunk_numbers(
                    level, number, parent
                ).tolist()
                start = self._offset[parent]
                built.append((
                    tuple(start + n for n in numbers),
                    float(sum(chunk_tuples(parent, n) for n in numbers)),
                ))
            options = self._options[chunk] = tuple(built)
        return options

    def _via(self, option: _Option) -> float:
        """Cost of computing a chunk through one specific parent.  Plain
        floats: lattice edges map to one or two parent chunks, where a
        numpy gather costs several times the arithmetic."""
        parents, agg_cost = option
        cost = self._flat_cost.item
        total = 0.0
        for parent in parents:
            total += cost(parent)
        return total + agg_cost

    def _best_option(self, options: tuple[_Option, ...]) -> tuple[float, int]:
        """First least cost over all parents (the chunk is not cached)."""
        best_cost = np.inf
        best_idx = BEST_NONE
        for idx, option in enumerate(options):
            via = self._via(option)
            if via < best_cost:
                best_cost = via
                best_idx = idx
        return best_cost, best_idx

    def _mark_children(
        self, chunk: int, dirty: dict[int, dict[int, int]], child_sum: int
    ) -> None:
        """Flag every child of a chunk whose cost changed, recording which
        of the child's parent indices the change arrived through.  The
        children sit one lattice edge down, at component sum
        ``child_sum``."""
        entries = self._children.get(chunk)
        if entries is None:
            level, number = self._keys[chunk]
            entries = self._children[chunk] = tuple(
                (
                    self._offset[child_level]
                    + self.schema.get_child_chunk_number(level, number, child_level),
                    1 << self._parents[child_level].index(level),
                )
                for child_level in self.schema.children_of(level)
            )
        if not entries:
            # The apex has no children: leave no empty sum to walk.
            return
        children = dirty.setdefault(child_sum, {})
        for child, bit in entries:
            children[child] = children.get(child, 0) | bit
