"""Aggregation plans.

A lookup strategy's answer to "is this chunk computable, and how?" is a
:class:`PlanNode` tree.  A *leaf* names a chunk read directly from the
cache; an *inner node* aggregates its inputs — all at one parent level —
into the node's chunk.  Executing the tree bottom-up materialises the
requested chunk.
"""

from __future__ import annotations

import enum
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.sizes import SizeEstimator
from repro.schema.cube import CubeSchema, Level

Key = tuple[Level, int]


@dataclass(frozen=True)
class PlanNode:
    """One step of an aggregation plan.

    ``source_level is None`` marks a leaf (read ``(level, number)`` from
    the cache).  Otherwise ``inputs`` are the chunks at ``source_level``
    that aggregate into this node's chunk.
    """

    level: Level
    number: int
    source_level: Level | None = None
    inputs: tuple["PlanNode", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return self.source_level is None

    @classmethod
    def leaf(cls, level: Level, number: int) -> "PlanNode":
        return cls(level=level, number=number)

    @classmethod
    def aggregate(
        cls,
        level: Level,
        number: int,
        source_level: Level,
        inputs: tuple["PlanNode", ...],
    ) -> "PlanNode":
        return cls(
            level=level, number=number, source_level=source_level, inputs=inputs
        )

    def iter_nodes(self) -> Iterator["PlanNode"]:
        """All nodes, leaves first (post-order)."""
        for child in self.inputs:
            yield from child.iter_nodes()
        yield self

    def leaves(self) -> Iterator["PlanNode"]:
        for node in self.iter_nodes():
            if node.is_leaf:
                yield node

    @property
    def num_nodes(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    @property
    def num_aggregations(self) -> int:
        return sum(1 for node in self.iter_nodes() if not node.is_leaf)

    def estimated_cost(self, sizes: SizeEstimator) -> float:
        """Estimated tuples aggregated to execute this plan hop by hop.

        Matches :class:`~repro.core.costs.CostStore` semantics: each inner
        node reads every input chunk once, and input sizes come from the
        analytic estimator (leaves cost nothing to read).  The manager
        executes a plan fused — leaves straight to the target, no
        intermediate chunks — so this is what the strategies rank plans
        by and an upper bound on what execution reads, not its row count.
        """
        if self.is_leaf:
            return 0.0
        total = 0.0
        for child in self.inputs:
            total += child.estimated_cost(sizes)
            total += sizes.chunk_tuples(child.level, child.number)
        return total

    def describe(self, indent: int = 0) -> str:
        """Readable multi-line plan description (diagnostics)."""
        pad = "  " * indent
        if self.is_leaf:
            return f"{pad}read  level={self.level} chunk={self.number}"
        lines = [
            f"{pad}agg   level={self.level} chunk={self.number} "
            f"from {self.source_level} ({len(self.inputs)} inputs)"
        ]
        lines.extend(child.describe(indent + 1) for child in self.inputs)
        return "\n".join(lines)


class PlanOutcome(enum.Enum):
    """The three possible results of a :meth:`PlanCache.lookup`."""

    HIT = "hit"
    MISS = "miss"
    STALE = "stale"


#: clear the dependency-index memo when it grows past this many entries
_MAX_DEP_MEMO = 65_536


class PlanCache:
    """A generation-stamped memo of lookup results, invalidated at chunk
    *region* granularity.

    Repeated queries over a hot lattice region re-derive the same plans
    (or the same "not computable" verdicts) on every call.  This cache
    remembers the result per ``(level, number)`` — including ``None``
    misses — and invalidates cheaply without tracking which plans
    reference which chunks: every level's chunk space is split into up to
    ``max_regions_per_level`` contiguous *regions*, each with its own
    generation counter, bumped whenever a chunk of that region enters or
    leaves the cache.  A memoised result is stamped with the sum of the
    generations of every region that could possibly affect it: for each
    lattice ancestor of its level (more detailed levels, itself
    included), the regions covering the memo chunk's data.  Generations
    only grow, so a stamp mismatch means *some* relevant movement
    happened and the entry is simply dropped: a stale hit replans, it
    never serves an outdated plan.

    Region scoping is what kills the invalidation storm the per-level
    counters suffered from: an insert/evict wave in one corner of the
    cube no longer invalidates memos whose input chunks live in another
    corner of the same levels.  With ``max_regions_per_level=1`` the
    scheme degenerates to exactly the legacy one-counter-per-level
    behaviour (any movement at an ancestor level invalidates every memo
    at a level), which the harness uses as the regression baseline.

    Thread-safety: one mutex over the memo, the generation vector and
    the memoised dependency indices.  The concurrent service layer
    orders lookups and movements around its phase locks already; the
    internal lock makes the cache safe for bare multi-threaded use too.
    """

    def __init__(
        self,
        schema: CubeSchema,
        max_entries: int = 4096,
        max_regions_per_level: int = 256,
    ) -> None:
        self.schema = schema
        self.max_entries = int(max_entries)
        self.max_regions_per_level = max(1, int(max_regions_per_level))
        self._levels = list(schema.all_levels())
        self._num_chunks: dict[Level, int] = {
            level: schema.num_chunks(level) for level in self._levels
        }
        self._region_count: dict[Level, int] = {
            level: min(n, self.max_regions_per_level)
            for level, n in self._num_chunks.items()
        }
        self._offset: dict[Level, int] = {}
        total = 0
        for level in self._levels:
            self._offset[level] = total
            total += self._region_count[level]
        self._gens = np.zeros(total, dtype=np.int64)
        self._ancestors: dict[Level, list[Level]] = {}
        self._dep_idx: dict[Key, np.ndarray] = {}
        self._entries: dict[Key, tuple[int, PlanNode | None]] = {}
        self.hits = 0
        self.misses = 0
        self.stale_hits = 0
        """Lookups whose memo entry existed but was generation-invalidated
        (each one replans instead of serving the stale plan)."""
        self.regions_bumped = 0
        """Lifetime distinct-region invalidations — the honest measure of
        invalidation traffic (a refresh patch wave should bump only the
        regions it touched, never the whole table)."""
        self._lock = threading.Lock()

    @property
    def num_regions(self) -> int:
        """Total generation counters across all levels."""
        return int(self._gens.size)

    def _region_index(self, level: Level, number: int) -> int:
        """Global generation index of the region holding one chunk."""
        r = self._region_count[level]
        return self._offset[level] + (number * r) // self._num_chunks[level]

    def _ancestors_of(self, level: Level) -> list[Level]:
        """Levels whose residency can change plans at ``level``: the
        componentwise-``>=`` (more detailed) levels, itself included."""
        ancestors = self._ancestors.get(level)
        if ancestors is None:
            ancestors = [
                other
                for other in self._levels
                if all(a >= b for a, b in zip(other, level))
            ]
            self._ancestors[level] = ancestors
        return ancestors

    def _dep_index(self, level: Level, number: int) -> np.ndarray:
        """Memoised global generation indices one memo's validity depends
        on: for every ancestor level, the regions covering the chunk's
        data rectangle."""
        key = (level, number)
        idx = self._dep_idx.get(key)
        if idx is None:
            parts: list[np.ndarray] = []
            for other in self._ancestors_of(level):
                off = self._offset[other]
                r = self._region_count[other]
                if r == 1:
                    parts.append(np.array([off], dtype=np.intp))
                    continue
                if other == level:
                    covering = np.array([number], dtype=np.intp)
                else:
                    covering = self.schema.get_parent_chunk_numbers(
                        level, number, other
                    ).astype(np.intp)
                regions = (covering * r) // self._num_chunks[other]
                parts.append(off + np.unique(regions))
            idx = np.concatenate(parts)
            if len(self._dep_idx) >= _MAX_DEP_MEMO:
                self._dep_idx.clear()
            self._dep_idx[key] = idx
        return idx

    def _stamp(self, level: Level, number: int) -> int:
        """Current validity stamp for one memo: the sum of the generation
        counters of every region whose residency can change the answer."""
        return int(self._gens[self._dep_index(level, number)].sum())

    def lookup(
        self, level: Level, number: int
    ) -> tuple[PlanOutcome, PlanNode | None]:
        """``(outcome, plan)`` — the plan is only meaningful on ``HIT``.
        A ``STALE`` entry is dropped; the caller re-derives and re-stores."""
        with self._lock:
            key = (level, number)
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return PlanOutcome.MISS, None
            stamp, plan = entry
            if stamp != self._stamp(level, number):
                del self._entries[key]
                self.stale_hits += 1
                return PlanOutcome.STALE, None
            self.hits += 1
            return PlanOutcome.HIT, plan

    def store(self, level: Level, number: int, plan: PlanNode | None) -> None:
        with self._lock:
            while len(self._entries) >= self.max_entries:
                # FIFO overflow: drop the oldest memo (dict preserves
                # insertion order); correctness never depends on what is
                # cached, only on stamps.
                self._entries.pop(next(iter(self._entries)))
            self._entries[(level, number)] = (
                self._stamp(level, number),
                plan,
            )

    def bump(self, keys: Iterable[Key]) -> None:
        """Chunks moved: invalidate every memo whose dependency regions
        include a touched ``(level, number)``.  O(1) per distinct touched
        region — memos elsewhere on the same levels stay valid."""
        with self._lock:
            touched = {
                self._region_index(level, number) for level, number in keys
            }
            for index in touched:
                self._gens[index] += 1
            self.regions_bumped += len(touched)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def lookups(self) -> int:
        """Total lookups: hits + misses + stale hits — the one honest
        hit-ratio denominator every report shares."""
        return self.hits + self.misses + self.stale_hits

    @property
    def hit_ratio(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """The counters every harness report shares (one denominator)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stale_hits": self.stale_hits,
            "lookups": self.lookups,
            "hit_ratio": self.hit_ratio,
            "entries": len(self._entries),
            "regions": self.num_regions,
            "regions_bumped": self.regions_bumped,
        }
