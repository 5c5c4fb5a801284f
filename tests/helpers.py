"""Brute-force oracles the incremental algorithms are verified against,
and the comparison helpers the identity tests share."""

from __future__ import annotations

import math

import numpy as np

from repro.chunks.chunk import Chunk
from repro.core.costs import BEST_CACHED, BEST_NONE
from repro.core.sizes import SizeEstimator
from repro.schema.cube import CubeSchema, Level

Key = tuple[Level, int]

#: The QueryResult fields two serving stacks must agree on to count as
#: equivalent (service vs manager, armoured vs plain, router vs service).
COMPARED_FIELDS = (
    "complete_hit",
    "direct_hits",
    "aggregated",
    "from_backend",
    "tuples_aggregated",
    "lookup_visits",
    "state_updates",
    "reinforcements_skipped",
    "degraded",
    "coverage",
    "unanswered",
)


def admit(cache, chunk: Chunk, benefit: float):
    """Offer one chunk to a :class:`~repro.cache.store.ChunkCache` as a
    one-item admission wave; returns its ``InsertOutcome``."""
    return cache.insert_many([(chunk, benefit)])[0]


def assert_chunks_identical(got: Chunk, want: Chunk) -> None:
    """Field-for-field, bit-for-bit chunk equality (exact ``==`` on the
    arrays, same cell order, same dtypes)."""
    assert got.level == want.level
    assert got.number == want.number
    assert got.origin == want.origin
    assert got.compute_cost == want.compute_cost
    assert len(got.coords) == len(want.coords)
    for a, b in zip(got.coords, want.coords):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.counts, want.counts)
    assert len(got.extras) == len(want.extras)
    for a, b in zip(got.extras, want.extras):
        assert np.array_equal(a, b)


def oracle_computable(
    schema: CubeSchema, cached: set[Key], level: Level, number: int
) -> bool:
    """Reference semantics of 'computable from the cache'.

    Memoised recursion straight from the definition: a chunk is computable
    iff it is cached, or some lattice parent has *all* of the chunk's
    mapped chunks computable.
    """
    memo: dict[Key, bool] = {}

    def rec(lvl: Level, num: int) -> bool:
        key = (lvl, num)
        if key in memo:
            return memo[key]
        if key in cached:
            memo[key] = True
            return True
        memo[key] = False  # base level with no parents stays False
        for parent in schema.parents_of(lvl):
            numbers = schema.get_parent_chunk_numbers(lvl, num, parent)
            if all(rec(parent, int(n)) for n in numbers):
                memo[key] = True
                break
        return memo[key]

    return rec(level, number)


def oracle_counts(schema: CubeSchema, cached: set[Key]) -> dict[Level, np.ndarray]:
    """Reference virtual counts straight from the definition: one if the
    chunk is cached, plus one per lattice parent all of whose mapped
    chunks are computable (a positive count).  Levels are filled most
    detailed first, so every parent level is final when a child reads
    it."""
    counts = {
        level: np.zeros(schema.num_chunks(level), dtype=np.int32)
        for level in schema.all_levels()
    }
    for level in sorted(schema.all_levels(), key=lambda l: -sum(l)):
        for number in range(schema.num_chunks(level)):
            count = int((level, number) in cached)
            for parent in schema.parents_of(level):
                numbers = schema.get_parent_chunk_numbers(level, number, parent)
                count += bool(np.all(counts[parent][numbers] > 0))
            counts[level][number] = count
    return counts


class CascadeCounts:
    """The paper's recursive per-chunk count cascade
    (``VCM_InsertUpdateCount`` and its eviction mirror), one key at a
    time: the reference for a :class:`~repro.core.counts.CountStore`
    wave's state and for its update charge (one per ±1 step)."""

    def __init__(self, schema: CubeSchema) -> None:
        self.schema = schema
        self.counts = {
            level: np.zeros(schema.num_chunks(level), dtype=np.int32)
            for level in schema.all_levels()
        }

    def counts_array(self, level: Level) -> np.ndarray:
        return self.counts[level]

    def _paths(self, level: Level, number: int):
        for child_level in self.schema.children_of(level):
            child = self.schema.get_child_chunk_number(level, number, child_level)
            siblings = self.schema.get_parent_chunk_numbers(child_level, child, level)
            yield child_level, child, siblings

    def insert(self, level: Level, number: int) -> int:
        counts = self.counts[level]
        counts[number] += 1
        if counts[number] > 1:
            # Already computable: no path through this level changes.
            return 1
        updates = 1
        for child_level, child, siblings in self._paths(level, number):
            if np.all(counts[siblings] > 0):
                updates += self.insert(child_level, child)
        return updates

    def evict(self, level: Level, number: int) -> int:
        counts = self.counts[level]
        assert counts[number] > 0, f"count underflow at {level}/{number}"
        counts[number] -= 1
        if counts[number] > 0:
            # Still computable some other way: children unaffected.
            return 1
        updates = 1
        for child_level, child, siblings in self._paths(level, number):
            # The path was successful iff every sibling was computable;
            # this chunk was (it just dropped to zero).
            if np.all((counts[siblings] > 0) | (siblings == number)):
                updates += self.evict(child_level, child)
        return updates


def assert_count_state_exact(store, resident: set[Key], reference=None) -> None:
    """A :class:`~repro.core.counts.CountStore` holds the definition's
    counts (:func:`oracle_counts`) for ``resident``, arrays identical to a
    store rebuilt from ``resident`` in one wave, and — when given — the
    :class:`CascadeCounts` reference's arrays."""
    schema = store.schema
    want = oracle_counts(schema, resident)
    rebuilt = type(store)(schema)
    rebuilt.on_insert_many(sorted(resident))
    for level in schema.all_levels():
        got = store.counts_array(level)
        assert np.array_equal(got, want[level]), f"counts at level {level}"
        assert np.array_equal(got, rebuilt.counts_array(level)), (
            f"one-wave rebuild differs at level {level}"
        )
        if reference is not None:
            assert np.array_equal(got, reference.counts_array(level)), (
                f"reference cascade differs at level {level}"
            )


def oracle_min_cost(
    schema: CubeSchema,
    sizes: SizeEstimator,
    cached: set[Key],
    level: Level,
    number: int,
) -> float:
    """Reference least cost: min over all paths of estimated tuples read.

    ``0.0`` for a cached chunk, ``inf`` when not computable.
    """
    memo: dict[Key, float] = {}

    def rec(lvl: Level, num: int) -> float:
        key = (lvl, num)
        if key in memo:
            return memo[key]
        if key in cached:
            memo[key] = 0.0
            return 0.0
        best = math.inf
        memo[key] = best  # base chunks not cached stay inf
        for parent in schema.parents_of(lvl):
            numbers = schema.get_parent_chunk_numbers(lvl, num, parent)
            total = 0.0
            for n in numbers:
                sub = rec(parent, int(n))
                if math.isinf(sub):
                    total = math.inf
                    break
                total += sub + sizes.chunk_tuples(parent, int(n))
            best = min(best, total)
        memo[key] = best
        return best

    return rec(level, number)


class IntegerSizes:
    """Deterministic integer chunk sizes: every path cost is an exact small
    float64 sum whatever the summation order, so maintained costs compare
    to :func:`oracle_min_cost` with exact ``==``."""

    def chunk_tuples(self, level, number) -> int:
        return sum(level) * 7 + number % 5 + 1


def oracle_cost_state(
    schema: CubeSchema,
    sizes: SizeEstimator,
    cached: set[Key],
    level: Level,
    number: int,
) -> tuple[float, int]:
    """Reference ``(Cost, BestParent)`` of one chunk.

    ``BestParent`` is the index of the *first* parent in
    ``schema.parents_of(level)`` order whose path reaches the least cost;
    ``BEST_CACHED`` for a cached chunk, ``BEST_NONE`` when not computable.
    Path costs are compared with ``==``, so use exact sizes
    (:class:`IntegerSizes`).
    """
    if (level, number) in cached:
        return 0.0, BEST_CACHED
    cost = oracle_min_cost(schema, sizes, cached, level, number)
    if math.isinf(cost):
        return cost, BEST_NONE
    for idx, parent in enumerate(schema.parents_of(level)):
        via = sum(
            oracle_min_cost(schema, sizes, cached, parent, int(n))
            + sizes.chunk_tuples(parent, int(n))
            for n in schema.get_parent_chunk_numbers(level, number, parent)
        )
        if via == cost:
            return cost, idx
    raise AssertionError(f"no parent reaches the least cost of {level}/{number}")


def assert_cost_state_exact(store, resident: set[Key]) -> None:
    """A :class:`~repro.core.costs.CostStore` over exact sizes holds the
    oracle's ``(Cost, BestParent)`` for every chunk, and arrays
    bit-identical to a store rebuilt from ``resident`` in one wave."""
    schema, sizes = store.schema, store.sizes
    rebuilt = type(store)(schema, sizes)
    rebuilt.on_insert_many(sorted(resident))
    for level in schema.all_levels():
        for number in range(schema.num_chunks(level)):
            got = (store.cost(level, number), int(store.best_array(level)[number]))
            want = oracle_cost_state(schema, sizes, resident, level, number)
            assert got == want, f"(Cost, BestParent) of {level}/{number}"
            assert store.is_cached(level, number) == ((level, number) in resident)
        assert np.array_equal(store.cost_array(level), rebuilt.cost_array(level))
        assert np.array_equal(store.best_array(level), rebuilt.best_array(level))


def direct_aggregate(facts, level: Level) -> dict[tuple[int, ...], float]:
    """Aggregate the raw fact table straight to ``level``: the ground truth
    for every cache/backend answer.  Returns {cell-ordinals: measure sum}."""
    schema = facts.schema
    coords = [
        dim.map_ordinals(dim.height, l, facts.coords[d])
        for d, (dim, l) in enumerate(zip(schema.dimensions, level))
    ]
    cells: dict[tuple[int, ...], float] = {}
    stacked = np.stack(coords, axis=1)
    for row, value in zip(stacked, facts.values):
        key = tuple(int(x) for x in row)
        cells[key] = cells.get(key, 0.0) + float(value)
    return cells


def chunk_cells_match(chunk, expected: dict[tuple[int, ...], float]) -> bool:
    """Whether a chunk's cells equal the expected cell->sum mapping."""
    actual = chunk.cell_dict()
    if set(actual) != set(expected):
        return False
    return all(abs(actual[k] - expected[k]) < 1e-6 for k in expected)


def expected_cells_in_chunk(
    schema: CubeSchema,
    all_cells: dict[tuple[int, ...], float],
    level: Level,
    number: int,
) -> dict[tuple[int, ...], float]:
    """Restrict a level's ground-truth cells to one chunk's region."""
    spans = schema.chunks.chunk_cell_spans(level, number)
    return {
        cell: value
        for cell, value in all_cells.items()
        if all(lo <= c < hi for c, (lo, hi) in zip(cell, spans))
    }
