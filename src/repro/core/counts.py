"""Virtual counts (Section 4 of the paper).

The *virtual count* of a chunk is the number of its lattice parents through
which a successful computation path exists, plus one if the chunk is
directly present in the cache.  Property 1: a chunk is computable from the
cache iff its count is non-zero — so VCM answers "is this computable?" with
a single array read.

Counts are a pure function of the resident set, and they are maintained
one wave at a time (:meth:`CountStore.on_insert_many` /
:meth:`CountStore.on_evict_many`): every cache movement is a wave, and a
single movement is a wave of one.  A wave adds its direct ±1 deltas, then
walks the levels most detailed first — the component sums that hold
pending work, from the base side down towards the apex, so every parent
level is final before its children are reached — and applies each chunk's
net delta once.  A sum with no pending work is never visited, so a wave
costs what it touches.  Only a chunk whose computability *flipped* can
change a child's count, and it does so through one parent path per child
(the paper's ``VCM_InsertUpdateCount`` step):

* in an insert wave the child gains one if every chunk of the path is now
  computable;
* in an evict wave the child loses one if every chunk of the path was
  computable before the wave — positive now, or flipped by this wave.

Each path is examined once per wave however many of its chunks flipped.
The wave's charge is the sum of ``|Δcount|`` (the paper's Table 2 metric),
the same as applying the recursive per-chunk cascade one key at a time.
Eviction is the exact mirror of insertion (the paper omits it for space;
Section 4.1 notes it is symmetric).

Counts depend on *residency only*, never on chunk contents: a warehouse
refresh that patches resident chunks in place (the delta wave in
:meth:`AggregateCache.refresh_from_backend`) leaves every count exact
with zero maintenance — only the overflow evictions a patch may force go
through :meth:`on_evict_many`, like any other eviction.  See
``docs/updates.md``.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator, Sequence

import numpy as np

from repro.schema.cube import CubeSchema, Level
from repro.util.errors import ReproError

Key = tuple[Level, int]

_Path = tuple[int, tuple[int, ...]]


def most_detailed_first(
    pending: dict[int, dict[int, int]],
) -> Iterator[tuple[int, dict[int, int]]]:
    """Pop a wave's pending work, highest component sum first, for as long
    as any is left.

    Settling one sum adds work only one lattice edge down (one sum lower),
    so popping the highest sum left visits the levels in lattice order and
    visits only the sums that hold work.
    """
    while pending:
        level_sum = max(pending)
        yield level_sum, pending.pop(level_sum)


class CountStore:
    """The ``Count`` array family plus its maintenance wave.

    One ``int32`` entry per chunk per group-by level (the paper's space
    accounting assumes 1 byte; we report bytes separately and use int32 in
    memory for safety).
    """

    def __init__(self, schema: CubeSchema) -> None:
        self.schema = schema
        self._keys: list[Key] = []
        """Every chunk in one flat index: level blocks, chunk numbers
        within.  The wave works on flat indices; the per-level arrays
        are views of the flat one."""
        self._offset: dict[Level, int] = {}
        for level in schema.all_levels():
            self._offset[level] = len(self._keys)
            self._keys.extend((level, n) for n in range(schema.num_chunks(level)))
        self._flat = np.zeros(len(self._keys), dtype=np.int32)
        self._counts: dict[Level, np.ndarray] = {
            level: self._flat[start : start + schema.num_chunks(level)]
            for level, start in self._offset.items()
        }
        self._paths: list[tuple[_Path, ...] | None] = [None] * len(self._keys)
        """Per chunk, one ``(child, path chunks)`` per child level: the
        child's parent path through this chunk's level, as flat
        indices."""
        self.total_updates = 0
        """Lifetime sum of ``|Δcount|`` over all waves."""
        self._lock = threading.Lock()
        """Serialises maintenance waves.  Reads stay lock-free — single
        array-cell loads that are safe against a concurrent (locked)
        writer."""

    # ------------------------------------------------------------------ #
    # queries

    def count(self, level: Level, number: int) -> int:
        return int(self._counts[level][number])

    def is_computable(self, level: Level, number: int) -> bool:
        """Property 1: non-zero count iff computable from the cache."""
        return self._counts[level][number] > 0

    def num_entries(self) -> int:
        """Total count entries — one per chunk over all levels."""
        return int(self._flat.size)

    def counts_array(self, level: Level) -> np.ndarray:
        """One level's counts (VCM's find, diagnostics, tests)."""
        return self._counts[level]

    # ------------------------------------------------------------------ #
    # maintenance

    def on_insert_many(self, keys: Sequence[Key]) -> int:
        """A wave of chunks entered the cache.  Returns the wave's charge:
        the sum of ``|Δcount|`` over every chunk."""
        with self._lock:
            return self._settle(keys, +1)

    def on_evict_many(self, keys: Sequence[Key]) -> int:
        """A wave of chunks left the cache (mirror of ``on_insert_many``).
        Raises before changing anything if a chunk would owe more counts
        than it holds."""
        with self._lock:
            return self._settle(keys, -1)

    # ------------------------------------------------------------------ #
    # internals

    def _settle(self, keys: Sequence[Key], sign: int) -> int:
        """One single-sign wave: direct deltas, then one lattice-order
        pass applying each chunk's net delta once.

        ``pending[sum(level)]`` maps flat indices to the delta owed — the
        direct keys plus every path gained or lost at the more detailed
        levels already walked.  A sum is present only while it holds work.
        """
        counts = self._flat
        pending: dict[int, dict[int, int]] = {}
        for level, number in keys:
            owed = pending.setdefault(sum(level), {})
            chunk = self._offset[level] + number
            owed[chunk] = owed.get(chunk, 0) + sign
        if sign < 0:
            for owed in pending.values():
                for chunk, delta in owed.items():
                    if counts.item(chunk) + delta < 0:
                        level, number = self._keys[chunk]
                        raise ReproError(
                            f"count underflow at level {level} chunk "
                            f"{number}: evicting a chunk that was never "
                            "counted"
                        )
        updates = 0
        for level_sum, owed in most_detailed_first(pending):
            flipped: list[int] = []
            for chunk, delta in owed.items():
                old = counts.item(chunk)
                counts[chunk] = old + delta
                updates += abs(delta)
                if (old > 0) != (old + delta > 0):
                    flipped.append(chunk)
            if not flipped or not level_sum:
                # Nothing flipped, or the apex: it has no children.
                continue
            children = pending.pop(level_sum - 1, {})
            # A path of several chunks is keyed by its child and its first
            # chunk (one path per child and parent level), so it is
            # examined once however many of its chunks flipped.
            shared: dict[tuple[int, int], tuple[int, ...]] = {}
            for chunk in flipped:
                for child, members in self._chunk_paths(chunk):
                    if len(members) == 1:
                        # A one-chunk path flips with its chunk.
                        children[child] = children.get(child, 0) + sign
                    else:
                        shared[child, members[0]] = members
            was = set(flipped) if sign < 0 else ()
            for (child, _), members in shared.items():
                if all(counts.item(m) > 0 or m in was for m in members):
                    children[child] = children.get(child, 0) + sign
            if children:
                pending[level_sum - 1] = children
        self.total_updates += updates
        return updates

    def _chunk_paths(self, chunk: int) -> tuple[_Path, ...]:
        """Memoised ``(child, path chunks)`` per child level of a chunk.
        The first call for a level fills in all its chunks, each path's
        chunk tuple shared by every chunk on it."""
        paths = self._paths[chunk]
        if paths is None:
            level = self._keys[chunk][0]
            start = self._offset[level]
            numbers = range(self.schema.num_chunks(level))
            columns = []
            for child_level in self.schema.children_of(level):
                table = self.schema.chunks.child_chunk_table(level, child_level)
                children = (self._offset[child_level] + table).tolist()
                members: dict[int, list[int]] = {}
                for n, child in zip(numbers, children):
                    members.setdefault(child, []).append(start + n)
                shared = {child: tuple(m) for child, m in members.items()}
                columns.append([(child, shared[child]) for child in children])
            for n, built in zip(numbers, zip(*columns)):
                self._paths[start + n] = built
            paths = self._paths[chunk]
        return paths
