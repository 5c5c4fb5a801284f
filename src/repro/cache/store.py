"""The chunk store: a byte-budgeted map from (level, chunk number) to chunk.

Admission and victim selection are delegated to a
:class:`~repro.cache.replacement.base.ReplacementPolicy`; the store owns
the byte accounting and guarantees atomic inserts — either the incoming
chunk fits after the policy's evictions, or nothing changes at all.

The store is thread-safe: one reentrant mutex guards the entry map, the
byte accounting and every policy callback, so an insert (victim sweep +
admission + accounting) is atomic with respect to concurrent reads,
evictions and reinforcements.  The concurrent service layer
(:mod:`repro.service`) additionally orders whole query phases around the
store; the store's own lock is what keeps the ``used_bytes`` invariant
exact even when it is used without that layer.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.cache.replacement.base import ReplacementPolicy
from repro.chunks.chunk import Chunk
from repro.faults.registry import failpoint
from repro.obs import NULL_OBS, Observability
from repro.schema.cube import Level
from repro.util.errors import ReproError

Key = tuple[Level, int]


@dataclass(slots=True)
class CacheEntry:
    """A resident chunk plus its replacement metadata.

    ``slots=True``: the store holds one of these per resident chunk, so
    dropping the per-instance ``__dict__`` is a measurable share of the
    cache's bookkeeping overhead (the Table 3 benchmark records the
    per-entry delta).
    """

    chunk: Chunk
    benefit: float
    """Milliseconds it would cost to reproduce this chunk (its benefit)."""
    size_bytes: int
    clock: float = 0.0
    pinned: bool = False
    resident: bool = True

    @property
    def key(self) -> Key:
        return self.chunk.key

    @property
    def is_backend_class(self) -> bool:
        return self.chunk.origin.is_backend_class


@dataclass
class InsertOutcome:
    """What happened when a chunk was offered to the cache."""

    inserted: bool
    evicted: list[Chunk] = field(default_factory=list)


@dataclass
class CacheStats:
    """Lifetime counters for one cache instance."""

    inserts: int = 0
    rejects: int = 0
    evictions: int = 0
    hits: int = 0
    misses: int = 0


class ChunkCache:
    """A byte-budgeted chunk cache with pluggable replacement.

    Satisfies the ``ChunkPresence`` protocol the lookup strategies expect.
    """

    def __init__(
        self,
        capacity_bytes: int,
        policy: ReplacementPolicy,
        bytes_per_tuple: int,
        obs: Observability | None = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ReproError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self.policy = policy
        self.bytes_per_tuple = int(bytes_per_tuple)
        self.used_bytes = 0
        self.stats = CacheStats()
        self.obs = obs or NULL_OBS
        self.policy.obs = self.obs
        self._entries: dict[Key, CacheEntry] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # membership / reads

    def contains(self, level: Level, number: int) -> bool:
        return (level, number) in self._entries

    def get(self, level: Level, number: int) -> Chunk:
        """The cached chunk; counts as a cache hit for the policy."""
        with self._lock:
            entry = self._entries.get((level, number))
            if entry is None:
                self.stats.misses += 1
                if self.obs.enabled:
                    self.obs.metrics.counter("cache.misses").inc()
                raise ReproError(
                    f"chunk {number} of level {level} is not in the cache"
                )
            self.stats.hits += 1
            self.policy.on_hit(entry)
        if self.obs.enabled:
            self.obs.metrics.counter("cache.hits").inc()
            self.obs.tracer.emit(
                "cache.hit", level=list(level), number=number
            )
        return entry.chunk

    def peek(self, level: Level, number: int) -> Chunk | None:
        """Read without touching replacement state (plan execution uses
        this so that intermediate reads don't distort CLOCK positions —
        group reinforcement handles plan sources explicitly)."""
        entry = self._entries.get((level, number))
        return entry.chunk if entry else None

    def entry(self, level: Level, number: int) -> CacheEntry | None:
        return self._entries.get((level, number))

    def entries(self) -> Iterator[CacheEntry]:
        with self._lock:
            return iter(list(self._entries.values()))

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def resident_keys(self) -> list[Key]:
        with self._lock:
            return list(self._entries)

    # ------------------------------------------------------------------ #
    # writes

    def insert(self, chunk: Chunk, benefit: float) -> InsertOutcome:
        """Offer a chunk to the cache.

        The policy picks victims until the chunk fits; if it cannot free
        enough allowed space the insert is rejected and *no* eviction
        happens (victim clock decay still occurs — that is inherent to
        CLOCK).  Empty chunks are cached too: knowing a region is empty is
        as valuable as knowing its contents.
        """
        # Before the lock and before any mutation: an injected fault
        # leaves the store, the policy and the caller's strategy state
        # exactly as they were.
        failpoint("cache.insert", level=chunk.level, number=chunk.number)
        with self._lock:
            key = chunk.key
            if key in self._entries:
                # Re-inserting a resident chunk refreshes its benefit/recency.
                entry = self._entries[key]
                entry.benefit = max(entry.benefit, benefit)
                self.policy.on_hit(entry)
                return InsertOutcome(inserted=False)
            size = chunk.size_bytes(self.bytes_per_tuple)
            entry = CacheEntry(chunk=chunk, benefit=benefit, size_bytes=size)
            if size > self.capacity_bytes:
                self._note_reject(chunk, size, "larger_than_cache")
                return InsertOutcome(inserted=False)

            victims: list[CacheEntry] = []
            needed = size - self.free_bytes
            if needed > 0:
                freed = 0
                for victim in self.policy.victim_iter(entry):
                    if victim.pinned or not victim.resident:
                        continue
                    victims.append(victim)
                    freed += victim.size_bytes
                    if freed >= needed:
                        break
                if freed < needed:
                    self._note_reject(chunk, size, "no_evictable_space")
                    return InsertOutcome(inserted=False)
                if not self.policy.should_admit(entry, victims):
                    self._note_reject(chunk, size, "not_admitted")
                    return InsertOutcome(inserted=False)

            evicted = [self._remove_entry(victim) for victim in victims]
            self._entries[key] = entry
            self.used_bytes += size
            self.policy.on_insert(entry)
            self.stats.inserts += 1
        if self.obs.enabled:
            self.obs.metrics.counter("cache.inserts").inc()
            self.obs.metrics.gauge("cache.used_bytes").set(self.used_bytes)
            self.obs.tracer.emit(
                "cache.insert",
                level=list(chunk.level),
                number=chunk.number,
                bytes=size,
                benefit_ms=benefit,
                origin=chunk.origin.value,
                evictions=len(evicted),
            )
        return InsertOutcome(inserted=True, evicted=evicted)

    def insert_many(
        self, items: Iterable[tuple[Chunk, float]]
    ) -> list[InsertOutcome]:
        """Offer a whole admission wave to the cache under ONE lock
        acquisition, with the policy's insert bookkeeping batched.

        Semantically identical to calling :meth:`insert` per item in
        order: policy ring appends are deferred and flushed in insert
        order before any victim sweep, so victim selection sees exactly
        the state the per-item loop would have built.  In the common case
        (the wave fits without evictions) the policy is invoked once for
        the whole wave.
        """
        outcomes: list[InsertOutcome] = []
        admitted: list[CacheEntry] = []
        pending: list[CacheEntry] = []
        items = list(items)
        # One failpoint per wave, before any mutation (see insert()).
        failpoint("cache.insert", wave=len(items))
        with self._lock:
            for chunk, benefit in items:
                key = chunk.key
                if key in self._entries:
                    entry = self._entries[key]
                    entry.benefit = max(entry.benefit, benefit)
                    self.policy.on_hit(entry)
                    outcomes.append(InsertOutcome(inserted=False))
                    continue
                size = chunk.size_bytes(self.bytes_per_tuple)
                entry = CacheEntry(
                    chunk=chunk, benefit=benefit, size_bytes=size
                )
                if size > self.capacity_bytes:
                    self._note_reject(chunk, size, "larger_than_cache")
                    outcomes.append(InsertOutcome(inserted=False))
                    continue
                victims: list[CacheEntry] = []
                needed = size - self.free_bytes
                if needed > 0:
                    # Earlier admissions of this wave must be sweepable
                    # victims, exactly as in the per-item loop.
                    if pending:
                        self.policy.on_insert_many(pending)
                        pending = []
                    freed = 0
                    for victim in self.policy.victim_iter(entry):
                        if victim.pinned or not victim.resident:
                            continue
                        victims.append(victim)
                        freed += victim.size_bytes
                        if freed >= needed:
                            break
                    if freed < needed:
                        self._note_reject(chunk, size, "no_evictable_space")
                        outcomes.append(InsertOutcome(inserted=False))
                        continue
                    if not self.policy.should_admit(entry, victims):
                        self._note_reject(chunk, size, "not_admitted")
                        outcomes.append(InsertOutcome(inserted=False))
                        continue
                evicted = [self._remove_entry(victim) for victim in victims]
                self._entries[key] = entry
                self.used_bytes += size
                pending.append(entry)
                admitted.append(entry)
                self.stats.inserts += 1
                outcomes.append(InsertOutcome(inserted=True, evicted=evicted))
            if pending:
                self.policy.on_insert_many(pending)
        if self.obs.enabled and admitted:
            self.obs.metrics.counter("cache.inserts").inc(len(admitted))
            self.obs.metrics.gauge("cache.used_bytes").set(self.used_bytes)
            for entry, outcome in zip(
                admitted,
                (o for o in outcomes if o.inserted),
            ):
                chunk = entry.chunk
                self.obs.tracer.emit(
                    "cache.insert",
                    level=list(chunk.level),
                    number=chunk.number,
                    bytes=entry.size_bytes,
                    benefit_ms=entry.benefit,
                    origin=chunk.origin.value,
                    evictions=len(outcome.evicted),
                )
        return outcomes

    def evict_many(self, keys: Iterable[Key]) -> list[Chunk]:
        """Forcibly remove a set of chunks under one lock acquisition."""
        with self._lock:
            entries = []
            for level, number in keys:
                entry = self._entries.get((level, number))
                if entry is None:
                    raise ReproError(
                        f"cannot evict: chunk {number} of level {level} "
                        "not cached"
                    )
                entries.append(entry)
            return [self._remove_entry(entry) for entry in entries]

    def replace_many(
        self, replacements: Iterable[tuple[Key, Chunk]]
    ) -> list[Chunk]:
        """Swap resident chunks' payloads in place (delta patch wave).

        Each replacement chunk must carry the same key as the entry it
        replaces; every other piece of entry state — benefit, pin, CLOCK
        position, residency — survives untouched, which is the whole
        point: a patched chunk is the *same* cache citizen with fresher
        contents, not a new admission.  Byte accounting moves by each
        chunk's size change under one lock acquisition.

        A patch can grow the cache past capacity (appends add cells).
        Overflow is reclaimed through the policy's ordinary victim sweep
        — pinned and non-resident entries are skipped exactly as during
        admission — and the evicted chunks are returned so the caller can
        cascade count/cost maintenance.  When everything left is pinned
        the cache is allowed to run over budget temporarily; the next
        ordinary admission pressure works it back down.
        """
        replacements = list(replacements)
        evicted: list[Chunk] = []
        with self._lock:
            anchor: CacheEntry | None = None
            for (level, number), chunk in replacements:
                entry = self._entries.get((level, number))
                if entry is None:
                    raise ReproError(
                        f"cannot patch: chunk {number} of level {level} "
                        "not cached"
                    )
                if chunk.key != (level, number):
                    raise ReproError(
                        f"patch payload {chunk.key} does not match "
                        f"entry {(level, number)}"
                    )
                new_size = chunk.size_bytes(self.bytes_per_tuple)
                self.used_bytes += new_size - entry.size_bytes
                entry.chunk = chunk
                entry.size_bytes = new_size
                # The overflow sweep asks the policy for victims on behalf
                # of one patched entry; prefer a backend-class anchor
                # because the two-level policy lets it sweep both rings.
                if anchor is None or (
                    not anchor.is_backend_class and entry.is_backend_class
                ):
                    anchor = entry
            if self.used_bytes > self.capacity_bytes and anchor is not None:
                needed = self.used_bytes - self.capacity_bytes
                victims: list[CacheEntry] = []
                freed = 0
                for victim in self.policy.victim_iter(anchor):
                    if victim.pinned or not victim.resident:
                        continue
                    victims.append(victim)
                    freed += victim.size_bytes
                    if freed >= needed:
                        break
                evicted = [self._remove_entry(victim) for victim in victims]
        if self.obs.enabled and replacements:
            self.obs.metrics.counter("cache.patches").inc(len(replacements))
            self.obs.metrics.gauge("cache.used_bytes").set(self.used_bytes)
            self.obs.tracer.emit(
                "cache.patch_wave",
                patched=len(replacements),
                evictions=len(evicted),
                used_bytes=self.used_bytes,
            )
        return evicted

    def evict(self, level: Level, number: int) -> Chunk:
        """Forcibly remove one chunk (used by tests and maintenance)."""
        with self._lock:
            entry = self._entries.get((level, number))
            if entry is None:
                raise ReproError(
                    f"cannot evict: chunk {number} of level {level} not cached"
                )
            return self._remove_entry(entry)

    def reinforce(
        self, keys: Iterable[Key], benefit_ms: float
    ) -> tuple[int, int]:
        """Apply group reinforcement (two-level rule 2) to the entries at
        ``keys``, atomically with respect to inserts and evictions.

        Returns ``(applied, skipped)`` — ``skipped`` counts keys that were
        no longer resident when the reinforcement landed (possible when an
        eviction raced the aggregation that produced the group).
        """
        with self._lock:
            entries: list[CacheEntry] = []
            skipped = 0
            for level, number in keys:
                entry = self._entries.get((level, number))
                if entry is None or not entry.resident:
                    skipped += 1
                else:
                    entries.append(entry)
            if entries:
                self.policy.on_aggregate_use(entries, benefit_ms)
            return len(entries), skipped

    def _remove_entry(self, entry: CacheEntry) -> Chunk:
        del self._entries[entry.key]
        self.used_bytes -= entry.size_bytes
        entry.resident = False
        self.policy.on_remove(entry)
        self.stats.evictions += 1
        if self.obs.enabled:
            self.obs.metrics.counter("cache.evictions").inc()
            self.obs.tracer.emit(
                "cache.evict",
                level=list(entry.chunk.level),
                number=entry.chunk.number,
                bytes=entry.size_bytes,
                origin=entry.chunk.origin.value,
            )
        return entry.chunk

    def close(self) -> None:
        """A no-op, idempotent: payloads live on the Python heap, so
        there is nothing to release.  Kept because the benchmark's stack
        teardown calls it by name."""

    def __enter__(self) -> "ChunkCache":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _note_reject(self, chunk: Chunk, size: int, reason: str) -> None:
        self.stats.rejects += 1
        if self.obs.enabled:
            self.obs.metrics.counter("cache.rejects").inc()
            self.obs.tracer.emit(
                "cache.reject",
                level=list(chunk.level),
                number=chunk.number,
                bytes=size,
                reason=reason,
            )
