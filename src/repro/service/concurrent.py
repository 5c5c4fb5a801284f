"""The serving façade over an :class:`AggregateCache`.

The four-phase query pipeline — and its readers-writer lock, single-flight
table and revalidate-and-replan — lives in
:meth:`AggregateCache.query`, which is itself thread-safe.
:class:`ConcurrentAggregateCache` adds what a server needs around it:

* ``serve(queries, workers=N)`` drives a stream through a bounded thread
  pool, returning per-query results in submission order;
* every served query feeds the optional adaptive precomputer's workload
  tracker and is wrapped in a ``service`` span and the
  ``service.queue_depth`` gauge;
* maintenance — ``refresh_from_backend``, ``invalidate_base_chunks``,
  ``idle_tick`` — runs under the manager's *write* lock, exclusive
  against every in-flight query.  The manager's own maintenance methods
  take no lock, so with queries in flight they must be reached through
  here.

See ``docs/service.md`` for the locking design and ``docs/faults.md``
for the degraded-result semantics.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from collections.abc import Iterable, Sequence
from dataclasses import replace

from repro.adaptive.canonical import canonicalize
from repro.adaptive.precompute import AdaptiveActions, AdaptivePrecomputer
from repro.approx.contract import QueryContract
from repro.core.manager import AggregateCache, QueryResult, _slice_chunk
from repro.core.rwlock import ReadWriteLock
from repro.core.singleflight import SingleFlightTable
from repro.obs import span
from repro.schema.cube import Level
from repro.util.errors import ReproError
from repro.workload.query import Query


class ConcurrentAggregateCache:
    """A thread-safe serving layer over one :class:`AggregateCache`.

    Parameters
    ----------
    manager:
        The manager to serve.  Queries may keep reaching it directly;
        its maintenance entry points must go through the wrapper once
        more than one thread is involved.
    flight_timeout_s:
        Forwarded to ``manager.flight_timeout_s``: the liveness backstop
        for single-flight followers, which only fires if a leader thread
        died between claiming and publishing a fetch.
    adaptive:
        Optional :class:`~repro.adaptive.precompute.AdaptivePrecomputer`
        over the same manager.  When attached, every served query feeds
        its workload tracker (lock-free with respect to serving), and
        :meth:`idle_tick` runs one promote/demote cycle under the write
        lock — exclusive against all in-flight queries, exactly like a
        warehouse refresh.
    """

    def __init__(
        self,
        manager: AggregateCache,
        flight_timeout_s: float | None = 60.0,
        adaptive: AdaptivePrecomputer | None = None,
    ) -> None:
        self.manager = manager
        manager.flight_timeout_s = flight_timeout_s
        self.adaptive = adaptive
        self._inflight = 0
        self._inflight_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # pass-through introspection

    @property
    def _rw(self) -> ReadWriteLock:
        return self.manager._rw

    @property
    def flights(self) -> SingleFlightTable:
        return self.manager.flights

    @property
    def replans(self) -> int:
        return self.manager.replans

    @property
    def schema(self):
        return self.manager.schema

    @property
    def cache(self):
        return self.manager.cache

    @property
    def backend(self):
        return self.manager.backend

    @property
    def obs(self):
        return self.manager.obs

    @property
    def queries_run(self) -> int:
        return self.manager.queries_run

    @property
    def complete_hits(self) -> int:
        return self.manager.complete_hits

    @property
    def complete_hit_ratio(self) -> float:
        return self.manager.complete_hit_ratio

    def describe(self) -> str:
        return f"Concurrent[{self.manager.describe()}]"

    # ------------------------------------------------------------------ #
    # the serving driver

    def serve(
        self,
        queries: Iterable[Query],
        workers: int = 4,
        contract: QueryContract | None = None,
    ) -> list[QueryResult]:
        """Answer a stream of queries on a bounded thread pool.

        Results come back in submission order regardless of completion
        order, so per-stream accounting (hit ratios, per-query
        comparisons against a sequential run) is preserved.  An optional
        ``contract`` applies to every query of the stream.
        """
        queries = list(queries)
        obs = self.manager.obs
        if obs.enabled:
            obs.metrics.gauge("service.workers").set(workers)
        if workers <= 1:
            return [self.query(query, contract) for query in queries]
        results: list[QueryResult | None] = [None] * len(queries)
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        ) as pool:
            futures = {
                pool.submit(self.query, query, contract): index
                for index, query in enumerate(queries)
            }
            for future in as_completed(futures):
                results[futures[future]] = future.result()
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # one query

    def query(
        self, query: Query, contract: QueryContract | None = None
    ) -> QueryResult:
        """Answer one query; safe to call from any number of threads.
        ``contract`` has :meth:`AggregateCache.query` semantics."""
        return self._serve_one(query, None, contract)

    def query_subset(
        self,
        query: Query,
        numbers: Sequence[int],
        contract: QueryContract | None = None,
    ) -> QueryResult:
        """Answer only the given chunk numbers of ``query``.

        This is the shard-local entry point of the fan-out router
        (:mod:`repro.sharding`): each worker serves exactly the slice of
        the canonical plan it owns, and the returned result's
        accounting — ``complete_hit``, ``coverage``, ``unanswered`` — is
        relative to that slice.  ``numbers`` must be chunk numbers of
        ``query.level``; with the full plan it is equivalent to
        :meth:`query`, field for field.
        """
        if not numbers:
            raise ReproError("query_subset needs at least one chunk number")
        return self._serve_one(query, list(numbers), contract)

    def _serve_one(
        self,
        query: Query,
        numbers: list[int] | None,
        contract: QueryContract | None,
    ) -> QueryResult:
        """:meth:`AggregateCache.query`, noted to the adaptive tracker
        and counted in the ``service`` span and queue-depth gauge."""
        obs = self.manager.obs
        if self.adaptive is not None:
            self.adaptive.note_query(query)
        if obs.enabled:
            with self._inflight_lock:
                self._inflight += 1
                obs.metrics.gauge("service.queue_depth").set(self._inflight)
        try:
            with span(obs, "service", chunks=query.num_chunks):
                return self.manager.query(query, contract, numbers=numbers)
        finally:
            if obs.enabled:
                with self._inflight_lock:
                    self._inflight -= 1
                    obs.metrics.gauge("service.queue_depth").set(
                        self._inflight
                    )

    def range_query(
        self,
        level: Level,
        cell_ranges: tuple[tuple[int, int], ...],
    ) -> QueryResult:
        """Concurrent counterpart of :meth:`AggregateCache.range_query`."""
        query = Query.from_cell_ranges(self.manager.schema, level, cell_ranges)
        result = self.query(query)
        sliced = [_slice_chunk(chunk, cell_ranges) for chunk in result.chunks]
        return replace(result, chunks=sliced)

    def query_spec(self, spec) -> QueryResult:
        """Concurrent counterpart of :meth:`AggregateCache.query_spec`:
        canonicalize a user-shaped spec, then serve its chunk-aligned
        query — equivalent spellings share plan-cache memos and
        single-flight fetches."""
        return self.query(
            canonicalize(self.manager.schema, spec).to_query()
        )

    # ------------------------------------------------------------------ #
    # maintenance entry points (serialised against all serving)

    def idle_tick(self) -> AdaptiveActions:
        """Run one adaptive promote/demote cycle, exclusive against all
        in-flight queries.  No-op (empty actions) without an attached
        precomputer."""
        if self.adaptive is None:
            return AdaptiveActions()
        with self._rw.write_locked():
            return self.adaptive.run_idle_cycle()

    def refresh_from_backend(self, facts, mode: str = "delta"):
        """Warehouse refresh, exclusive against every in-flight query.

        The write lock quiesces all four query phases, so the append and
        its patch wave (``mode="delta"`` — resident chunks patched in
        place instead of evicted; see
        :meth:`AggregateCache.refresh_from_backend`) never interleave
        with a reader: a query observes the cache strictly before or
        strictly after the whole refresh.  Returns the manager's
        :class:`~repro.core.manager.RefreshOutcome`.
        """
        with self._rw.write_locked():
            outcome = self.manager.refresh_from_backend(facts, mode=mode)
            if self.adaptive is not None:
                self.adaptive.reconcile_pins()
            return outcome

    def invalidate_base_chunks(self, numbers: list[int]) -> int:
        with self._rw.write_locked():
            evicted = self.manager.invalidate_base_chunks(numbers)
            if self.adaptive is not None:
                # Forced eviction ignores pins; drop any bookkeeping for
                # chunks that no longer exist.
                self.adaptive.reconcile_pins()
            return evicted
