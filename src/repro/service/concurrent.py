"""Thread-safe concurrent query serving over an :class:`AggregateCache`.

The sequential manager mutates shared state (cache entries, byte
accounting, virtual counts, CLOCK hands) on every query, so it cannot be
driven from several threads directly.  :class:`ConcurrentAggregateCache`
wraps one manager behind a readers-writer lock split along the paper's
four query phases:

* **lookup** and **aggregate** run under a *read* lock — they only read
  cache membership and count/cost state, so any number of queries may
  plan and aggregate concurrently;
* **admit/count-update** runs under the *write* lock — admissions,
  evictions and count/cost maintenance are serialised, which is what
  keeps the byte accounting and Property 1 exact;
* the **backend** phase runs under *no* lock at all, deduplicated by a
  single-flight table: concurrent misses on the same ``(level, chunk)``
  issue one backend fetch and share the resulting chunk.  A leader's
  flight sends all of its claimed keys in one ``BackendDatabase.fetch``
  call, so the whole led set is aggregated in a single batched
  ``rollup_many`` pass (see ``docs/perf.md``).

Because the lookup and aggregate phases are separate read-lock holds, a
plan found in phase 1 can reference a chunk that a racing writer evicts
before phase 2 materialises it.  The aggregate phase therefore runs one
plan at a time through the manager's fused executor
(``AggregateCache._execute_plan``: the plan's cached leaves aggregated
straight to the target level) and *revalidates* per chunk: the executor
resolves every leaf before any kernel work, a missing one raises the
manager's "no longer cached" :class:`ReproError`, which triggers a
bounded re-plan, and only if the chunk is genuinely no longer computable
does it fall back to the backend.  The sequential manager's phase 2 is
the same per-plan loop; batching plans together under the read lock was
measured and is no faster (``docs/perf.md``).

``serve(queries, workers=N)`` drives a stream through a bounded thread
pool, returning per-query results in submission order.  With
``workers=1`` the results are identical — field for field — to running
the sequential manager over the same stream.

When the wrapped manager has ``degraded_mode`` set, a typed backend
fault (see :mod:`repro.faults`) during phase 3 degrades the query
instead of failing it: chunks still coverable by the cache are
aggregated under a read lock (exact answers), the rest are reported in
``QueryResult.unanswered``, and single-flight followers observe their
leader's failure without re-hitting the dead backend.  See
``docs/service.md`` for the locking design and ``docs/faults.md`` for
the degraded-result semantics.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from collections.abc import Iterable, Sequence
from dataclasses import replace

from repro.adaptive.canonical import canonicalize
from repro.adaptive.precompute import AdaptiveActions, AdaptivePrecomputer
from repro.approx.contract import QueryContract, resolve_contract
from repro.approx.estimator import CellEstimate
from repro.chunks.chunk import Chunk
from repro.core.manager import (
    AggregateCache,
    QueryLogRecord,
    QueryResult,
    _PlanExecution,
    _slice_chunk,
)
from repro.core.plans import PlanNode
from repro.faults.errors import FaultError
from repro.schema.cube import Level
from repro.service.rwlock import ReadWriteLock
from repro.service.singleflight import SingleFlightTable
from repro.util.errors import ReproError
from repro.util.timers import TimeBreakdown
from repro.obs import span
from repro.workload.query import Query

Key = tuple[Level, int]


class ConcurrentAggregateCache:
    """A thread-safe serving layer over one :class:`AggregateCache`.

    Parameters
    ----------
    manager:
        The sequential manager to serve.  The wrapper takes over all
        query traffic; driving the wrapped manager directly from another
        thread at the same time voids the consistency guarantees.
    max_replans:
        How many times a chunk whose plan was invalidated by a racing
        eviction is re-planned before falling back to the backend.
    flight_timeout_s:
        Liveness backstop for single-flight followers; only fires if a
        leader thread died between claiming and publishing a fetch.
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
        max_replans: int = 2,
        flight_timeout_s: float | None = 60.0,
        adaptive: AdaptivePrecomputer | None = None,
    ) -> None:
        self.manager = manager
        self.max_replans = max_replans
        self.flight_timeout_s = flight_timeout_s
        self.adaptive = adaptive
        self.flights = SingleFlightTable()
        self.replans = 0
        """Lifetime plan revalidations forced by racing evictions."""
        self._rw = ReadWriteLock()
        self._find_lock = threading.Lock()
        """Guards the strategy's per-find visit counters: ``find`` itself
        only reads count/cost state (safe under the read lock), but its
        ``last_find_visits`` bookkeeping is one shared slot."""
        self._inflight = 0
        self._inflight_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # pass-through introspection

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
    # one query, phase by phase

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
        contract: QueryContract | None = None,
    ) -> QueryResult:
        obs = self.manager.obs
        if self.adaptive is not None:
            self.adaptive.note_query(query)
        if obs.enabled:
            with self._inflight_lock:
                self._inflight += 1
                obs.metrics.gauge("service.queue_depth").set(self._inflight)
        try:
            with span(obs, "service", chunks=query.num_chunks):
                return self._query(query, numbers, contract)
        finally:
            if obs.enabled:
                with self._inflight_lock:
                    self._inflight -= 1
                    obs.metrics.gauge("service.queue_depth").set(
                        self._inflight
                    )

    def _query(
        self,
        query: Query,
        numbers: list[int] | None = None,
        contract: QueryContract | None = None,
    ) -> QueryResult:
        manager = self.manager
        obs = manager.obs
        effective = resolve_contract(contract, manager.degraded_mode)
        if numbers is None:
            numbers = query.chunk_numbers(manager.schema)
        breakdown = TimeBreakdown()
        visits = 0

        # Phase 1 — lookup, under the read lock.
        redirects = 0
        with self._rw.read_locked():
            with span(obs, "lookup") as lookup_span:
                plans: dict[int, PlanNode | None] = {}
                for number in numbers:
                    plan, found_visits = self._find(query.level, number)
                    plans[number] = plan
                    visits += found_visits
                if manager.use_cost_optimizer:
                    for number, plan in plans.items():
                        if plan is None or plan.is_leaf:
                            continue
                        if manager._backend_is_cheaper(
                            query.level, number, plan
                        ):
                            plans[number] = None
                            redirects += 1
        breakdown.lookup_ms = lookup_span.elapsed_ms

        # Phase 2 — aggregate, under a fresh read-lock hold.  A writer may
        # have squeezed in since phase 1, so every materialisation
        # revalidates its plan (see _materialise).
        results: dict[int, Chunk] = {}
        computed: list[Chunk] = []
        reinforcements: list[tuple[set[Key], float]] = []
        missing: list[int] = []
        direct_hits = 0
        tuples_aggregated = 0
        with self._rw.read_locked():
            with span(obs, "aggregate") as aggregate_span:
                for number, plan in plans.items():
                    if plan is None:
                        missing.append(number)
                        continue
                    chunk, execution, extra_visits = self._materialise(
                        query.level, number, plan
                    )
                    visits += extra_visits
                    if chunk is not None:
                        results[number] = chunk
                        direct_hits += 1
                    elif execution is not None:
                        out = execution.chunk
                        out.compute_cost = manager.cost_model.aggregation_ms(
                            execution.tuples_aggregated
                        )
                        results[number] = out
                        computed.append(out)
                        tuples_aggregated += execution.tuples_aggregated
                        reinforcements.append(
                            (execution.leaf_keys, out.compute_cost)
                        )
                    else:
                        missing.append(number)
        breakdown.aggregate_ms = aggregate_span.elapsed_ms

        # Phases 3 and 4 run under a flight guard: once this query has
        # claimed single-flight leaderships, ANY exception on the way to
        # the normal release must abandon them — failing unpublished
        # flights (waking waiters with the error) and retiring published
        # ones (whose chunks were never admitted).  Without the guard a
        # raise after publish strands the flight in the table forever.
        led_keys: list[Key] = []
        try:
            return self._finish_query(
                query, numbers, breakdown, results, computed,
                reinforcements, missing, direct_hits, tuples_aggregated,
                visits, redirects, led_keys, contract, effective,
            )
        except BaseException as exc:
            if led_keys:
                self.flights.abandon(led_keys, exc)
            raise

    def _finish_query(
        self,
        query: Query,
        numbers,
        breakdown: TimeBreakdown,
        results: dict[int, Chunk],
        computed: list[Chunk],
        reinforcements: list[tuple[set[Key], float]],
        missing: list[int],
        direct_hits: int,
        tuples_aggregated: int,
        visits: int,
        redirects: int,
        led_keys: list[Key],
        contract: QueryContract | None = None,
        effective: QueryContract | None = None,
    ) -> QueryResult:
        """Phases 3 (backend / single-flight) and 4 (admit + publish) of
        one query.  ``led_keys`` is the caller's flight guard list and is
        mutated in place so the caller can abandon claims on error."""
        manager = self.manager
        obs = manager.obs
        if effective is None:
            effective = resolve_contract(contract, manager.degraded_mode)
        approx_mode = (
            effective.wants_estimates and manager.approx is not None
        )

        # Phase 3 — backend, under no lock, deduplicated per chunk.
        led_chunks: list[Chunk] = []
        degraded = False
        any_missing = bool(missing)
        unanswered: tuple[int, ...] = ()
        estimated: list[CellEstimate] = []
        backend_count = 0
        if missing and approx_mode and effective.prefer_sample:
            # Estimate backend misses instead of fetching them (the
            # latency dial); estimation reads an immutable sample
            # snapshot, so no lock is needed.
            estimated, missing = manager._estimate_chunks(
                query.level, missing, effective
            )
        if missing:
            with span(obs, "backend", chunks=len(missing)) as backend_span:
                led_chunks, shared, failed_keys, charge_ms = (
                    self._fetch_missing(
                        query.level, missing, led_keys,
                        degrade_ok=effective.degrade_ok,
                    )
                )
                if led_keys:
                    backend_span.record(charge_ms)
            breakdown.backend_ms = backend_span.elapsed_ms
            for chunk in led_chunks:
                results[chunk.number] = chunk
            for (_, number), chunk in shared.items():
                results[number] = chunk
            backend_count = len(led_chunks) + len(shared)
            if failed_keys:
                # Degraded path: the backend (or another query's flight)
                # failed for these chunks — re-plan them cache-only under
                # a read lock, with the usual revalidation against racing
                # evictions.  Everything salvaged is exact.
                degraded = True
                leftovers: list[int] = []
                with self._rw.read_locked():
                    with span(obs, "aggregate") as salvage_span:
                        for level, number in failed_keys:
                            plan, found_visits = self._find(level, number)
                            visits += found_visits
                            if plan is None:
                                leftovers.append(number)
                                continue
                            chunk, execution, extra_visits = (
                                self._materialise(level, number, plan)
                            )
                            visits += extra_visits
                            if chunk is not None:
                                results[number] = chunk
                                direct_hits += 1
                            elif execution is not None:
                                out = execution.chunk
                                out.compute_cost = (
                                    manager.cost_model.aggregation_ms(
                                        execution.tuples_aggregated
                                    )
                                )
                                results[number] = out
                                computed.append(out)
                                tuples_aggregated += (
                                    execution.tuples_aggregated
                                )
                                reinforcements.append(
                                    (execution.leaf_keys, out.compute_cost)
                                )
                            else:
                                leftovers.append(number)
                breakdown.aggregate_ms += salvage_span.elapsed_ms
                if approx_mode and leftovers:
                    extra, leftovers = manager._estimate_chunks(
                        query.level, leftovers, effective
                    )
                    estimated.extend(extra)
                unanswered = tuple(leftovers)

        # Phase 4 — admit and maintain state, under the write lock.
        # Reinforcement first (see AggregateCache.query), then the
        # admissions; the single-flight entries this query led retire
        # only after its admissions settle, so late missers of the same
        # chunks share the fetch instead of repeating it.
        with self._rw.write_locked():
            with span(obs, "update") as update_span:
                state_updates = 0
                reinforcements_skipped = 0
                for leaf_keys, benefit in reinforcements:
                    _, skipped = manager.cache.reinforce(leaf_keys, benefit)
                    reinforcements_skipped += skipped
                state_updates += manager._admit_wave(computed + led_chunks)
            breakdown.update_ms = update_span.elapsed_ms
            if led_keys:
                self.flights.release(led_keys)
                led_keys.clear()
            manager.optimizer_redirects += redirects
            manager.queries_run += 1
            complete_hit = not estimated and (
                not any_missing or (degraded and not unanswered)
            )
            if complete_hit:
                manager.complete_hits += 1
            if degraded:
                manager.degraded_queries += 1
            if estimated:
                manager.approx_queries += 1
                order = {n: i for i, n in enumerate(numbers)}
                estimated.sort(key=lambda e: order[e.number])
            answered = [n for n in numbers if n in results]
            result = QueryResult(
                query=query,
                chunks=[results[n] for n in answered],
                complete_hit=complete_hit,
                breakdown=breakdown,
                direct_hits=direct_hits,
                aggregated=len(computed),
                from_backend=backend_count,
                tuples_aggregated=tuples_aggregated,
                lookup_visits=visits,
                state_updates=state_updates,
                reinforcements_skipped=reinforcements_skipped,
                degraded=degraded,
                coverage=len(answered) / len(numbers),
                unanswered=unanswered,
                contract=contract.mode if contract is not None else "exact",
                estimated=tuple(estimated),
            )
            if obs.enabled:
                manager._emit_query_event(result)
            if manager.keep_log:
                manager.query_log.append(
                    QueryLogRecord.from_result(manager, result)
                )
        return result

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

    # ------------------------------------------------------------------ #
    # internals

    def _find(self, level: Level, number: int) -> tuple[PlanNode | None, int]:
        """One strategy lookup plus its visit count, atomically."""
        with self._find_lock:
            plan = self.manager.strategy.find(level, number)
            return plan, self.manager.strategy.last_find_visits

    def _materialise(
        self, level: Level, number: int, plan: PlanNode
    ) -> tuple[Chunk | None, _PlanExecution | None, int]:
        """Turn a plan into a chunk, revalidating against racing evictions.

        Returns ``(direct_chunk, execution, extra_visits)`` — exactly one
        of the first two is non-None on success; both are None when the
        chunk must fall back to the backend.
        """
        manager = self.manager
        obs = manager.obs
        visits = 0
        replans = 0
        while True:
            if plan.is_leaf:
                try:
                    return manager.cache.get(level, number), None, visits
                except ReproError:
                    pass
            else:
                try:
                    return None, manager._execute_plan(plan), visits
                except ReproError:
                    pass
            # The plan referenced a chunk a racing writer evicted between
            # (re)planning and materialisation: re-plan rather than fail
            # the query (bounded, then fall back to the backend).
            replans += 1
            if replans > self.max_replans:
                return None, None, visits
            self.replans += 1
            if obs.enabled:
                obs.metrics.counter("service.replans").inc()
            plan, found_visits = self._find(level, number)
            visits += found_visits
            if plan is None:
                return None, None, visits

    def _fetch_missing(
        self,
        level: Level,
        missing: Sequence[int],
        led_keys: list[Key],
        degrade_ok: bool | None = None,
    ) -> tuple[list[Chunk], dict[Key, Chunk], list[Key], float]:
        """Resolve the missing chunks through the single-flight table.

        ``led_keys`` is the caller's (initially empty) flight guard: the
        keys this query claimed leadership of are appended in place, so
        they are visible to the caller's abandon handler even if this
        method raises.  Returns the chunks fetched for the led keys, the
        follower chunks shared from other queries' flights, the keys
        whose resolution failed with a typed backend fault (degraded
        mode only — otherwise the fault propagates), and the
        milliseconds to charge the backend phase (the cost model's
        simulated time for the led fetch; follower waits are wall-clock
        and land in the span's measured time only when nothing was led).

        A failed led fetch fails ONLY the led flights; joined flights
        are still awaited, because their leaders' backends may well have
        succeeded.  A failed follower wait, conversely, does not disturb
        this query's own led flights.
        """
        manager = self.manager
        obs = manager.obs
        degrade = (
            manager.degraded_mode if degrade_ok is None else degrade_ok
        )
        keys: list[Key] = [(level, number) for number in missing]
        claimed, joined = self.flights.claim(keys)
        led_keys.extend(claimed)
        led_chunks: list[Chunk] = []
        failed: list[Key] = []
        charge_ms = 0.0
        if claimed:
            try:
                led_chunks, stats = manager.backend.fetch(claimed)
            except FaultError as exc:
                self.flights.fail(claimed, exc)
                led_keys.clear()
                if not degrade:
                    raise
                failed.extend(claimed)
            except BaseException as exc:
                self.flights.fail(claimed, exc)
                led_keys.clear()
                raise
            else:
                charge_ms = stats.total_ms
                for key, chunk in zip(claimed, led_chunks):
                    self.flights.publish(key, chunk)
        if joined and obs.enabled:
            obs.metrics.counter("service.singleflight.shared").inc(
                len(joined)
            )
        shared: dict[Key, Chunk] = {}
        for key, flight in joined.items():
            try:
                shared[key] = self.flights.wait(
                    flight, self.flight_timeout_s
                )
            except FaultError:
                if not degrade:
                    raise
                failed.append(key)
        return led_chunks, shared, failed, charge_ms
