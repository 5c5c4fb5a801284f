"""The aggregate-aware cache manager — the middle tier of the paper's
three-tier system.

For every query: split it into chunks; look each chunk up with the
configured strategy (direct hit, computable-by-aggregation, or miss);
aggregate the computable ones in the cache; fetch all misses from the
backend in a single batched request; admit the new chunks (maintaining the
strategy's count/cost state); and reinforce the chunk groups that were
aggregated (two-level policy, rule 2).  Per-query wall-clock is split into
the paper's lookup / aggregation / update / backend phases (Figure 10).

:meth:`AggregateCache.query` is the only implementation of those phases
and is safe to call from any number of threads: lookup and aggregation
run under a read lock, admission under the write lock, and the backend
phase under no lock behind a single-flight table (``docs/service.md``).
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

# rollup_chunks is unused here but stays bound: bench/run.py wraps both
# names on this module to trace the kernel.
from repro.aggregation.aggregate import rollup_chunks, rollup_many  # noqa: F401
from repro.approx.answering import ApproxAnswerer, make_answerer
from repro.approx.contract import QueryContract, resolve_contract
from repro.approx.estimator import CellEstimate
from repro.backend.engine import BackendDatabase
from repro.cache.preload import choose_preload_level
from repro.cache.replacement import make_policy
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.store import ChunkCache, net_movements
from repro.chunks.chunk import Chunk, ChunkOrigin
from repro.core.costs import CostStore
from repro.core.counts import CountStore
from repro.core.plans import PlanCache, PlanNode
from repro.core.rwlock import ReadWriteLock
from repro.core.singleflight import SingleFlightTable
from repro.core.sizes import SizeEstimator
from repro.core.strategies import make_strategy
from repro.core.strategies.base import LookupStrategy
from repro.faults.errors import FaultError
from repro.obs import NULL_OBS, Observability, span
from repro.schema.cube import CubeSchema, Level
from repro.util.errors import ReproError
from repro.util.timers import TimeBreakdown
from repro.workload.query import Query

Key = tuple[Level, int]

_MAX_REPLANS = 2
"""How many times :meth:`AggregateCache._materialise` re-plans a chunk
whose plan a racing eviction invalidated before leaving it to the
backend."""


@dataclass
class QueryResult:
    """Outcome and accounting of one query."""

    query: Query
    chunks: list[Chunk]
    complete_hit: bool
    """True when the whole query was answered from the cache (directly or
    by aggregation) — the paper's 'complete hit'."""
    breakdown: TimeBreakdown
    direct_hits: int = 0
    aggregated: int = 0
    from_backend: int = 0
    tuples_aggregated: int = 0
    """Rows fed to the aggregation kernel for this query's computed
    chunks: every plan's cached leaf rows once, plus the per-level
    partial results of a plan whose leaves span several levels (its merge
    pass).  Intermediate lattice hops are never materialised, so for a
    plan of more than one hop this is normally well below its
    hop-by-hop ``Cost``."""
    lookup_visits: int = 0
    state_updates: int = 0
    reinforcements_skipped: int = 0
    """Group-reinforcement targets that were no longer resident when the
    reinforcement landed.  Always 0 in sequential use (reinforcement is
    applied before this query's own admissions can evict anything); under
    concurrent serving a racing eviction can make it positive."""
    degraded: bool = False
    """True when the backend failed during this query and the answer was
    assembled from the cache alone (``degraded_mode``).  Every chunk that
    *is* present is exact; ``unanswered`` lists the ones that are not."""
    coverage: float = 1.0
    """Fraction of the query's chunks answered *exactly*.  Populated on
    every result — 1.0 with ``unanswered == ()`` on a fully exact
    answer — so downstream consumers never need a degraded/approx
    branch."""
    unanswered: tuple[int, ...] = ()
    """Chunk numbers neither answered exactly nor estimated (missing
    from ``chunks`` and ``estimated``); empty on exact answers."""
    contract: str = "exact"
    """The requested contract mode (``exact`` when none was passed —
    the manager's ``degraded_mode`` may still degrade such queries)."""
    estimated: tuple[CellEstimate, ...] = ()
    """Per-chunk sample estimates (approx contracts only), in plan
    order.  ``chunks`` + ``estimated`` + ``unanswered`` partition the
    query's chunk numbers exactly."""

    def total_value(self) -> float:
        """Grand total of the measure over the exactly answered region."""
        return sum(chunk.total() for chunk in self.chunks)

    @property
    def answered_fraction(self) -> float:
        """Fraction answered exactly *or* approximately."""
        total = self.query.num_chunks
        return (
            (total - len(self.unanswered)) / total if total else 1.0
        )

    def estimate_total(self):
        """SUM over the whole answered region — exact chunk totals plus
        sample estimates — with its combined 95% half-width (0.0 when
        nothing was estimated).  Returns ``(estimate, half_width)``."""
        from repro.approx.estimator import combine_estimates

        exact = sum(chunk.total() for chunk in self.chunks)
        if not self.estimated:
            return exact, 0.0
        region = combine_estimates(self.estimated)
        return exact + region.sum_est, region.sum_half

    @property
    def total_ms(self) -> float:
        return self.breakdown.total_ms


@dataclass
class _PlanExecution:
    """What :meth:`AggregateCache._execute_plan` produced for one plan."""

    chunk: Chunk
    leaf_keys: set[Key] = field(default_factory=set)
    """The cached chunks the plan read (the group two-level rule 2
    reinforces)."""
    tuples_aggregated: int = 0
    """Rows actually fed to the kernel: leaf rows, plus merge-pass rows
    when the leaves lie on more than one level."""


@dataclass
class _Gathered:
    """What one query has collected from the cache on its way to the
    admission phase."""

    results: dict[int, Chunk] = field(default_factory=dict)
    computed: list[Chunk] = field(default_factory=list)
    """The aggregated ones among ``results`` — admitted in phase 4."""
    reinforcements: list[tuple[set[Key], float]] = field(default_factory=list)
    """``(leaf group, benefit)`` per aggregated chunk (two-level rule 2)."""
    direct_hits: int = 0
    tuples_aggregated: int = 0
    visits: int = 0


@dataclass(frozen=True)
class RefreshOutcome:
    """What one warehouse refresh did to the backend and the cache."""

    affected: tuple[int, ...]
    """Base chunk numbers the append changed."""
    patched: int = 0
    """Resident chunks patched in place by the delta roll-up wave."""
    evicted: int = 0
    """Capacity-overflow victims of the patch wave (patches grow
    chunks)."""
    generation: int = 0
    """The backend's refresh generation after the append."""
    tuples_added: int = 0
    """Net growth of the backend's distinct base-cell count."""


class AggregateCache:
    """An active chunk cache in front of a backend database.

    :meth:`query` (and what is built on it: :meth:`range_query`,
    :meth:`query_spec`) is thread-safe — it takes the manager's
    readers-writer lock phase by phase.  The maintenance entry points
    (:meth:`refresh_from_backend`, :meth:`invalidate_base_chunks`,
    preloading, adaptive idle cycles) take no lock themselves: with
    queries in flight on other threads, call them through
    :class:`~repro.service.ConcurrentAggregateCache`, which runs them
    under the write lock.

    Parameters
    ----------
    schema, backend:
        The cube and the backend serving its fact table.
    capacity_bytes:
        Cache budget.
    strategy:
        Lookup strategy name (``esm``/``esmc``/``vcm``/``vcmc``/``noagg``)
        or a ready instance.
    policy:
        Replacement policy name (``benefit``/``two_level``) or instance.
    preload:
        Seed the cache with the best-fitting group-by (two-level rule 3).
    preload_headroom:
        Fraction of the capacity the pre-loaded group-by may occupy;
        below 1.0 leaves room for query-driven chunks before churn starts
        evicting the pre-loaded group.
    visit_budget:
        Optional per-lookup visit cap for the exhaustive strategies.
    use_cost_optimizer:
        The paper's Section 5.2 application of VCMC's maintained costs:
        when a chunk *is* computable from the cache but the estimated
        aggregation cost exceeds the estimated backend cost, send it to
        the backend anyway.  Off by default (matching the paper's
        experiments, which always aggregate when possible).
    plan_cache:
        Build a generation-stamped :class:`~repro.core.plans.PlanCache`
        (on by default) and put it in front of a strategy whose ``find``
        walks the lattice (ESM, ESMC: ``memoise_find``): repeated lookups
        over lattice regions with no intervening relevant cache movement
        reuse their memoised plan/verdict instead of re-walking the
        lattice.  Plans stay exactly as correct as fresh ones — any
        insert or evict in a chunk region that could affect a memoised
        answer invalidates it.  VCM, VCMC and noagg answer from O(1)
        reads and get no memo; :attr:`plan_cache` still holds the
        (unused) instance so its ``stats()`` answer for every strategy.
        Pass a ready :class:`PlanCache` instance to control its region
        granularity (``max_regions_per_level=1`` reproduces the legacy
        per-level invalidation).
    degraded_mode:
        When the backend phase fails with a typed fault
        (:class:`~repro.faults.errors.FaultError` — transient errors,
        timeouts, corrupt payloads, an open circuit breaker), answer the
        query from the cache alone instead of raising: chunks the
        strategy can still compute are aggregated (exact answers), the
        rest are reported in :attr:`QueryResult.unanswered` with
        ``degraded=True`` and ``coverage < 1``.  Off by default — the
        pre-existing raise-through behaviour is unchanged unless opted
        in.  Pair with :class:`~repro.backend.ResilientBackend` so only
        post-retry failures degrade.
    approx:
        Enable the approximate answering tier (see :mod:`repro.approx`
        and ``docs/approx.md``): ``True`` maintains a reservoir sample
        at the default fraction, a float sets the fraction, a ready
        :class:`~repro.approx.answering.ApproxAnswerer` is used as-is.
        With it attached, ``query(..., contract=approx(...))`` fills
        backend misses (``prefer_sample``) or fault-unanswered chunks
        with Horvitz–Thompson estimates carrying 95% CIs.  The sample
        follows appends through :meth:`refresh_from_backend`.  ``None``
        (default) disables estimation; non-approx queries are
        bit-identical either way.
    approx_seed:
        Seed of the reservoir when ``approx`` asks this manager to
        build one (ignored for a ready answerer).
    obs:
        An :class:`~repro.obs.Observability` handle, shared with the
        chunk store, the replacement policy and the lookup strategy.
        Defaults to the disabled no-op instance.
    """

    def __init__(
        self,
        schema: CubeSchema,
        backend: BackendDatabase,
        capacity_bytes: int,
        strategy: str | LookupStrategy = "vcmc",
        policy: str | ReplacementPolicy = "two_level",
        preload: bool = True,
        preload_headroom: float = 1.0,
        visit_budget: int | None = None,
        sizes: SizeEstimator | None = None,
        use_cost_optimizer: bool = False,
        plan_cache: bool | PlanCache = True,
        degraded_mode: bool = False,
        approx: "bool | float | ApproxAnswerer | None" = None,
        approx_seed: int = 7,
        obs: Observability | None = None,
    ) -> None:
        self.schema = schema
        self.backend = backend
        self.cost_model = backend.cost_model
        self.sizes = sizes or SizeEstimator(schema, backend.num_tuples)
        self.obs = obs or NULL_OBS
        if isinstance(policy, str):
            policy = make_policy(policy)
        self.cache = ChunkCache(
            capacity_bytes, policy, schema.bytes_per_tuple, obs=self.obs
        )
        if isinstance(strategy, str):
            strategy = make_strategy(
                strategy, schema, self.cache, self.sizes, visit_budget
            )
        self.strategy = strategy
        self.strategy.obs = self.obs
        self.plan_cache: PlanCache | None = self.strategy.plan_cache
        if isinstance(plan_cache, PlanCache):
            self.plan_cache = plan_cache
        elif plan_cache and self.plan_cache is None:
            self.plan_cache = PlanCache(schema)
        if self.strategy.memoise_find:
            self.strategy.plan_cache = self.plan_cache
        self.use_cost_optimizer = use_cost_optimizer
        self.optimizer_redirects = 0
        """Chunks sent to the backend despite being cache-computable."""
        self.degraded_mode = degraded_mode
        self.degraded_queries = 0
        """Queries answered (fully or partially) without the backend
        after a backend fault (``degraded_mode`` only)."""
        self.approx: ApproxAnswerer | None = make_answerer(
            approx, schema, backend, seed=approx_seed
        )
        self.approx_queries = 0
        """Queries that returned at least one sample estimate."""
        self.queries_run = 0
        self.complete_hits = 0
        self._rw = ReadWriteLock()
        self.flights = SingleFlightTable()
        self.flight_timeout_s: float | None = 60.0
        """Liveness backstop for single-flight followers; only fires if a
        leader thread died between claiming and publishing a fetch."""
        self.replans = 0
        """Lifetime plan revalidations forced by racing evictions; stays
        0 while queries come from one thread."""
        self._find_lock = threading.Lock()
        self.preloaded_level: Level | None = None
        if preload:
            self.preloaded_level = self.preload(headroom=preload_headroom)

    # ------------------------------------------------------------------ #
    # pre-loading

    def preload(self, headroom: float = 1.0) -> Level | None:
        """Seed the cache with the group-by that fits and has the most
        lattice descendants.  Returns the chosen level (or None)."""
        level = choose_preload_level(
            self.schema, self.sizes, self.cache.capacity_bytes, headroom=headroom
        )
        if level is not None:
            self.preload_levels([level])
        return level

    def preload_levels(self, levels: list[Level]) -> list[Level]:
        """Pre-load several whole group-bys (e.g. an HRU-selected view
        set) as one admission wave; returns the levels whose chunks were
        all admitted.

        Completeness is judged only after *every* chunk is in: an insert
        later in the sequence may evict an earlier chunk of the same (or
        an earlier) level, so a per-chunk membership check taken mid-loop
        can report a level complete that no longer is.
        """
        numbers_of: dict[Level, list[int]] = {}
        chunks: list[Chunk] = []
        for level in levels:
            numbers = numbers_of.setdefault(level, [])
            for chunk in self.backend.compute_level(level):
                chunk.origin = ChunkOrigin.PRELOAD
                chunks.append(chunk)
                numbers.append(chunk.number)
        self._admit_wave(chunks)
        loaded = [
            level
            for level, numbers in numbers_of.items()
            if all(self.cache.contains(level, n) for n in numbers)
        ]
        if loaded and self.preloaded_level is None:
            self.preloaded_level = loaded[0]
        return loaded

    # ------------------------------------------------------------------ #
    # the query path

    def query(
        self,
        query: Query,
        contract: QueryContract | None = None,
        *,
        numbers: Sequence[int] | None = None,
    ) -> QueryResult:
        """Answer one query, returning its chunks and full accounting;
        safe to call from any number of threads.

        ``contract`` selects the per-query answering tier (see
        :mod:`repro.approx.contract`): ``None`` keeps the legacy
        behaviour — ``degraded_mode`` decides between raise-through and
        exact-partial answers — while an explicit contract overrides
        the flag for this query, and an ``approx`` contract additionally
        estimates what cannot be answered exactly (requires ``approx=``
        at construction).

        ``numbers`` restricts the answer to those chunk numbers of
        ``query.level`` (non-empty; the shard-local slice of a routed
        query); the result's accounting is then relative to that slice.
        """
        level = query.level
        if numbers is None:
            numbers = query.chunk_numbers(self.schema)
        effective = resolve_contract(contract, self.degraded_mode)
        approx_mode = effective.wants_estimates and self.approx is not None
        breakdown = TimeBreakdown()
        gathered = _Gathered()
        obs = self.obs

        # Phase 1 — cache lookup, under the read lock: plan every chunk
        # or mark it missing.
        redirects = 0
        with self._rw.read_locked(), span(obs, "lookup") as lookup_span:
            plans = self._plan(level, numbers, gathered)
            if self.use_cost_optimizer:
                for number, plan in plans.items():
                    if plan is None or plan.is_leaf:
                        continue
                    if self._backend_is_cheaper(level, number, plan):
                        plans[number] = None
                        redirects += 1
        breakdown.lookup_ms = lookup_span.elapsed_ms

        # Phase 2 — aggregate computable chunks inside the cache, under a
        # fresh read-lock hold.  A writer may have squeezed in since phase
        # 1, so every materialisation revalidates its plan (_materialise).
        with self._rw.read_locked(), span(obs, "aggregate") as aggregate_span:
            generation = self.backend.refresh_generation
            missing = self._gather(level, plans, gathered)
        breakdown.aggregate_ms = aggregate_span.elapsed_ms
        any_missing = bool(missing)

        estimated: list[CellEstimate] = []
        if missing and approx_mode and effective.prefer_sample:
            # The latency dial: estimate backend misses instead of
            # fetching them (from an immutable sample snapshot, so no
            # lock).  Chunks whose estimate is wider than max_rel_error
            # still go to the backend.
            estimated, missing = self._estimate_chunks(
                level, missing, effective
            )

        # Phases 3 and 4 run under a flight guard: once this query has
        # claimed single-flight leaderships, ANY exception on the way to
        # the normal release must abandon them — failing unpublished
        # flights (waking waiters with the error) and retiring published
        # ones (whose chunks were never admitted).  Without the guard a
        # raise after publish strands the flight in the table forever.
        led_keys: list[Key] = []
        led_chunks: list[Chunk] = []
        from_backend = 0
        degraded = False
        unanswered: tuple[int, ...] = ()
        try:
            # Phase 3 — one batched backend request for everything
            # missing, under no lock, deduplicated per chunk.  The
            # phase's charge is the cost model's simulated milliseconds
            # of the led fetch, not local wall-clock.
            if missing:
                with span(obs, "backend", chunks=len(missing)) as backend_span:
                    led_chunks, shared, failed, charge_ms = self._fetch_missing(
                        level, missing, led_keys, effective.degrade_ok
                    )
                    if led_keys:
                        backend_span.record(charge_ms)
                breakdown.backend_ms = backend_span.elapsed_ms
                for chunk in led_chunks:
                    gathered.results[chunk.number] = chunk
                for (_, number), chunk in shared.items():
                    gathered.results[number] = chunk
                from_backend = len(led_chunks) + len(shared)
                if failed:
                    # Degraded: the backend (or another query's flight)
                    # failed for these chunks.  Re-running the lookup
                    # matters even though phase 1 said 'miss': the cost
                    # optimizer may have redirected a computable chunk,
                    # and the cache may have gained chunks since.
                    # Everything salvaged is exact; what neither backend
                    # nor cache could answer is estimated when the
                    # contract allows, and only the rest stays unanswered.
                    degraded = True
                    failed_numbers = [number for _, number in failed]
                    with self._rw.read_locked(), span(obs, "aggregate") as salvage_span:
                        replanned = self._plan(level, failed_numbers, gathered)
                        leftovers = self._gather(level, replanned, gathered)
                    breakdown.aggregate_ms += salvage_span.elapsed_ms
                    if approx_mode and leftovers:
                        extra, leftovers = self._estimate_chunks(
                            level, leftovers, effective
                        )
                        estimated.extend(extra)
                    unanswered = tuple(leftovers)

            # Phase 4 — admit new chunks and maintain count/cost state,
            # under the write lock.  Reinforcement is applied BEFORE the
            # admissions: an insert can evict the very leaves that were
            # just aggregated, and reinforcing first both protects the
            # group during the victim sweep and never silently drops a
            # reinforcement for an already-evicted leaf.  The flights this
            # query led retire only after its admissions settle, so late
            # missers of the same chunks share the fetch instead of
            # repeating it.
            with self._rw.write_locked():
                with span(obs, "update") as update_span:
                    reinforcements_skipped = 0
                    for leaf_keys, benefit in gathered.reinforcements:
                        _, skipped = self.cache.reinforce(leaf_keys, benefit)
                        reinforcements_skipped += skipped
                    admitted = gathered.computed + led_chunks
                    if self.backend.refresh_generation != generation:
                        # A refresh landed after phase 2 read the cache:
                        # these chunks may predate its patch wave, and
                        # admitting them would put an old generation
                        # beside patched residents.  This query's answer
                        # is still one generation's, chunk by chunk.
                        admitted = []
                    state_updates = self._admit_wave(admitted)
                breakdown.update_ms = update_span.elapsed_ms
                if led_keys:
                    self.flights.release(led_keys)
                    led_keys.clear()
                self.optimizer_redirects += redirects
                self.queries_run += 1
                complete_hit = not estimated and (
                    not any_missing
                    or (degraded and not unanswered and from_backend == 0)
                )
                if complete_hit:
                    self.complete_hits += 1
                if degraded:
                    self.degraded_queries += 1
                if estimated:
                    self.approx_queries += 1
                    order = {n: i for i, n in enumerate(numbers)}
                    estimated.sort(key=lambda e: order[e.number])
                chunks = [
                    gathered.results[n]
                    for n in numbers
                    if n in gathered.results
                ]
                result = QueryResult(
                    query=query,
                    chunks=chunks,
                    complete_hit=complete_hit,
                    breakdown=breakdown,
                    direct_hits=gathered.direct_hits,
                    aggregated=len(gathered.computed),
                    from_backend=from_backend,
                    tuples_aggregated=gathered.tuples_aggregated,
                    lookup_visits=gathered.visits,
                    state_updates=state_updates,
                    reinforcements_skipped=reinforcements_skipped,
                    degraded=degraded,
                    coverage=len(chunks) / len(numbers),
                    unanswered=unanswered,
                    contract=contract.mode if contract is not None else "exact",
                    estimated=tuple(estimated),
                )
                if obs.enabled:
                    self._emit_query_event(result)
        except BaseException as exc:
            if led_keys:
                self.flights.abandon(led_keys, exc)
            raise
        return result

    def _find(self, level: Level, number: int) -> tuple[PlanNode | None, int]:
        """One strategy lookup plus its visit count, atomically: ``find``
        only reads count/cost state (safe under the read lock), but its
        ``last_find_visits`` bookkeeping is one shared slot."""
        with self._find_lock:
            plan = self.strategy.find(level, number)
            return plan, self.strategy.last_find_visits

    def _plan(
        self, level: Level, numbers: Sequence[int], gathered: _Gathered
    ) -> dict[int, PlanNode | None]:
        """Look every chunk up; the caller holds the read lock."""
        plans: dict[int, PlanNode | None] = {}
        for number in numbers:
            plans[number], visits = self._find(level, number)
            gathered.visits += visits
        return plans

    def _gather(
        self,
        level: Level,
        plans: dict[int, PlanNode | None],
        gathered: _Gathered,
    ) -> list[int]:
        """Materialise every planned chunk into ``gathered`` — each plan
        fused from its cached leaves (see :meth:`_execute_plan`) — and
        return the numbers the cache cannot answer.  The caller holds the
        read lock."""
        missing: list[int] = []
        for number, plan in plans.items():
            chunk = execution = None
            if plan is not None:
                chunk, execution, visits = self._materialise(
                    level, number, plan
                )
                gathered.visits += visits
            if chunk is not None:
                gathered.results[number] = chunk
                gathered.direct_hits += 1
            elif execution is not None:
                out = execution.chunk
                out.compute_cost = self.cost_model.aggregation_ms(
                    execution.tuples_aggregated
                )
                gathered.results[number] = out
                gathered.computed.append(out)
                gathered.tuples_aggregated += execution.tuples_aggregated
                gathered.reinforcements.append(
                    (execution.leaf_keys, out.compute_cost)
                )
            else:
                missing.append(number)
        return missing

    def _materialise(
        self, level: Level, number: int, plan: PlanNode
    ) -> tuple[Chunk | None, _PlanExecution | None, int]:
        """Turn a plan into a chunk, revalidating against racing evictions.

        Lookup and aggregation are separate read-lock holds, so a plan
        found in phase 1 can reference a chunk a racing writer evicted
        since.  :meth:`_execute_plan` resolves every leaf before any
        kernel work and raises on a missing one; the chunk is then
        re-planned (at most ``_MAX_REPLANS`` times) rather than failing
        the query.  Returns ``(direct_chunk, execution, extra_visits)`` —
        exactly one of the first two is non-None on success; both are
        None when the chunk must fall back to the backend.
        """
        visits = 0
        replans = 0
        while True:
            try:
                if plan.is_leaf:
                    return self.cache.get(level, number), None, visits
                return None, self._execute_plan(plan), visits
            except ReproError:
                pass
            replans += 1
            if replans > _MAX_REPLANS:
                return None, None, visits
            self.replans += 1
            if self.obs.enabled:
                self.obs.metrics.counter("service.replans").inc()
            plan, found_visits = self._find(level, number)
            visits += found_visits
            if plan is None:
                return None, None, visits

    def _fetch_missing(
        self,
        level: Level,
        missing: Sequence[int],
        led_keys: list[Key],
        degrade_ok: bool,
    ) -> tuple[list[Chunk], dict[Key, Chunk], list[Key], float]:
        """Resolve the missing chunks through the single-flight table.

        ``led_keys`` is the caller's (initially empty) flight guard: the
        keys this query claimed leadership of are appended in place, so
        they are visible to the caller's abandon handler even if this
        method raises.  Returns the chunks fetched for the led keys, the
        follower chunks shared from other queries' flights, the keys
        whose resolution failed with a typed backend fault (only when
        ``degrade_ok`` — otherwise the fault propagates), and the
        milliseconds to charge the backend phase (the cost model's
        simulated time for the led fetch; follower waits are wall-clock
        and land in the span's measured time only when nothing was led).

        A failed led fetch fails ONLY the led flights; joined flights
        are still awaited, because their leaders' backends may well have
        succeeded.  A failed follower wait, conversely, does not disturb
        this query's own led flights.
        """
        keys: list[Key] = [(level, number) for number in missing]
        claimed, joined = self.flights.claim(keys)
        led_keys.extend(claimed)
        led_chunks: list[Chunk] = []
        failed: list[Key] = []
        charge_ms = 0.0
        if claimed:
            try:
                led_chunks, stats = self.backend.fetch(claimed)
            except BaseException as exc:
                self.flights.fail(claimed, exc)
                led_keys.clear()
                if not (degrade_ok and isinstance(exc, FaultError)):
                    raise
                failed.extend(claimed)
            else:
                charge_ms = stats.total_ms
                for key, chunk in zip(claimed, led_chunks):
                    self.flights.publish(key, chunk)
        if joined and self.obs.enabled:
            self.obs.metrics.counter("service.singleflight.shared").inc(
                len(joined)
            )
        shared: dict[Key, Chunk] = {}
        for key, flight in joined.items():
            try:
                shared[key] = self.flights.wait(flight, self.flight_timeout_s)
            except FaultError:
                if not degrade_ok:
                    raise
                failed.append(key)
        return led_chunks, shared, failed, charge_ms

    def _estimate_chunks(
        self,
        level: Level,
        numbers: list[int],
        contract: QueryContract,
    ) -> tuple[list[CellEstimate], list[int]]:
        """Estimate the given chunks from the sample, splitting them into
        (accepted estimates, numbers whose estimate the contract's
        ``max_rel_error`` rejects)."""
        assert self.approx is not None
        estimates = self.approx.estimate(level, numbers)
        tolerance = contract.max_rel_error
        if tolerance is None:
            return estimates, []
        kept: list[CellEstimate] = []
        rejected: list[int] = []
        for number, estimate in zip(numbers, estimates):
            if estimate.rel_error <= tolerance:
                kept.append(estimate)
            else:
                rejected.append(number)
        return kept, rejected

    def _emit_query_event(self, result: QueryResult) -> None:
        """Record one query's accounting into the observability layer."""
        obs = self.obs
        b = result.breakdown
        obs.metrics.counter("query.count").inc()
        if result.complete_hit:
            obs.metrics.counter("query.complete_hits").inc()
        obs.metrics.counter("query.tuples_aggregated").inc(
            result.tuples_aggregated
        )
        obs.metrics.histogram("query.total_ms").observe(b.total_ms)
        obs.metrics.histogram("query.lookup_visits").observe(
            result.lookup_visits
        )
        obs.metrics.gauge("cache.used_bytes").set(self.cache.used_bytes)
        # Degraded/approx *counters* only move on degraded/approx
        # queries, so a fault-free exact run's metrics are bit-identical
        # to a build without those paths at all.  The event's coverage,
        # unanswered and estimated fields, by contrast, are populated on
        # EVERY query (1.0 / [] / 0 on exact answers) — consumers need
        # no branch, and the fault-free streams still compare equal
        # because both sides carry the same uniform fields.
        degraded_fields = {}
        if result.degraded:
            obs.metrics.counter("backend.degraded_queries").inc()
            obs.metrics.counter("backend.degraded_answers").inc(
                len(result.chunks)
            )
            obs.metrics.counter("backend.unanswered_chunks").inc(
                len(result.unanswered)
            )
            degraded_fields = dict(degraded=True)
        if result.estimated:
            obs.metrics.counter("approx.queries").inc()
            obs.metrics.counter("approx.estimated_chunks").inc(
                len(result.estimated)
            )
        obs.tracer.emit(
            "query",
            coverage=result.coverage,
            unanswered=list(result.unanswered),
            estimated=len(result.estimated),
            query_seq=self.queries_run,
            level=list(result.query.level),
            chunks=result.query.num_chunks,
            complete_hit=result.complete_hit,
            direct_hits=result.direct_hits,
            aggregated=result.aggregated,
            from_backend=result.from_backend,
            lookup_ms=b.lookup_ms,
            aggregate_ms=b.aggregate_ms,
            update_ms=b.update_ms,
            backend_ms=b.backend_ms,
            tuples_aggregated=result.tuples_aggregated,
            lookup_visits=result.lookup_visits,
            state_updates=result.state_updates,
            reinforcements_skipped=result.reinforcements_skipped,
            cache_used_bytes=self.cache.used_bytes,
            **degraded_fields,
        )

    def invalidate_base_chunks(self, numbers: list[int]) -> int:
        """Evict every cached chunk whose data overlaps the given base
        chunks — forced eviction, pins included.  Count/cost state is
        maintained through the ordinary eviction path, so Property 1
        keeps holding.  Returns the number of chunks evicted."""
        victims: list[Key] = [
            (level, number)
            for level, targets in self._overlapping_residents(
                set(numbers)
            ).items()
            for number, _ in targets
        ]
        if victims:
            self.cache.evict_many(victims)
            self.strategy.on_evict_many(victims)
        return len(victims)

    def refresh_from_backend(self, facts, mode: str = "delta") -> RefreshOutcome:
        """Load new facts into the backend and patch the cache in one
        step.

        The appended batch is clustered into base-chunk deltas and rolled
        up the lattice: every resident chunk whose data overlaps an
        affected base chunk is patched *in place* by merging its delta
        roll-up into the cached payload, preserving residency (and pins,
        CLOCK positions, benefits).  This is exact for the additive
        aggregates the cube stores (SUM in ``values``/``extras``, COUNT
        in ``counts``; AVG derives from them) — see ``docs/updates.md``
        for the exactness argument.  Only capacity-overflow victims are
        evicted, through the ordinary eviction cascades, so Count/Cost
        state stays exact.  The size estimator is recalibrated
        incrementally from the batch and the cost store's size-derived
        surface is rebuilt, so cost/benefit decisions track the grown
        warehouse.

        ``mode`` accepts only ``"delta"``; any other value raises.
        """
        if mode != "delta":
            raise ReproError(
                f"unknown refresh mode {mode!r}; only 'delta' is supported"
            )
        append = self.backend.apply_append(facts)
        if self.approx is not None:
            # The reservoir sees every appended record, so estimates
            # keep tracking the grown warehouse (HT over the extended
            # record stream — see docs/approx.md).
            self.approx.observe_append(facts)
        patched, evicted = self._patch_wave(append.deltas)
        self.sizes.observe_append(facts, self.backend.num_tuples)
        costs = getattr(self.strategy, "costs", None)
        if costs is not None:
            costs.recalibrate(self.cache.resident_keys())
        outcome = RefreshOutcome(
            affected=tuple(append.affected),
            patched=patched,
            evicted=evicted,
            generation=append.generation,
            tuples_added=append.tuples_added,
        )
        if self.obs.enabled:
            self.obs.metrics.counter("refresh.count").inc()
            self.obs.metrics.counter("refresh.patched").inc(patched)
            self.obs.metrics.counter("refresh.evicted").inc(evicted)
            self.obs.tracer.emit(
                "refresh",
                affected=len(append.affected),
                patched=patched,
                evicted=evicted,
                generation=append.generation,
            )
        return outcome

    def _overlapping_residents(
        self, affected: set[int]
    ) -> dict[Level, list[tuple[int, list[int]]]]:
        """Resident chunks whose data overlaps the affected base chunks,
        grouped by level: ``{level: [(number, overlapping base numbers)]}``
        in resident-set order (deterministic under sequential use)."""
        base = self.schema.base_level
        by_level: dict[Level, list[tuple[int, list[int]]]] = {}
        for level, number in self.cache.resident_keys():
            covering = self.schema.get_parent_chunk_numbers(
                level, number, base
            )
            overlap = [int(n) for n in covering if int(n) in affected]
            if overlap:
                by_level.setdefault(level, []).append((number, overlap))
        return by_level

    def _patch_wave(self, deltas: dict[int, Chunk]) -> tuple[int, int]:
        """Roll the append's base-chunk deltas up to every overlapping
        resident chunk and merge them into the cached payloads in place.

        Two batched kernel passes per touched level: one
        :func:`rollup_many` aggregates each target's deltas up to its
        level, a second same-level pass merges ``[resident, delta]``
        additively (the same merge the backend applies to its own base
        chunks).  Residency, pins and replacement metadata are preserved
        — only capacity overflow (patches grow chunks) evicts, through
        the ordinary eviction cascade.  Returns ``(patched, evicted)``.
        """
        by_level = self._overlapping_residents(set(deltas))
        if not by_level:
            return 0, 0
        replacements: list[tuple[Key, Chunk]] = []
        for level in sorted(by_level, key=self.schema.level_index):
            targets = by_level[level]
            numbers = [number for number, _ in targets]
            delta_chunks = rollup_many(
                self.schema,
                level,
                numbers,
                [
                    [deltas[n] for n in overlap]
                    for _, overlap in targets
                ],
                origin=ChunkOrigin.CACHE_COMPUTED,
                obs=self.obs,
            )
            olds = [self.cache.peek(level, number) for number in numbers]
            merged = rollup_many(
                self.schema,
                level,
                numbers,
                [[old, delta] for old, delta in zip(olds, delta_chunks)],
                origin=ChunkOrigin.CACHE_COMPUTED,
                obs=self.obs,
            )
            for old, chunk in zip(olds, merged):
                # The patched chunk is the same cache citizen: keep its
                # origin class and recorded reproduction cost.
                chunk.origin = old.origin
                chunk.compute_cost = old.compute_cost
            replacements.extend(
                ((level, number), chunk)
                for number, chunk in zip(numbers, merged)
            )
        evicted_chunks = self.cache.replace_many(replacements)
        if evicted_chunks:
            self.strategy.on_evict_many(
                [chunk.key for chunk in evicted_chunks]
            )
        if self.strategy.plan_cache is not None:
            # Contents changed in exactly these regions; memos elsewhere
            # stay valid — no global invalidation storm.
            self.strategy.plan_cache.bump([key for key, _ in replacements])
        return len(replacements), len(evicted_chunks)

    def range_query(
        self,
        level: Level,
        cell_ranges: tuple[tuple[int, int], ...],
    ) -> QueryResult:
        """Answer an arbitrary (non-chunk-aligned) rectangular selection.

        The chunk-based scheme's contract (DRSN98): fetch the covering
        chunks — which is where all the caching machinery applies — then
        slice the result cells down to the requested ordinal ranges.  The
        returned chunks contain only in-range cells; cached chunks are
        not modified.

        The sliced chunks go into a *copy* of the inner ``query()``
        result: by the time slicing happens, that result has already been
        described by the obs ``query`` event, which deliberately
        describes the covering-chunk fetch (``chunks``,
        ``tuples_aggregated`` and the cache accounting all concern the
        chunk-aligned work the cache actually did, not the residual cell
        filter).  Mutating the result in place would silently de-sync it
        from that record.
        """
        query = Query.from_cell_ranges(self.schema, level, cell_ranges)
        result = self.query(query)
        sliced = [
            _slice_chunk(chunk, cell_ranges) for chunk in result.chunks
        ]
        return replace(result, chunks=sliced)

    def query_spec(self, spec) -> QueryResult:
        """Answer a user-shaped :class:`~repro.adaptive.canonical.QuerySpec`
        through the canonicalization layer: equivalent shapes (commuted
        group-by dimensions, contained ranges, AVG as SUM/COUNT) collapse
        onto one canonical chunk-aligned query, so they share plan-cache
        and single-flight keys."""
        from repro.adaptive.canonical import canonicalize

        return self.query(canonicalize(self.schema, spec).to_query())

    # ------------------------------------------------------------------ #
    # internals

    def _backend_is_cheaper(
        self, level: Level, number: int, plan: PlanNode
    ) -> bool:
        """The Section 5.2 cost gate: estimated aggregation vs backend ms.

        With VCMC the aggregation cost is the maintained ``Cost`` entry —
        an O(1) read; other strategies fall back to walking the plan.
        Both price the plan hop by hop, intermediates included, while
        :meth:`_execute_plan` reads only the leaves (plus a merge pass):
        the gate over-estimates aggregation, so it errs towards the
        backend, never towards a slower in-cache answer.
        """
        costs = getattr(self.strategy, "costs", None)
        if costs is not None:
            agg_tuples = costs.cost(level, number)
        else:
            agg_tuples = plan.estimated_cost(self.sizes)
        agg_ms = self.cost_model.aggregation_ms(agg_tuples)
        scan = sum(
            self.sizes.chunk_tuples(self.schema.base_level, int(n))
            for n in self.schema.get_parent_chunk_numbers(
                level, number, self.schema.base_level
            )
        )
        returned = self.sizes.chunk_tuples(level, number)
        backend_ms = self.cost_model.backend_chunk_ms(scan, returned)
        return agg_ms > backend_ms

    def _execute_plan(self, plan: PlanNode) -> _PlanExecution:
        """Materialise a plan straight from its cached leaves.

        The plan's inner nodes only say *which* leaves cover the target;
        SUM/COUNT and the extras are additive, so the leaves are mapped to
        the target level directly — one :func:`rollup_many` pass per
        distinct leaf level — and no intermediate chunk is built.  Leaves
        on more than one level can feed the same target cell, so their
        per-level partial results are then merged by one same-level pass,
        the way :meth:`_patch_wave` merges ``[old, delta]``.  Every leaf
        is resolved before any kernel work, so a racing eviction raises
        before anything is computed.
        """
        by_level: dict[Level, list[Chunk]] = {}
        leaf_keys: set[Key] = set()
        tuples = 0
        for leaf in plan.leaves():
            chunk = self.cache.peek(leaf.level, leaf.number)
            if chunk is None:
                raise ReproError(
                    f"plan references chunk {leaf.number} of level "
                    f"{leaf.level} which is no longer cached"
                )
            leaf_keys.add((leaf.level, leaf.number))
            by_level.setdefault(leaf.level, []).append(chunk)
            tuples += chunk.size_tuples
        parts = [
            self._rollup_to(plan, leaves) for leaves in by_level.values()
        ]
        chunk = parts[0]
        if len(parts) > 1:
            tuples += sum(part.size_tuples for part in parts)
            chunk = self._rollup_to(plan, parts)
        return _PlanExecution(
            chunk=chunk, leaf_keys=leaf_keys, tuples_aggregated=tuples
        )

    def _rollup_to(self, plan: PlanNode, sources: list[Chunk]) -> Chunk:
        """One kernel pass aggregating same-level ``sources`` into the
        plan's target chunk."""
        return rollup_many(
            self.schema,
            plan.level,
            (plan.number,),
            (sources,),
            origin=ChunkOrigin.CACHE_COMPUTED,
            obs=self.obs,
        )[0]

    def _admit_wave(self, chunks: list[Chunk]) -> int:
        """Admit an aggregation/fetch (or preload, or restore) wave: one
        batched cache admission, each chunk offered at its
        ``compute_cost``, then one count/cost wave per movement direction
        over the wave's NET movements (:func:`net_movements`).  Returns
        the state updates charged.
        """
        if not chunks:
            return 0
        outcomes = self.cache.insert_many(
            [(chunk, chunk.compute_cost) for chunk in chunks]
        )
        net_inserted, net_evicted = net_movements(
            [chunk.key for chunk in chunks], outcomes
        )
        updates = self.strategy.on_evict_many(net_evicted)
        updates += self.strategy.on_insert_many(net_inserted)
        if updates and self.obs.enabled:
            self.obs.metrics.counter("strategy.state_updates").inc(updates)
            self.obs.tracer.emit(
                "strategy.update_wave",
                chunks=len(chunks),
                inserted=len(net_inserted),
                evictions=len(net_evicted),
                updates=updates,
            )
        return updates

    # ------------------------------------------------------------------ #
    # introspection

    @property
    def complete_hit_ratio(self) -> float:
        return self.complete_hits / self.queries_run if self.queries_run else 0.0

    def check_invariants(self) -> None:
        """Raise :class:`ReproError` naming the first violated invariant.

        Three checks, meaningful at rest (no query or maintenance call in
        flight): ``used_bytes`` equals the sum of resident entry sizes,
        and every maintained :class:`~repro.core.counts.CountStore` and
        :class:`~repro.core.costs.CostStore` array equals one rebuilt from
        scratch off the resident set (vacuous for strategies that keep no
        such state).
        """
        cache = self.cache
        resident_bytes = sum(entry.size_bytes for entry in cache.entries())
        if cache.used_bytes != resident_bytes:
            raise ReproError(
                f"byte accounting violated: used_bytes={cache.used_bytes} "
                f"but resident entries sum to {resident_bytes}"
            )
        resident = cache.resident_keys()
        # (store kind, what its arrays hold, the live store, an empty
        # store to rebuild in one wave, its per-level array accessors)
        checks = []
        counts = getattr(self.strategy, "counts", None)
        if isinstance(counts, CountStore):
            checks.append((
                "count", "counts", counts, CountStore(self.schema),
                (CountStore.counts_array,),
            ))
        costs = getattr(self.strategy, "costs", None)
        if isinstance(costs, CostStore):
            checks.append((
                "cost", "Cost/BestParent", costs, CostStore(self.schema, costs.sizes),
                (CostStore.cost_array, CostStore.best_array),
            ))
        for kind, what, store, rebuilt, arrays in checks:
            rebuilt.on_insert_many(resident)
            for level in self.schema.all_levels():
                if not all(
                    np.array_equal(array(store, level), array(rebuilt, level))
                    for array in arrays
                ):
                    raise ReproError(
                        f"{kind} maintenance violated: {what} at level "
                        f"{level} differ from a rebuild off the resident set"
                    )

    def describe(self) -> str:
        return (
            f"AggregateCache(strategy={self.strategy.name}, "
            f"policy={self.cache.policy.name}, "
            f"capacity={self.cache.capacity_bytes}B, "
            f"used={self.cache.used_bytes}B, chunks={len(self.cache)}, "
            f"preloaded={self.preloaded_level})"
        )


def _slice_chunk(
    chunk: Chunk, cell_ranges: tuple[tuple[int, int], ...]
) -> Chunk:
    """A copy of ``chunk`` containing only the cells inside the ranges."""
    mask = np.ones(chunk.size_tuples, dtype=bool)
    for axis, (lo, hi) in zip(chunk.coords, cell_ranges):
        mask &= (axis >= lo) & (axis < hi)
    if mask.all():
        # A fresh wrapper even when nothing is filtered: the chunk object
        # may be cache-resident, and handing it out would alias cache
        # state to callers free to mutate the result.  The arrays are
        # shared read-only; only the wrapper is new.
        return replace(chunk)
    return Chunk(
        level=chunk.level,
        number=chunk.number,
        coords=tuple(axis[mask] for axis in chunk.coords),
        values=chunk.values[mask],
        counts=chunk.counts[mask],
        origin=chunk.origin,
        compute_cost=chunk.compute_cost,
        extras=tuple(extra[mask] for extra in chunk.extras),
    )
