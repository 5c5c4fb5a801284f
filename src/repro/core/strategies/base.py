"""The lookup strategy interface.

A strategy answers the central question of the paper — *can this chunk be
answered from the cache, and via which aggregation path?* — and maintains
whatever summary state it needs when chunks enter or leave the cache.

``find`` returns a :class:`~repro.core.plans.PlanNode` (a leaf for a direct
hit) or ``None`` when the chunk must go to the backend.  Every cache
movement reaches a strategy as a wave: ``on_evict_many`` with the keys
that left, then ``on_insert_many`` with the keys that entered (a single
movement is a wave of one).  Only the virtual-count strategies do work
there.
"""

from __future__ import annotations

import abc
from typing import ClassVar, Protocol

from repro.core.plans import PlanCache, PlanNode, PlanOutcome
from repro.core.sizes import SizeEstimator
from repro.obs import NULL_OBS, Observability
from repro.schema.cube import CubeSchema, Level
from repro.util.errors import LookupBudgetExceeded

Key = tuple[Level, int]


class ChunkPresence(Protocol):
    """The one thing a strategy needs from the cache: membership tests."""

    def contains(self, level: Level, number: int) -> bool:
        ...


class LookupStrategy(abc.ABC):
    """Base class for cache lookup strategies.

    Parameters
    ----------
    schema:
        The cube schema.
    presence:
        Cache membership oracle (the chunk store).
    sizes:
        Deterministic size estimator (used by the cost-based strategies).
    visit_budget:
        Optional safety valve: abort a single ``find`` with
        :class:`LookupBudgetExceeded` after this many recursive visits.
        ``None`` (the default, and the experiment setting) is unbounded,
        matching the paper's algorithms.
    """

    name: ClassVar[str]
    cost_based: ClassVar[bool] = False
    maintains_state: ClassVar[bool] = False
    memoise_find: ClassVar[bool] = False
    """Whether ``find`` walks the lattice, so that a manager puts its
    :class:`PlanCache` in front of it.  The maintained-state strategies
    answer from O(1) array reads and never pay for the memo."""

    def __init__(
        self,
        schema: CubeSchema,
        presence: ChunkPresence,
        sizes: SizeEstimator,
        visit_budget: int | None = None,
    ) -> None:
        self.schema = schema
        self.presence = presence
        self.sizes = sizes
        self.visit_budget = visit_budget
        self.obs: Observability = NULL_OBS
        """Observability handle; the owning manager rebinds it."""
        self.plan_cache: PlanCache | None = None
        """Optional generation-stamped memo of ``find`` results.  ``None``
        (the default for bare strategies — keeps the paper's measured
        visit counts exact) means every ``find`` walks the lattice; a
        manager attaches its :class:`PlanCache` when
        :attr:`memoise_find` is set."""
        self.total_visits = 0
        """Lifetime recursive lookup visits (complexity instrumentation)."""
        self.last_find_visits = 0
        """Visits made by the most recent ``find`` call."""

    # ------------------------------------------------------------------ #
    # the lookup

    def find(self, level: Level, number: int) -> PlanNode | None:
        """Plan for computing ``(level, number)`` from the cache, else None."""
        self.last_find_visits = 0
        cache = self.plan_cache
        outcome: PlanOutcome | None = None
        if cache is not None:
            outcome, plan = cache.lookup(level, number)
            if outcome is PlanOutcome.HIT:
                # Memoised verdict, still generation-valid: zero lattice
                # visits (``lookup.visits`` observes an honest 0).
                self._note_find(plan, outcome)
                return plan
        plan = self._find(level, number)
        if cache is not None:
            cache.store(level, number, plan)
        self._note_find(plan, outcome)
        return plan

    _PLAN_CACHE_COUNTERS = {
        PlanOutcome.HIT: "lookup.plan_cache.hits",
        PlanOutcome.MISS: "lookup.plan_cache.misses",
        PlanOutcome.STALE: "lookup.plan_cache.stale_hits",
    }

    def _note_find(
        self, plan: PlanNode | None, outcome: PlanOutcome | None
    ) -> None:
        if not self.obs.enabled:
            return
        self.obs.metrics.counter("lookup.finds").inc()
        self.obs.metrics.histogram("lookup.visits").observe(
            self.last_find_visits
        )
        if outcome is not None:
            # Stale hits are counted apart from misses: both replan, but
            # a stale hit is invalidation churn, not a cold memo — the
            # honest hit ratio divides by all three.
            self.obs.metrics.counter(
                self._PLAN_CACHE_COUNTERS[outcome]
            ).inc()
        if plan is None:
            self.obs.metrics.counter("lookup.missing").inc()
        elif plan.is_leaf:
            self.obs.metrics.counter("lookup.direct").inc()
        else:
            self.obs.metrics.counter("lookup.computable").inc()

    @abc.abstractmethod
    def _find(self, level: Level, number: int) -> PlanNode | None:
        ...

    def is_computable(self, level: Level, number: int) -> bool:
        """Whether the chunk can be answered from the cache at all."""
        return self.find(level, number) is not None

    # ------------------------------------------------------------------ #
    # maintenance hooks (no-ops for the exhaustive strategies)
    #
    # The public hooks also keep the plan cache honest: ANY residency
    # change — even for the stateless strategies — can change a memoised
    # plan's validity, so the generation bump happens here, before the
    # strategy-specific state maintenance.  Bumps carry the full
    # ``(level, number)`` keys so the plan cache can scope invalidation
    # to the chunk regions the wave actually touched.

    def on_insert_many(self, keys: list[Key]) -> int:
        """A whole admission wave entered the cache at once."""
        if not keys:
            return 0
        if self.plan_cache is not None:
            self.plan_cache.bump(keys)
        return self._on_insert_many(keys)

    def on_evict_many(self, keys: list[Key]) -> int:
        """A whole eviction wave left the cache at once."""
        if not keys:
            return 0
        if self.plan_cache is not None:
            self.plan_cache.bump(keys)
        return self._on_evict_many(keys)

    def _on_insert_many(self, keys: list[Key]) -> int:
        return 0

    def _on_evict_many(self, keys: list[Key]) -> int:
        return 0

    def state_bytes(self) -> int:
        """Bytes of summary state maintained (paper's Table 3 accounting)."""
        return 0

    # ------------------------------------------------------------------ #
    # shared helpers

    def _visit(self) -> None:
        """Record one recursive visit and enforce the budget."""
        self.total_visits += 1
        self.last_find_visits += 1
        if (
            self.visit_budget is not None
            and self.last_find_visits > self.visit_budget
        ):
            raise LookupBudgetExceeded(
                f"{self.name} lookup exceeded visit budget "
                f"{self.visit_budget}"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(visits={self.total_visits})"
