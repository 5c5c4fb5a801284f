"""The region-scoped generation-stamped plan cache.

Unit tests pin the invalidation algebra — a memo for chunk ``(L, n)`` is
invalidated by movement of chunk ``(M, m)`` iff M is a lattice ancestor
of L (componentwise M >= L) AND ``m``'s chunk region overlaps the
regions covering ``n``'s parents — and the integration tests verify the
properties the cache exists for: a valid hit skips the lattice search
entirely, a stale hit replans instead of serving an outdated plan, and
movement in untouched regions causes ZERO stale replans.
"""

from __future__ import annotations

import pytest

from repro import (
    AggregateCache,
    BackendDatabase,
    CostModel,
    Observability,
    Query,
    QueryStreamGenerator,
    generate_fact_table,
)
from repro.cache.replacement import make_policy
from repro.cache.store import ChunkCache
from repro.core.plans import PlanCache, PlanNode, PlanOutcome
from repro.core.sizes import SizeEstimator
from repro.core.strategies import STRATEGY_NAMES, make_strategy
from repro.schema import apb_tiny_schema
from tests.helpers import admit


@pytest.fixture
def schema():
    return apb_tiny_schema()


@pytest.fixture
def plan_cache(schema):
    return PlanCache(schema)


def test_hit_returns_stored_plan(plan_cache, schema):
    apex = tuple(0 for _ in schema.base_level)
    plan = PlanNode.leaf(apex, 0)
    plan_cache.store(apex, 0, plan)
    outcome, got = plan_cache.lookup(apex, 0)
    assert outcome is PlanOutcome.HIT and got is plan
    assert plan_cache.hits == 1 and plan_cache.misses == 0


def test_none_verdicts_are_memoised(plan_cache, schema):
    apex = tuple(0 for _ in schema.base_level)
    assert plan_cache.lookup(apex, 0) == (PlanOutcome.MISS, None)
    plan_cache.store(apex, 0, None)
    outcome, got = plan_cache.lookup(apex, 0)
    assert outcome is PlanOutcome.HIT and got is None
    assert plan_cache.misses == 1 and plan_cache.hits == 1


def test_ancestor_movement_invalidates(plan_cache, schema):
    """Base-level movement can change the answer for every level: the
    apex chunk's parents span every base region, so ANY base bump lands
    in its dependency set."""
    apex = tuple(0 for _ in schema.base_level)
    plan_cache.store(apex, 0, PlanNode.leaf(apex, 0))
    plan_cache.bump([(schema.base_level, 0)])
    assert plan_cache.lookup(apex, 0) == (PlanOutcome.STALE, None)
    assert plan_cache.stale_hits == 1
    assert len(plan_cache) == 0, "stale entries are dropped, not kept"


def test_non_ancestor_movement_preserves(plan_cache, schema):
    """Apex movement cannot change how a base chunk is computed."""
    base = schema.base_level
    apex = tuple(0 for _ in base)
    assert apex != base
    plan = PlanNode.leaf(base, 0)
    plan_cache.store(base, 0, plan)
    plan_cache.bump([(apex, 0)])
    outcome, got = plan_cache.lookup(base, 0)
    assert outcome is PlanOutcome.HIT and got is plan
    assert plan_cache.stale_hits == 0


def test_untouched_region_movement_preserves(plan_cache, schema):
    """The storm fix: same-level movement in a DIFFERENT chunk region
    leaves the memo valid — zero stale replans on untouched regions."""
    base = schema.base_level
    last = schema.num_chunks(base) - 1
    assert plan_cache._region_index(base, 0) != plan_cache._region_index(
        base, last
    ), "fixture schema must give the base level at least two regions"
    plan = PlanNode.leaf(base, 0)
    plan_cache.store(base, 0, plan)
    plan_cache.bump([(base, last)])
    outcome, got = plan_cache.lookup(base, 0)
    assert outcome is PlanOutcome.HIT and got is plan
    assert plan_cache.stale_hits == 0


def test_same_region_movement_invalidates(plan_cache, schema):
    base = schema.base_level
    plan_cache.store(base, 0, PlanNode.leaf(base, 0))
    plan_cache.bump([(base, 0)])
    assert plan_cache.lookup(base, 0) == (PlanOutcome.STALE, None)


def test_single_region_reproduces_legacy_per_level_scheme(schema):
    """``max_regions_per_level=1`` collapses region scoping back to the
    seed's per-level generation counters: ANY movement at an ancestor
    level invalidates, however far away."""
    cache = PlanCache(schema, max_regions_per_level=1)
    base = schema.base_level
    last = schema.num_chunks(base) - 1
    cache.store(base, 0, PlanNode.leaf(base, 0))
    cache.bump([(base, last)])
    assert cache.lookup(base, 0) == (PlanOutcome.STALE, None)
    assert cache.num_regions == schema.num_levels


def test_restore_after_bump_is_valid_again(plan_cache, schema):
    apex = tuple(0 for _ in schema.base_level)
    plan_cache.store(apex, 0, PlanNode.leaf(apex, 0))
    plan_cache.bump([(schema.base_level, 0)])
    assert plan_cache.lookup(apex, 0) == (PlanOutcome.STALE, None)
    plan = PlanNode.leaf(apex, 0)
    plan_cache.store(apex, 0, plan)
    assert plan_cache.lookup(apex, 0) == (PlanOutcome.HIT, plan)


def test_bump_batches_distinct_regions_once(plan_cache, schema):
    """A wave bump advances each touched region's generation exactly
    once, so a wave of many chunks in one region costs one increment."""
    base = schema.base_level
    index = plan_cache._region_index(base, 0)
    before = int(plan_cache._gens[index])
    same_region = [
        (base, n)
        for n in range(schema.num_chunks(base))
        if plan_cache._region_index(base, n) == index
    ]
    assert len(same_region) >= 1
    plan_cache.bump(same_region * 3)
    assert int(plan_cache._gens[index]) == before + 1


def test_fifo_cap_drops_oldest(schema):
    cache = PlanCache(schema, max_entries=3)
    base = schema.base_level
    assert schema.num_chunks(base) >= 4
    for number in range(4):
        cache.store(base, number, None)
    assert len(cache) == 3
    assert cache.lookup(base, 0) == (PlanOutcome.MISS, None), (
        "oldest memo dropped"
    )
    assert cache.lookup(base, 3)[0] is PlanOutcome.HIT, "newest memo kept"


def test_hit_ratio_accounts_all_outcomes(plan_cache, schema):
    apex = tuple(0 for _ in schema.base_level)
    plan_cache.lookup(apex, 0)                      # miss
    plan_cache.store(apex, 0, None)
    plan_cache.lookup(apex, 0)                      # hit
    plan_cache.bump([(schema.base_level, 0)])
    plan_cache.lookup(apex, 0)                      # stale
    assert plan_cache.lookups == 3
    assert plan_cache.hit_ratio == pytest.approx(1 / 3)


def test_stats_reports_honest_accounting(plan_cache, schema):
    apex = tuple(0 for _ in schema.base_level)
    plan_cache.lookup(apex, 0)
    plan_cache.store(apex, 0, None)
    plan_cache.lookup(apex, 0)
    plan_cache.bump([(schema.base_level, 0)])
    plan_cache.lookup(apex, 0)
    stats = plan_cache.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["stale_hits"] == 1
    assert stats["lookups"] == stats["hits"] + stats["misses"] + stats[
        "stale_hits"
    ]
    assert stats["hit_ratio"] == pytest.approx(1 / 3)


# ---------------------------------------------------------------------- #
# integration: the hit skips the lattice search


def loaded_strategy(schema, with_plan_cache: bool):
    facts = generate_fact_table(schema, num_tuples=100, seed=1)
    backend = BackendDatabase(schema, facts)
    cache = ChunkCache(1 << 30, make_policy("benefit"), schema.bytes_per_tuple)
    strategy = make_strategy(
        "vcmc", schema, cache, SizeEstimator(schema, total_base_tuples=100)
    )
    if with_plan_cache:
        strategy.plan_cache = PlanCache(schema)
    base = schema.base_level
    for number in range(schema.num_chunks(base)):
        chunk = backend.compute_chunk(base, number)
        admit(cache, chunk, benefit=1.0)
        strategy.on_insert_many([(base, number)])
    return strategy


def test_plan_cache_hit_skips_lattice_search(schema):
    strategy = loaded_strategy(schema, with_plan_cache=True)
    apex = tuple(0 for _ in schema.base_level)
    first = strategy.find(apex, 0)
    assert first is not None
    visits_after_first = strategy.total_visits
    assert visits_after_first > 0
    second = strategy.find(apex, 0)
    assert second is first, "memoised plan object served verbatim"
    assert strategy.total_visits == visits_after_first, (
        "a valid plan-cache hit must not walk the lattice"
    )
    assert strategy.last_find_visits == 0


def test_stale_plan_cache_entry_replans(schema):
    strategy = loaded_strategy(schema, with_plan_cache=True)
    apex = tuple(0 for _ in schema.base_level)
    strategy.find(apex, 0)
    strategy.on_evict_many([(schema.base_level, 0)])
    visits_before = strategy.total_visits
    plan = strategy.find(apex, 0)
    assert strategy.plan_cache.stale_hits == 1
    assert strategy.total_visits > visits_before, "stale hit must replan"
    # The fresh plan reflects the eviction: chunk 0 is no longer a leaf
    # source unless recomputed another way.
    if plan is not None:
        for leaf in plan.leaves():
            assert (leaf.level, leaf.number) != (schema.base_level, 0)


def test_far_region_eviction_keeps_memo_valid(schema):
    """End to end on a real strategy: evicting a base chunk in a far
    region does not invalidate a same-level memo — the lookup stays a
    HIT with zero lattice visits."""
    strategy = loaded_strategy(schema, with_plan_cache=True)
    base = schema.base_level
    last = schema.num_chunks(base) - 1
    cache = strategy.plan_cache
    if cache._region_index(base, 0) == cache._region_index(base, last):
        pytest.skip("schema too small for distinct base regions")
    strategy.find(base, 0)
    strategy.on_evict_many([(base, last)])
    visits_before = strategy.total_visits
    plan = strategy.find(base, 0)
    assert plan is not None and plan.is_leaf
    assert cache.stale_hits == 0
    assert strategy.total_visits == visits_before


def test_bare_strategy_visit_counts_unchanged(schema):
    """Without a plan cache every find walks the lattice — the setting
    the paper's measured visit counts (test_complexity) rely on."""
    strategy = loaded_strategy(schema, with_plan_cache=False)
    assert strategy.plan_cache is None
    apex = tuple(0 for _ in schema.base_level)
    strategy.find(apex, 0)
    first_visits = strategy.last_find_visits
    strategy.find(apex, 0)
    assert strategy.last_find_visits == first_visits > 0


# ---------------------------------------------------------------------- #
# integration: manager wiring and metrics


def make_manager(tiny_schema, tiny_facts, obs=None, **kwargs):
    backend = BackendDatabase(tiny_schema, tiny_facts, CostModel())
    kwargs.setdefault("capacity_bytes", 1 << 20)
    kwargs.setdefault("strategy", "esm")
    kwargs.setdefault("policy", "benefit")
    kwargs.setdefault("preload", False)
    if obs is not None:
        kwargs["obs"] = obs
    return AggregateCache(tiny_schema, backend, **kwargs)


def test_manager_attaches_shared_plan_cache(tiny_schema, tiny_facts):
    manager = make_manager(tiny_schema, tiny_facts)
    assert manager.plan_cache is not None
    assert manager.strategy.plan_cache is manager.plan_cache


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_memo_attached_only_where_find_walks_the_lattice(
    tiny_schema, tiny_facts, strategy
):
    """ESM and ESMC get the memo; the O(1) strategies never consult it,
    yet ``plan_cache.stats()`` answers for every strategy."""
    manager = make_manager(tiny_schema, tiny_facts, strategy=strategy)
    walks = strategy in ("esm", "esmc")
    assert manager.strategy.memoise_find is walks
    assert isinstance(manager.plan_cache, PlanCache)
    if walks:
        assert manager.strategy.plan_cache is manager.plan_cache
    else:
        assert manager.strategy.plan_cache is None
    query = Query.full_level(tiny_schema, tiny_schema.base_level)
    manager.query(query)
    manager.query(query)
    stats = manager.plan_cache.stats()
    assert (stats["lookups"] > 0) is walks
    if not walks:
        assert stats["lookups"] == 0 and stats["regions_bumped"] == 0


def test_manager_plan_cache_opt_out(tiny_schema, tiny_facts):
    manager = make_manager(tiny_schema, tiny_facts, plan_cache=False)
    assert manager.plan_cache is None
    assert manager.strategy.plan_cache is None


def test_manager_accepts_ready_plan_cache_instance(tiny_schema, tiny_facts):
    """Passing a configured instance (e.g. legacy single-region) wires it
    into both the manager and the strategy."""
    cache = PlanCache(tiny_schema, max_regions_per_level=1)
    manager = make_manager(tiny_schema, tiny_facts, plan_cache=cache)
    assert manager.plan_cache is cache
    assert manager.strategy.plan_cache is cache


def test_repeated_query_hits_plan_cache_and_counters(
    tiny_schema, tiny_facts
):
    obs = Observability.in_memory()
    manager = make_manager(tiny_schema, tiny_facts, obs=obs)
    query = Query.full_level(tiny_schema, tiny_schema.base_level)
    manager.query(query)
    manager.query(query)  # warm cache, no admissions: generations stable
    hits_before = manager.plan_cache.hits
    manager.query(query)
    assert manager.plan_cache.hits > hits_before
    counters = obs.snapshot()["counters"]
    assert counters["lookup.plan_cache.hits"] > 0
    assert counters["lookup.plan_cache.misses"] > 0
    assert manager.replans == 0


def test_stale_hits_counted_apart_from_misses(tiny_schema, tiny_facts):
    """The honesty satellite: stale hits surface under their own obs
    counter, never folded into misses."""
    obs = Observability.in_memory()
    manager = make_manager(tiny_schema, tiny_facts, obs=obs)
    base = tiny_schema.base_level
    query = Query.full_level(tiny_schema, base)
    manager.query(query)
    manager.query(query)  # admissions from query 1 made these stale
    manager.query(query)  # generations quiet: genuine hits
    # Force movement across every base region so the memoised verdicts
    # go stale, then look them up again.
    victims = [
        (base, number) for number in range(tiny_schema.num_chunks(base))
        if manager.cache.contains(base, number)
    ]
    manager.cache.evict_many(victims)
    manager.strategy.on_evict_many(victims)
    stale_before = manager.plan_cache.stale_hits
    manager.query(query)
    assert manager.plan_cache.stale_hits > stale_before
    counters = obs.snapshot()["counters"]
    assert counters["lookup.plan_cache.stale_hits"] > 0
    assert (
        counters.get("lookup.plan_cache.hits", 0)
        + counters.get("lookup.plan_cache.misses", 0)
        + counters["lookup.plan_cache.stale_hits"]
        == manager.plan_cache.lookups
    )
    # Single-threaded, a stale memo must be re-found by the lookup, never
    # reach materialisation and need the re-plan path.
    assert manager.replans == 0


def test_plan_cache_results_match_opt_out_manager(tiny_schema, tiny_facts):
    """Same queries, same answers, with and without the plan cache."""
    with_cache = make_manager(tiny_schema, tiny_facts)
    without = make_manager(tiny_schema, tiny_facts, plan_cache=False)
    for level in tiny_schema.all_levels():
        query = Query.full_level(tiny_schema, level)
        for _ in range(2):
            a = with_cache.query(query)
            b = without.query(query)
            assert a.total_value() == pytest.approx(b.total_value())
            assert a.complete_hit == b.complete_hit
    assert with_cache.replans == 0 and without.replans == 0


def test_region_scoping_beats_single_region_on_the_paper_mix(
    tiny_schema, tiny_facts
):
    """Workload-level storm fix: the paper's mixed stream played twice.
    With one region per level every admission invalidates every memo at
    that level (3 hits / 60 stale of 86 lookups); region scoping must
    replan strictly less and clear a 25% hit ratio (22 / 41 of 86)."""
    stream = list(
        QueryStreamGenerator(tiny_schema, max_extent=2, seed=8730).generate(20)
    )
    stats = {}
    for arm, plan_cache in (
        ("single", PlanCache(tiny_schema, max_regions_per_level=1)),
        ("regions", True),
    ):
        manager = make_manager(
            tiny_schema,
            tiny_facts,
            capacity_bytes=int(1.2 * tiny_facts.size_bytes),
            preload=True,
            plan_cache=plan_cache,
        )
        for query in stream + stream:
            manager.query(query)
        stats[arm] = manager.plan_cache.stats()
        assert manager.replans == 0
    assert stats["single"]["hit_ratio"] < 0.10, "the storm no longer reproduces"
    assert stats["regions"]["stale_hits"] < stats["single"]["stale_hits"]
    assert stats["regions"]["hit_ratio"] >= 0.25
