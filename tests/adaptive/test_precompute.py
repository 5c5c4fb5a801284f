"""AdaptivePrecomputer: warmup, pinning, drift-following and budget."""

from __future__ import annotations

import pytest

from repro import BackendDatabase, CostModel, generate_fact_table
from repro.adaptive.precompute import AdaptivePrecomputer
from repro.adaptive.tracker import WorkloadTracker
from repro.core.manager import AggregateCache
from repro.obs import Observability
from repro.schema import apb_tiny_schema
from repro.workload.query import Query

SCHEMA = apb_tiny_schema()
FACTS = generate_fact_table(SCHEMA, num_tuples=300, seed=7)
BACKEND = BackendDatabase(SCHEMA, FACTS, CostModel())
BASE = SCHEMA.base_level
APEX = SCHEMA.apex_level


def _setup(
    capacity: int = 1 << 20,
    obs: Observability | None = None,
    **kwargs,
):
    manager = AggregateCache(
        SCHEMA,
        BACKEND,
        capacity_bytes=capacity,
        strategy="vcmc",
        policy="benefit",
        preload=False,
        obs=obs,
    )
    tracker = WorkloadTracker(
        SCHEMA, manager.sizes, half_life=kwargs.pop("half_life", 8.0)
    )
    adaptive = AdaptivePrecomputer(manager, tracker=tracker, **kwargs)
    return manager, adaptive


def _drive(adaptive, level, count):
    for _ in range(count):
        adaptive.note_query(Query.full_level(SCHEMA, level))


def test_warmup_blocks_early_promotion():
    _, adaptive = _setup(warmup=16)
    _drive(adaptive, BASE, 15)
    actions = adaptive.run_idle_cycle()
    assert not actions.changed
    assert adaptive.promotions == 0
    _drive(adaptive, BASE, 1)
    assert adaptive.run_idle_cycle().promoted


def test_promotion_pins_resident_chunks():
    manager, adaptive = _setup(warmup=1)
    _drive(adaptive, BASE, 8)
    actions = adaptive.run_idle_cycle()
    assert BASE in actions.promoted
    assert BASE in adaptive.pinned_levels
    pinned = [
        manager.cache.entry(BASE, number)
        for number in range(SCHEMA.num_chunks(BASE))
    ]
    assert pinned and all(
        entry is not None and entry.resident and entry.pinned
        for entry in pinned
    )


def test_pinned_chunks_survive_churn():
    # Capacity fits the base level plus very little else, so admitting
    # every other level creates real eviction pressure.  Promotion pins
    # only what actually landed (admission can reject under pressure);
    # every one of THOSE must still be resident after the churn.
    manager, adaptive = _setup(warmup=1, budget_fraction=0.8)
    base_bytes = manager.sizes.level_bytes(BASE)
    manager.cache.capacity_bytes = int(base_bytes * 1.5)
    _drive(adaptive, BASE, 8)
    assert BASE in adaptive.run_idle_cycle().promoted
    pinned_numbers = list(adaptive._pinned[BASE])
    assert pinned_numbers
    for level in SCHEMA.all_levels():
        if level != BASE:
            manager.query(Query.full_level(SCHEMA, level))
    for number in pinned_numbers:
        entry = manager.cache.entry(BASE, number)
        assert entry is not None and entry.resident and entry.pinned


def test_demotion_unpins_without_evicting():
    # Workload drifts from level A to an incomparable level B, so A's
    # demand decays to noise.  The pin budget fits A alone but not the
    # base level, and after the drift B's denser ancestors fill it
    # before A's turn comes — A falls out of the winner set.  The cache
    # itself is huge: demotion must leave A's chunks resident, merely
    # unpinned (reclaim belongs to the replacement policy).
    a = (SCHEMA.dimensions[0].height, SCHEMA.dimensions[1].height, 0)
    b = (0, 0, SCHEMA.dimensions[2].height)
    manager, adaptive = _setup(
        warmup=1,
        half_life=2.0,
        stickiness=1.0,
        budget_fraction=160 / (1 << 20),
    )
    _drive(adaptive, a, 8)
    assert a in adaptive.run_idle_cycle().promoted
    a_numbers = list(adaptive._pinned[a])
    assert a_numbers
    _drive(adaptive, b, 64)
    actions = adaptive.run_idle_cycle()
    assert a in actions.demoted
    assert a not in adaptive.pinned_levels
    for number in a_numbers:
        entry = manager.cache.entry(a, number)
        assert entry is not None and entry.resident
        assert not entry.pinned


def test_drift_promotes_the_new_hot_level():
    _, adaptive = _setup(warmup=1, half_life=2.0, stickiness=1.0)
    _drive(adaptive, BASE, 4)
    first = adaptive.run_idle_cycle()
    assert BASE in first.promoted
    _drive(adaptive, APEX, 64)
    second = adaptive.run_idle_cycle()
    assert APEX in second.winners
    assert APEX in adaptive.pinned_levels
    assert adaptive.promotions >= 2


def test_stickiness_keeps_near_tied_incumbent():
    _, adaptive = _setup(warmup=1, half_life=1e9, stickiness=2.0)
    # Make the cache only big enough for one of the two contenders.
    manager = adaptive.manager
    manager.cache.capacity_bytes = int(
        manager.sizes.level_bytes(BASE) / adaptive.budget_fraction
    ) + 1
    _drive(adaptive, BASE, 10)
    assert BASE in adaptive.run_idle_cycle().promoted
    # A challenger with a slightly higher raw score must not displace
    # the incumbent while the stickiness factor covers the gap.
    _drive(adaptive, BASE, 2)
    actions = adaptive.run_idle_cycle()
    assert not actions.demoted
    assert BASE in adaptive.pinned_levels


def test_budget_fraction_bounds_the_pinned_set():
    manager, adaptive = _setup(warmup=1, budget_fraction=0.3)
    for level in SCHEMA.all_levels():
        _drive(adaptive, level, 2)
    adaptive.run_idle_cycle()
    budget = 0.3 * manager.cache.capacity_bytes
    used = sum(
        manager.sizes.level_bytes(level)
        for level in adaptive.pinned_levels
    )
    assert used <= budget


def test_obs_counters_track_cycles_and_actions():
    obs = Observability.in_memory()
    a = (SCHEMA.dimensions[0].height, SCHEMA.dimensions[1].height, 0)
    b = (0, 0, SCHEMA.dimensions[2].height)
    _, adaptive = _setup(
        obs=obs,
        warmup=1,
        half_life=2.0,
        stickiness=1.0,
        budget_fraction=160 / (1 << 20),
    )
    _drive(adaptive, a, 8)
    adaptive.run_idle_cycle()
    _drive(adaptive, b, 64)
    adaptive.run_idle_cycle()
    counters = obs.snapshot()["counters"]
    assert counters["adaptive.cycles"] == 2
    assert adaptive.promotions >= 2 and adaptive.demotions >= 1
    assert counters["adaptive.promotions"] == adaptive.promotions
    assert counters["adaptive.demotions"] == adaptive.demotions


@pytest.mark.parametrize(
    "kwargs",
    [{"budget_fraction": 0.0}, {"budget_fraction": 1.5}, {"stickiness": 0.5}],
)
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(ValueError):
        _setup(warmup=1, **kwargs)


def test_reconcile_pins_drops_forced_evictions():
    # Regression: invalidate_base_chunks ignores pins, so a refresh used
    # to leave _pinned claiming chunks the cache no longer holds.  A
    # level that lost everything must be forgotten entirely.
    manager, adaptive = _setup(warmup=1)
    _drive(adaptive, BASE, 8)
    assert BASE in adaptive.run_idle_cycle().promoted
    evicted = manager.invalidate_base_chunks(
        list(range(SCHEMA.num_chunks(BASE)))
    )
    assert evicted > 0
    assert BASE in adaptive._pinned  # the stale bookkeeping
    dropped = adaptive.reconcile_pins()
    assert dropped > 0
    assert BASE not in adaptive.pinned_levels
    assert adaptive.reconcile_pins() == 0  # idempotent


def test_reconcile_pins_keeps_partial_survivors():
    manager, adaptive = _setup(warmup=1)
    _drive(adaptive, BASE, 8)
    adaptive.run_idle_cycle()
    before = list(adaptive._pinned[BASE])
    victim = before[0]
    manager.invalidate_base_chunks([victim])
    dropped = adaptive.reconcile_pins()
    assert dropped == 1
    assert adaptive._pinned[BASE] == [n for n in before if n != victim]
    for number in adaptive._pinned[BASE]:
        entry = manager.cache.entry(BASE, number)
        assert entry is not None and entry.resident and entry.pinned


def test_idle_cycle_repromotes_after_forced_eviction():
    # With the stale bookkeeping gone, the very next cycle re-promotes
    # the still-hot level instead of believing it already pinned.
    manager, adaptive = _setup(warmup=1)
    _drive(adaptive, BASE, 8)
    adaptive.run_idle_cycle()
    manager.invalidate_base_chunks(list(range(SCHEMA.num_chunks(BASE))))
    _drive(adaptive, BASE, 4)
    actions = adaptive.run_idle_cycle()
    assert BASE in actions.promoted
    assert all(
        (entry := manager.cache.entry(BASE, n)) is not None
        and entry.resident
        and entry.pinned
        for n in adaptive._pinned[BASE]
    )


def test_reconcile_pins_obs_counter():
    obs = Observability.in_memory()
    manager, adaptive = _setup(warmup=1, obs=obs)
    _drive(adaptive, BASE, 8)
    adaptive.run_idle_cycle()
    pinned = len(adaptive._pinned[BASE])
    manager.invalidate_base_chunks(list(range(SCHEMA.num_chunks(BASE))))
    adaptive.reconcile_pins()
    counters = obs.snapshot()["counters"]
    assert counters["adaptive.stale_pins_dropped"] == pinned


def test_concurrent_refresh_reconciles_pins():
    # Through the service facade: a delta-mode refresh patches pinned
    # chunks in place (pins survive), while an evict-mode invalidation
    # reconciles the bookkeeping under the same write lock.
    from repro import ConcurrentAggregateCache

    schema = apb_tiny_schema()
    facts = generate_fact_table(schema, num_tuples=300, seed=7)
    backend = BackendDatabase(schema, facts, CostModel())
    manager = AggregateCache(
        schema,
        backend,
        capacity_bytes=1 << 20,
        strategy="vcmc",
        policy="benefit",
        preload=False,
    )
    tracker = WorkloadTracker(schema, manager.sizes, half_life=8.0)
    adaptive = AdaptivePrecomputer(manager, tracker=tracker, warmup=1)
    service = ConcurrentAggregateCache(manager, adaptive=adaptive)
    base = schema.base_level
    for _ in range(8):
        adaptive.note_query(Query.full_level(schema, base))
    assert base in service.idle_tick().promoted
    pinned = list(adaptive._pinned[base])

    delta = generate_fact_table(schema, num_tuples=40, seed=9)
    outcome = service.refresh_from_backend(delta)
    assert outcome.mode == "delta" and outcome.patched > 0
    assert adaptive._pinned[base] == pinned  # patched in place, pins intact
    for number in pinned:
        entry = manager.cache.entry(base, number)
        assert entry is not None and entry.resident and entry.pinned

    more = generate_fact_table(schema, num_tuples=40, seed=10)
    service.refresh_from_backend(more, mode="evict")
    assert base not in adaptive.pinned_levels or all(
        (entry := manager.cache.entry(base, n)) is not None and entry.resident
        for n in adaptive._pinned.get(base, [])
    )


def test_adaptive_serving_never_changes_an_answer():
    # The loop is an optimisation, never an approximation: a drifting
    # stream served with promotions happening between queries returns,
    # cell for cell, what a manager with no plan cache and no loop does.
    from repro import ConcurrentAggregateCache
    from repro.workload.drift import DriftingZipfStream

    capacity = int(1.2 * FACTS.size_bytes)
    plain = AggregateCache(
        SCHEMA, BACKEND, capacity_bytes=capacity, plan_cache=False
    )
    manager = AggregateCache(SCHEMA, BACKEND, capacity_bytes=capacity)
    adaptive = AdaptivePrecomputer(manager, budget_fraction=0.6)
    service = ConcurrentAggregateCache(manager, adaptive=adaptive)
    stream = DriftingZipfStream(
        SCHEMA, drift_every=20, max_extent=2, seed=10832
    )
    for index, query in enumerate(stream.generate(60)):
        got, want = service.query(query), plain.query(query)
        assert [c.number for c in got.chunks] == [
            c.number for c in want.chunks
        ]
        for a, b in zip(got.chunks, want.chunks):
            assert a.cell_dict() == b.cell_dict()
        if (index + 1) % 5 == 0:
            service.idle_tick()
    assert adaptive.promotions > 0
