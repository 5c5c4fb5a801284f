"""Chaos: seeded append waves interleaved with 6-worker serving.

Each run drives a seeded query stream through
:class:`ConcurrentAggregateCache` in segments, firing a warehouse append
(:meth:`ConcurrentAggregateCache.refresh_from_backend`, the delta patch
wave) between segments.  The properties:

* **exact answers against the post-append fact file** — every chunk of
  every segment equals a brute-force aggregation of the fact table as it
  stood when the segment ran (the merge of the initial table and every
  wave applied so far) — exact ``==``, not approx: the integer-valued
  measures make additive maintenance exact;
* **state integrity** — after all waves, Count/Cost state equals a
  from-scratch rebuild off the final resident set, and the backend's
  tuple count equals the merged fact file's;
* **isolation under races** — with appends firing from a separate
  thread mid-serve, no query raises and every answered chunk matches
  the pre- or post-wave truth for that chunk (the write lock forbids
  anything in between).

A failing seed is appended to ``$CHAOS_REPLAY_PATH`` (default
``artifacts/chaos_replay.txt``, git-ignored), same protocol as
``test_chaos_properties``.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import numpy as np

from repro import (
    AggregateCache,
    BackendDatabase,
    ConcurrentAggregateCache,
    CostModel,
    CountStore,
    QueryStreamGenerator,
    generate_fact_table,
)
from repro.backend.generator import FactTable, merge_fact_tables
from repro.core.costs import CostStore
from repro.util.rng import make_rng
from tests.faults.test_chaos_properties import (
    CHAOS_SEED_MATRIX,
    record_failing_seed,
)
from tests.helpers import direct_aggregate, expected_cells_in_chunk

WORKERS = 6
NUM_WAVES = 3
QUERIES_PER_SEGMENT = 12


def make_wave(schema, rng) -> FactTable:
    """One deterministic append batch (20-80 raw uniform draws)."""
    return generate_fact_table(
        schema,
        num_tuples=int(rng.integers(20, 80)),
        seed=int(rng.integers(0, 2**31)),
    )


def build_service(schema, facts, store: str = "dict"):
    backend = BackendDatabase(schema, facts, CostModel(), store=store)
    manager = AggregateCache(
        schema,
        backend,
        capacity_bytes=max(int(backend.base_size_bytes * 0.7), 1),
        strategy="vcmc",
        policy="two_level",
    )
    return ConcurrentAggregateCache(manager, flight_timeout_s=15.0)


def run_append_chaos(schema, facts, seed: int, store: str = "dict"):
    """Serve segments of a seeded stream with an append between each.

    Returns ``(service, parts, segments)`` where ``segments`` holds, per
    segment, the queries, their results, and how many fact-table parts
    (initial + waves) had been applied when the segment ran.
    """
    service = build_service(schema, facts, store=store)
    stream = list(
        QueryStreamGenerator(schema, max_extent=3, seed=seed).generate(
            (NUM_WAVES + 1) * QUERIES_PER_SEGMENT
        )
    )
    rng = make_rng(seed + 1)
    parts: list[FactTable] = [facts]
    segments = []
    for wave_index in range(NUM_WAVES + 1):
        segment = stream[
            wave_index * QUERIES_PER_SEGMENT:
            (wave_index + 1) * QUERIES_PER_SEGMENT
        ]
        results = service.serve(segment, workers=WORKERS)
        segments.append((segment, results, len(parts)))
        if wave_index < NUM_WAVES:
            wave = make_wave(schema, rng)
            service.refresh_from_backend(wave)
            parts.append(wave)
    return service, parts, segments


def check_append_run(schema, service, parts, segments) -> None:
    manager = service.manager
    # Per-generation ground truths, computed lazily per level.
    truth_cells: dict[tuple[int, tuple], dict] = {}

    def cells_at(generation: int, level) -> dict:
        key = (generation, level)
        if key not in truth_cells:
            truth_cells[key] = direct_aggregate(
                merge_fact_tables(parts[:generation]), level
            )
        return truth_cells[key]

    for segment, results, generation in segments:
        assert len(results) == len(segment)
        for query, result in zip(segment, results):
            numbers = query.chunk_numbers(schema)
            assert [c.number for c in result.chunks] == list(numbers)
            cells = cells_at(generation, query.level)
            for chunk in result.chunks:
                expected = expected_cells_in_chunk(
                    schema, cells, query.level, chunk.number
                )
                # Exact equality, not approx: the generator's measures
                # are integer-valued, so the patch wave owes bit-exact
                # sums regardless of merge order.
                assert chunk.cell_dict() == expected, (
                    query, chunk.number, generation,
                )

    # The backend equals a fresh load of the merged fact file.
    merged = merge_fact_tables(parts)
    assert manager.backend.num_tuples == merged.num_tuples
    assert manager.backend.refresh_generation == len(parts) - 1
    # The estimator followed the appends (satellite: incremental
    # recalibration on refresh).
    assert manager.sizes.total_base_tuples == merged.num_tuples

    # Count/Cost state equals a rebuild from the final resident set.
    resident = list(manager.cache.resident_keys())
    rebuilt_counts = CountStore(schema)
    rebuilt_counts.on_insert_many(resident)
    for level in schema.all_levels():
        assert np.array_equal(
            manager.strategy.counts.counts_array(level),
            rebuilt_counts.counts_array(level),
        ), f"count store diverged at level {level}"
    costs = manager.strategy.costs
    rebuilt_costs = CostStore(schema, costs.sizes)
    rebuilt_costs.on_insert_many(resident)
    for level in schema.all_levels():
        assert np.array_equal(
            costs.cost_array(level), rebuilt_costs.cost_array(level)
        ), f"cost surface diverged at level {level}"
        assert np.array_equal(
            costs.best_array(level), rebuilt_costs.best_array(level)
        ), f"best parents diverged at level {level}"


@pytest.mark.parametrize("seed", CHAOS_SEED_MATRIX)
def test_append_chaos_seed_matrix(tiny_schema, tiny_facts, seed):
    try:
        service, parts, segments = run_append_chaos(
            tiny_schema, tiny_facts, seed
        )
        check_append_run(tiny_schema, service, parts, segments)
    except Exception:
        record_failing_seed(seed)
        raise


@pytest.mark.parametrize("seed", CHAOS_SEED_MATRIX)
def test_append_chaos_seed_matrix_mmap_store(tiny_schema, tiny_facts, seed):
    # Same schedule, columnar store: every append publishes a new on-disk
    # generation; answers stay exact against the merged fact file.
    try:
        service, parts, segments = run_append_chaos(
            tiny_schema, tiny_facts, seed, store="mmap"
        )
        check_append_run(tiny_schema, service, parts, segments)
    except Exception:
        record_failing_seed(seed)
        raise


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_append_schedules(tiny_schema, tiny_facts, seed):
    try:
        service, parts, segments = run_append_chaos(
            tiny_schema, tiny_facts, seed
        )
        check_append_run(tiny_schema, service, parts, segments)
    except Exception:
        record_failing_seed(seed)
        raise


@pytest.mark.parametrize("store", ["dict", "mmap"])
@pytest.mark.parametrize("seed", CHAOS_SEED_MATRIX[:2])
def test_append_races_with_serving(tiny_schema, tiny_facts, seed, store):
    """Appends fired from a separate thread mid-serve: no query raises,
    and every answered chunk matches SOME generation's truth — the write
    lock makes each refresh atomic with respect to any single lock hold,
    so a chunk can never show a half-applied patch.  Under the mmap
    store this additionally exercises the file-level CoW: a mid-append
    reader holds one published on-disk generation (directory + mapped
    prefix) for its whole scan."""
    try:
        service = build_service(tiny_schema, tiny_facts, store=store)
        stream = list(
            QueryStreamGenerator(tiny_schema, max_extent=3, seed=seed)
            .generate(3 * QUERIES_PER_SEGMENT)
        )
        rng = make_rng(seed + 1)
        parts: list[FactTable] = [tiny_facts]
        waves = [make_wave(tiny_schema, rng) for _ in range(NUM_WAVES)]

        serve_error: list[BaseException] = []
        results: list = []

        def serve() -> None:
            try:
                results.extend(service.serve(stream, workers=WORKERS))
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                serve_error.append(exc)

        thread = threading.Thread(target=serve)
        thread.start()
        for wave in waves:
            service.refresh_from_backend(wave)
            parts.append(wave)
        thread.join(timeout=120)
        assert not thread.is_alive(), "serving deadlocked against appends"
        assert not serve_error, serve_error

        # Candidate truths: the fact file at every generation.
        truths_by_level: dict = {}

        def candidates(level):
            if level not in truths_by_level:
                truths_by_level[level] = [
                    direct_aggregate(merge_fact_tables(parts[:k]), level)
                    for k in range(1, len(parts) + 1)
                ]
            return truths_by_level[level]

        assert len(results) == len(stream)
        for query, result in zip(stream, results):
            for chunk in result.chunks:
                actual = chunk.cell_dict()
                assert any(
                    actual == expected_cells_in_chunk(
                        tiny_schema, cells, query.level, chunk.number
                    )
                    for cells in candidates(query.level)
                ), (query, chunk.number)
    except Exception:
        record_failing_seed(seed)
        raise
