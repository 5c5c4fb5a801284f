"""Chaos suite re-run under the ``approx`` contract.

The PR 5 outage schedules and PR 7 append races, with every query served
under ``contract=approx()`` against a sampling-enabled manager.  The
properties on top of the exact-mode chaos invariants:

* **no unhandled exceptions** — mid-outage queries return results, with
  the uncovered remainder estimated from the reservoir instead of
  reported as a hole;
* **fields always populated** — every result carries ``coverage``,
  ``unanswered``, ``estimated`` and ``contract``, and
  chunks + estimated + unanswered partition the plan exactly;
* **estimates never shadow exact data** — an estimated chunk number is
  never also answered exactly;
* **the reservoir tracks appends** — the sample population equals the
  warehouse tuple stream after every wave.

A failing seed is appended to ``$CHAOS_REPLAY_PATH`` (default
``artifacts/chaos_replay.txt``), same replay protocol as
``tests/faults/test_chaos_properties``.
"""

from __future__ import annotations

import threading

import pytest

from repro import (
    AggregateCache,
    BackendDatabase,
    ConcurrentAggregateCache,
    CostModel,
    QueryStreamGenerator,
    ResilientBackend,
)
from repro.approx.contract import approx
from repro.util.rng import make_rng
from tests.faults.test_chaos_appends import make_wave
from tests.faults.test_chaos_properties import (
    CHAOS_SEED_MATRIX,
    build_schedule,
    record_failing_seed,
)

WORKERS = 6
NUM_QUERIES = 48
FRACTION = 0.2


def _check_contract_fields(schema, stream, results) -> int:
    """The partition/field invariants; returns total estimated chunks."""
    assert len(results) == len(stream)
    estimated_total = 0
    for query, result in zip(stream, results):
        assert result is not None
        numbers = query.chunk_numbers(schema)
        answered = [chunk.number for chunk in result.chunks]
        estimated = [estimate.number for estimate in result.estimated]
        unanswered = list(result.unanswered)
        assert sorted(answered + estimated + unanswered) == sorted(numbers)
        assert not (set(answered) & set(estimated))
        assert isinstance(result.coverage, float)
        assert result.coverage == pytest.approx(
            len(answered) / len(numbers)
        )
        assert result.contract == "approx"
        for estimate in result.estimated:
            assert estimate.sum_est == estimate.sum_est  # not NaN
        estimated_total += len(estimated)
    return estimated_total


@pytest.mark.parametrize("seed", CHAOS_SEED_MATRIX)
def test_outage_chaos_under_approx_contract(
    small_schema, small_facts, seed
):
    backend = BackendDatabase(small_schema, small_facts, CostModel())
    resilient = ResilientBackend(
        backend,
        max_retries=1,
        base_backoff_s=0.0001,
        max_backoff_s=0.001,
        failure_threshold=3,
        reset_timeout_s=0.02,
        seed=seed,
    )
    manager = AggregateCache(
        small_schema,
        resilient,
        capacity_bytes=max(int(backend.base_size_bytes * 0.6), 1),
        strategy="vcmc",
        policy="two_level",
        degraded_mode=True,
        approx=FRACTION,
        approx_seed=seed,
    )
    service = ConcurrentAggregateCache(manager, flight_timeout_s=15.0)
    stream = list(
        QueryStreamGenerator(small_schema, max_extent=3, seed=seed).generate(
            NUM_QUERIES
        )
    )
    registry = build_schedule(seed)
    try:
        with registry.armed():
            results = service.serve(
                stream, workers=WORKERS, contract=approx()
            )
        _check_contract_fields(small_schema, stream, results)
        # Whatever the schedule left unanswered, the sample filled in:
        # a chunk lands in ``unanswered`` only when its own CI is
        # invalid (support < 2 in the reservoir).
        for result in results:
            if result.degraded:
                assert result.answered_fraction >= result.coverage
    except Exception:
        record_failing_seed(seed)
        raise


@pytest.mark.parametrize("seed", CHAOS_SEED_MATRIX[:2])
def test_append_races_under_approx_contract(small_schema, small_facts, seed):
    backend = BackendDatabase(small_schema, small_facts, CostModel())
    manager = AggregateCache(
        small_schema,
        backend,
        capacity_bytes=max(int(backend.base_size_bytes * 0.7), 1),
        strategy="vcmc",
        policy="two_level",
        approx=FRACTION,
        approx_seed=seed,
    )
    service = ConcurrentAggregateCache(manager, flight_timeout_s=15.0)
    stream = list(
        QueryStreamGenerator(small_schema, max_extent=3, seed=seed).generate(
            36
        )
    )
    population_before = manager.approx.view().population
    assert population_before > 0

    serve_error: list[BaseException] = []
    results: list = []

    def run_stream():
        try:
            results.extend(
                service.serve(stream, workers=WORKERS, contract=approx())
            )
        except BaseException as error:  # noqa: BLE001 - recorded, re-raised
            serve_error.append(error)

    rng = make_rng(seed + 1)
    waves = [make_wave(small_schema, rng) for _ in range(3)]
    try:
        thread = threading.Thread(target=run_stream)
        thread.start()
        for wave in waves:
            service.refresh_from_backend(wave, mode="delta")
        thread.join(timeout=120)
        assert not thread.is_alive(), "serving thread hung"
        if serve_error:
            raise serve_error[0]
        _check_contract_fields(small_schema, stream, results)
        # The reservoir observed every appended tuple stream.
        expected = population_before + sum(
            wave.num_tuples for wave in waves
        )
        assert manager.approx.view().population == expected
    except Exception:
        record_failing_seed(seed)
        raise
