"""``append_mixed`` in miniature: the canonical benchmark's own stack,
query cycle, append waves and oracle, at a size tier-1 can afford.

The benchmark modules are loaded by path from ``bench/`` and used as they
are, so this test drives exactly what the benchmark drives: the service
over the mmap warehouse at the workload's cache budget, serving its
pinned paper-mix cycle with a delta refresh wave after every 25th query.
At this length the patched chunks outgrow the budget, so refresh waves
evict — the regime the three-wave append tests on ``apb_tiny`` never
reach.  Every 5th answer is checked against the brute-force oracle and
the manager's invariants are checked after every wave.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[2] / "bench"

QUERIES = 600
CHECK_EVERY = 5


def load_bench_module(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        f"_bench_{name}", BENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_append_mixed_answers_stay_exact_across_overflowing_waves(
    tmp_path, monkeypatch
):
    workloads = load_bench_module("workloads", monkeypatch)
    Oracle = load_bench_module("oracle", monkeypatch).Oracle
    workload = workloads.WORKLOADS["append_mixed"]
    stack = workloads.Stack(workload, tmp_path / "warehouse.col")
    try:
        oracle = Oracle(stack.schema, stack.facts)
        cycle = workloads.make_cycle(workload, stack.schema)
        batches = workloads.AppendBatches(workload, stack.schema)
        every = workload.append_every
        waves = checked = evicted = 0
        for position in range(QUERIES):
            query = cycle[position]
            result = stack.target.query(query)
            assert not result.degraded and not result.unanswered, position
            if position % CHECK_EVERY == 0:
                assert oracle.matches(query, result.chunks, waves), position
                checked += 1
            if (position + 1) % every == 0:
                batch = batches.batch(position // every)
                outcome = stack.target.refresh_from_backend(
                    batch, mode="delta"
                )
                oracle.append(batch)
                waves += 1
                evicted += outcome.evicted
                stack.manager.check_invariants()
        assert waves == QUERIES // every
        assert checked == QUERIES // CHECK_EVERY
        assert evicted > 0, "no refresh wave overflowed the cache budget"
    finally:
        stack.close()
