"""Kernel benchmark: batched ``rollup_many`` vs per-chunk ``rollup_chunks``.

Times the three kernel cases (raw roll-up and backend fetch: batched vs
per-chunk; manager phase 2: fused plan execution vs the hop-by-hop
reference), asserts the batched/fused arm wins each, and writes
``results/BENCH_kernel.json`` — the perf artifact CI uploads so
regressions show up as a trajectory.  See ``docs/perf.md``.
"""

from __future__ import annotations

import json
import pathlib

from repro.harness.kernel_bench import run_kernel_benchmark

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def test_kernel_batched_vs_per_chunk(benchmark, config, emit):
    result = benchmark.pedantic(
        lambda: run_kernel_benchmark(config, repeats=5),
        rounds=1,
        iterations=1,
    )
    emit("kernel_batched", result.format())
    RESULTS_DIR.mkdir(exist_ok=True)
    out = result.write_json(RESULTS_DIR / "BENCH_kernel.json")
    assert json.loads(out.read_text())["kernels"], "empty benchmark output"

    # Every case must cover the whole bench level with real rows.
    for case in result.cases:
        assert case.targets > 1
        assert case.rows > 0
        assert case.batched_ms > 0 and case.per_chunk_ms > 0

    # The batched kernel exists to beat the per-chunk loop on multi-chunk
    # batches.  Gate on the smallest dataset scale (the overhead-bound
    # many-small-chunks regime the batching targets); best-of-5 timings
    # make this stable even on the tiny config.
    for name in ("rollup", "backend_fetch"):
        case = result.case(name)
        assert case.batched_ms <= case.per_chunk_ms, (
            f"batched {name} slower than per-chunk loop at "
            f"{case.tuples} tuples: "
            f"{case.batched_ms:.3f}ms vs {case.per_chunk_ms:.3f}ms"
        )
    # Phase 2 compares executors, not batch sizes: aggregating a plan's
    # leaves straight to the target must not lose to materialising every
    # hop of the same plans.
    case = result.case("phase2")
    assert case.batched_ms <= case.per_chunk_ms, (
        f"fused plan execution slower than hop-by-hop at "
        f"{case.tuples} tuples: "
        f"{case.batched_ms:.3f}ms vs {case.per_chunk_ms:.3f}ms"
    )


def test_kernel_batched_output_identical(config):
    """The timed comparison is honest only if both paths produce the same
    chunks — recheck equality on the benchmark's own workload."""
    from repro.aggregation import rollup_chunks, rollup_many
    from repro.harness.common import build_components
    from repro.harness.kernel_bench import pick_bench_level

    import numpy as np

    components = build_components(config)
    schema, backend = components.schema, components.backend
    level = pick_bench_level(schema)
    numbers = list(range(schema.num_chunks(level)))
    base = schema.base_level
    sources_per_target = [
        [
            backend.base_chunk(int(n))
            for n in schema.get_parent_chunk_numbers(level, number, base)
            if not backend.base_chunk(int(n)).is_empty
        ]
        for number in numbers
    ]
    batched = rollup_many(schema, level, numbers, sources_per_target)
    for number, sources, got in zip(numbers, sources_per_target, batched):
        want = rollup_chunks(schema, level, number, sources)
        assert got.level == want.level and got.number == want.number
        assert got.compute_cost == want.compute_cost
        assert all(
            np.array_equal(a, b) for a, b in zip(got.coords, want.coords)
        )
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.counts, want.counts)
        assert len(got.extras) == len(want.extras)
        assert all(
            np.array_equal(a, b) for a, b in zip(got.extras, want.extras)
        )
