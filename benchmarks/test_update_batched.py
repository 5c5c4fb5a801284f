"""Update benchmark: batched metadata waves vs per-chunk cascades.

Times the count-store and cost-store maintenance on a multi-level
insert/evict wave both ways, asserts the batched wave never loses at
real scale and always leaves bit-identical store state, and writes
``results/BENCH_update.json`` — the perf artifact CI uploads so
regressions show up as a trajectory.  See ``docs/perf.md``.
"""

from __future__ import annotations

import json
import pathlib

from repro.harness.update_bench import run_update_benchmark

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def test_update_batched_vs_per_chunk(benchmark, config, emit, strict):
    result = benchmark.pedantic(
        lambda: run_update_benchmark(config, repeats=5),
        rounds=1,
        iterations=1,
    )
    emit("update_batched", result.format())
    RESULTS_DIR.mkdir(exist_ok=True)
    out = result.write_json(RESULTS_DIR / "BENCH_update.json")
    assert json.loads(out.read_text())["stores"], "empty benchmark output"

    for case in result.cases:
        assert case.wave > 1
        assert case.batched_ms > 0 and case.per_chunk_ms > 0
        # The batched wave is an optimisation, not an approximation: both
        # paths must leave identical count/cost/cached state (best-parent
        # pointers equal or tied at equal cost) on the bench wave itself.
        assert case.state_identical, (
            f"batched {case.store} wave diverged from the per-chunk "
            f"cascades at {case.tuples} tuples"
        )
        if case.store == "counts":
            # Count maintenance is exact bookkeeping: the wave must also
            # charge exactly as many modifications as the cascades did.
            assert case.per_chunk_updates == case.batched_updates

    # A plan-cache hit skips the lattice search; replaying the identical
    # stream against the warmed cache must be served from the plan cache
    # once admissions quiesce.  The quick wave is 86 lookups on a
    # 300-tuple cube (ratio 0.23 there), so like the timing ordering
    # below the ratio is asserted on the full configuration only.
    pc = result.plan_cache
    assert pc["hits"] > 0
    if strict:
        assert pc["repeat_pass_hit_ratio"] > 0.5

    # The batched wave exists to beat N recursive cascades.  The tiny
    # quick-config wave (~16 keys) is dominated by per-call constants, so
    # the timing ordering is asserted on the full configuration only —
    # and there at EVERY dataset scale.
    if strict:
        for case in result.cases:
            assert case.batched_ms <= case.per_chunk_ms, (
                f"batched {case.store} wave slower than per-chunk "
                f"cascades at {case.tuples} tuples: "
                f"{case.batched_ms:.3f}ms vs {case.per_chunk_ms:.3f}ms"
            )
