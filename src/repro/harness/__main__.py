"""Command-line entry point: ``python -m repro.harness [options]``.

Runs the paper-reproduction experiments and prints the same tables and
series the paper reports.  ``--quick`` uses a seconds-scale configuration;
the default configuration is the one recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from repro.aggregation import set_default_validation
from repro.harness.config import default_config, quick_config
from repro.harness.locality import run_locality_sweep
from repro.harness.streams import run_policy_comparison, run_scheme_comparison
from repro.harness.table1 import run_table1
from repro.harness.table2 import run_table2
from repro.harness.table3 import run_table3
from repro.harness.unit_experiments import (
    run_aggregation_benefit,
    run_cost_variation,
)

EXPERIMENTS = (
    "benefit",
    "cost_variation",
    "table1",
    "table2",
    "table3",
    "table4",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "locality",
    "ablations",
    "faults",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        choices=[*EXPERIMENTS, "all"],
        default="all",
        help="which experiments to run (default: all)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="seconds-scale configuration (tiny schema) for smoke runs",
    )
    parser.add_argument(
        "--store",
        choices=("dict", "mmap"),
        default=None,
        help=(
            "backend chunk store: in-process dict (default) or the "
            "memory-mapped columnar file with zero-copy scans; outputs "
            "are cell-identical either way (see docs/storage.md)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help=(
            "run the ESM/VCMC streams instrumented and write every "
            "observability event (query phases, cache events, backend "
            "fetches) to PATH as JSONL; see docs/observability.md"
        ),
    )
    parser.add_argument(
        "--metrics-summary",
        metavar="PATH",
        default=None,
        help="with --metrics-out: also write a per-event-kind CSV rollup",
    )
    args = parser.parse_args(argv)
    # Benchmark runs skip the aggregation output sweep (tests turn it
    # back on via their conftest); see docs/perf.md.
    previous_validation = set_default_validation(False)
    try:
        return _run(args)
    finally:
        set_default_validation(previous_validation)


def _run(args: argparse.Namespace) -> int:
    config = quick_config() if args.quick else default_config()
    if args.store is not None:
        config = replace(config, store=args.store)
    selected = args.experiments
    explicit = not isinstance(selected, str)
    if isinstance(selected, str):
        selected = [selected]
    wanted = set(selected) or {"all"}
    if "all" in wanted:
        wanted = set(EXPERIMENTS)

    if args.metrics_out:
        from repro.harness.obs_run import run_instrumented_streams

        print(
            run_instrumented_streams(
                config, args.metrics_out, args.metrics_summary
            )
        )
        if not explicit:
            # --metrics-out alone is the whole job; experiments run only
            # when named alongside it.
            return 0

    print(f"# Configuration: {config}\n")
    outputs: list[str] = []

    def run(name: str, producer) -> None:
        if name not in wanted:
            return
        start = time.perf_counter()
        text = producer()
        elapsed = time.perf_counter() - start
        outputs.append(f"{text}\n[{name}: {elapsed:.1f}s]\n")

    run("benefit", lambda: run_aggregation_benefit(config).format())
    run("cost_variation", lambda: run_cost_variation(config).format())
    run("table1", lambda: run_table1(config).format())
    run("table2", lambda: run_table2(config).format())
    run("table3", lambda: run_table3(config).format())
    run("locality", lambda: run_locality_sweep(config).format())

    def _ablations() -> str:
        from repro.harness.ablations import (
            run_preload_ablation,
            run_reinforcement_ablation,
        )

        return (
            run_reinforcement_ablation(config).format()
            + "\n\n"
            + run_preload_ablation(config).format()
        )

    run("ablations", _ablations)

    def _faults() -> str:
        from repro.harness.faults_run import run_faults_experiment

        return run_faults_experiment(config).format()

    run("faults", _faults)

    if wanted & {"fig7", "fig8"}:
        comparison = run_policy_comparison(config)
        if "fig7" in wanted:
            outputs.append(comparison.format_fig7() + "\n")
        if "fig8" in wanted:
            outputs.append(comparison.format_fig8() + "\n")
    if wanted & {"fig9", "fig10", "table4"}:
        schemes = run_scheme_comparison(config)
        if "fig9" in wanted:
            outputs.append(schemes.format_fig9() + "\n")
        if "fig10" in wanted:
            outputs.append(schemes.format_fig10() + "\n")
        if "table4" in wanted:
            outputs.append(schemes.format_table4() + "\n")

    print("\n".join(outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
