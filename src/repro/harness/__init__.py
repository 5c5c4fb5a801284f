"""Experiment harness: one runner per table/figure of the paper.

Every runner takes an :class:`ExperimentConfig` and returns a result object
with a ``format()`` method that prints the same rows/series the paper
reports.  ``python -m repro.harness`` runs them from the command line;
``benchmarks/`` wraps them in pytest-benchmark.  How fast the system
itself is belongs to ``bench/`` (``BENCHMARK.json``), not here.
"""

from repro.harness.config import ExperimentConfig, default_config, quick_config
from repro.harness.common import Components, build_components
from repro.harness.table1 import run_table1
from repro.harness.table2 import run_table2
from repro.harness.table3 import run_table3
from repro.harness.streams import (
    run_policy_comparison,
    run_scheme_comparison,
    run_stream,
)
from repro.harness.unit_experiments import (
    run_aggregation_benefit,
    run_cost_variation,
)

__all__ = [
    "Components",
    "ExperimentConfig",
    "build_components",
    "default_config",
    "quick_config",
    "run_aggregation_benefit",
    "run_cost_variation",
    "run_policy_comparison",
    "run_scheme_comparison",
    "run_stream",
    "run_table1",
    "run_table2",
    "run_table3",
]
