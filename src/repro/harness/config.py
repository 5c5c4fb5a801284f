"""Experiment configuration.

The paper's setup: APB-1 schema, ~1M-tuple fact table (22 MB at 20 B per
tuple), cache sizes 10/15/20/25 MB — i.e. roughly 45%, 68%, 91% and 114%
of the base table.  We keep those *fractions* and scale the tuple count so
the exhaustive strategies terminate in experiment time (DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.schema import (
    apb_reduced_schema,
    apb_schema,
    apb_small_schema,
    apb_tiny_schema,
)
from repro.schema.cube import CubeSchema
from repro.util.errors import ReproError

_SCHEMAS = {
    "apb": apb_schema,
    "apb_small": apb_small_schema,
    "apb_reduced": apb_reduced_schema,
    "apb_tiny": apb_tiny_schema,
}

#: The paper's 10/15/20/25 MB caches as fractions of its 22 MB base table.
PAPER_CACHE_FRACTIONS = (0.45, 0.68, 0.91, 1.15)
PAPER_CACHE_MB = (10, 15, 20, 25)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment needs to be reproducible."""

    schema_name: str = "apb_small"
    num_tuples: int = 100_000
    seed: int = 1729
    num_queries: int = 100
    cache_fractions: tuple[float, ...] = PAPER_CACHE_FRACTIONS
    max_extent: int = 2
    preload_headroom: float = 0.9
    skew: float = 0.0
    data_mode: str = "clustered"
    """APB-like correlated data by default ('clustered'); 'uniform' for
    the plain generator (num_tuples raw draws)."""
    combo_density: float = 0.7
    """Clustered mode: fraction of Product x Customer combos with sales
    (APB's density parameter is 0.7)."""
    cell_fill: float = 0.9
    """Clustered mode: density of each combo over Time/Channel/Scenario."""
    exact_sizes: bool = True
    """Calibrate the size estimator with exact per-level sizes."""
    store: str = "dict"
    """Backend chunk store: 'dict' (in-process) or 'mmap' (memory-mapped
    columnar file; zero-copy scans, datasets beyond RAM — docs/storage.md).
    Experiment outputs are cell-identical across stores."""

    def make_schema(self) -> CubeSchema:
        try:
            factory = _SCHEMAS[self.schema_name]
        except KeyError:
            raise ReproError(
                f"unknown schema {self.schema_name!r}; choose from "
                f"{tuple(_SCHEMAS)}"
            ) from None
        return factory()

    def cache_label(self, fraction: float) -> str:
        """Label a cache size the way the paper does (10 MB .. 25 MB)."""
        for paper_fraction, mb in zip(PAPER_CACHE_FRACTIONS, PAPER_CACHE_MB):
            if abs(fraction - paper_fraction) < 1e-9:
                return f"{mb} MB-equiv ({fraction:.0%} of base)"
        return f"{fraction:.0%} of base"


def default_config() -> ExperimentConfig:
    """The configuration used for the reported reproduction numbers."""
    return ExperimentConfig()


def quick_config() -> ExperimentConfig:
    """A seconds-scale configuration for tests and smoke runs."""
    return ExperimentConfig(
        schema_name="apb_tiny",
        num_tuples=300,
        num_queries=20,
        cache_fractions=(0.5, 1.2),
        max_extent=2,
        data_mode="uniform",
    )
