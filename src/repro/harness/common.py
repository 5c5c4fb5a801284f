"""Shared experiment plumbing: component construction and small helpers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.backend import BackendDatabase, CostModel, generate_fact_table
from repro.cache.replacement import make_policy
from repro.cache.store import ChunkCache, net_movements
from repro.core.sizes import SizeEstimator
from repro.core.strategies import make_strategy
from repro.core.strategies.base import LookupStrategy
from repro.harness.config import ExperimentConfig
from repro.schema.cube import CubeSchema


@dataclass
class Components:
    """A schema + facts + backend bundle shared by one experiment run."""

    config: ExperimentConfig
    schema: CubeSchema
    backend: BackendDatabase
    sizes: SizeEstimator

    @property
    def base_bytes(self) -> int:
        return self.backend.base_size_bytes

    def capacity_for(self, fraction: float) -> int:
        return max(int(self.base_bytes * fraction), 1)


@lru_cache(maxsize=8)
def build_components(config: ExperimentConfig) -> Components:
    """Build (and memoise) the schema/facts/backend for a configuration.

    Memoised because several benchmarks share one configuration; the
    backend is stateless with respect to its lifetime counters only, which
    experiments do not rely on across runs.
    """
    schema = config.make_schema()
    facts = generate_fact_table(
        schema,
        num_tuples=config.num_tuples,
        seed=config.seed,
        skew=config.skew,
        mode=config.data_mode,
        combo_density=config.combo_density,
        cell_fill=config.cell_fill,
    )
    backend = BackendDatabase(schema, facts, CostModel(), store=config.store)
    if config.exact_sizes:
        sizes = SizeEstimator.exact(schema, facts)
    else:
        sizes = SizeEstimator(schema, facts.num_tuples)
    return Components(config=config, schema=schema, backend=backend, sizes=sizes)


def empty_cache(components: Components, capacity: int | None = None) -> ChunkCache:
    """A fresh cache (benefit policy) for the unit experiments."""
    return ChunkCache(
        capacity if capacity is not None else 1 << 34,
        make_policy("benefit"),
        components.schema.bytes_per_tuple,
    )


def strategy_on(
    name: str, components: Components, cache: ChunkCache
) -> LookupStrategy:
    return make_strategy(name, components.schema, cache, components.sizes)


def preload_level_into(
    components: Components,
    cache: ChunkCache,
    level,
    strategies: list[LookupStrategy],
) -> None:
    """Load every chunk of ``level`` into ``cache`` as one admission wave,
    then feed each strategy the wave's net evictions and net insertions
    (state kept in sync)."""
    chunks = components.backend.compute_level(level)
    outcomes = cache.insert_many([(chunk, chunk.compute_cost) for chunk in chunks])
    inserted, evicted = net_movements([chunk.key for chunk in chunks], outcomes)
    for strategy in strategies:
        strategy.on_evict_many(evicted)
        strategy.on_insert_many(inserted)
