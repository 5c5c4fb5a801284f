"""Cache lookup strategies: ESM, ESMC, VCM, VCMC and the no-aggregation
baseline, behind a single interface (see :mod:`repro.core.strategies.base`).
"""

from __future__ import annotations

from repro.core.sizes import SizeEstimator
from repro.core.strategies.base import ChunkPresence, LookupStrategy
from repro.core.strategies.esm import ESMStrategy
from repro.core.strategies.esmc import ESMCStrategy
from repro.core.strategies.noagg import NoAggregationStrategy
from repro.core.strategies.vcm import VCMStrategy
from repro.core.strategies.vcmc import VCMCStrategy
from repro.schema.cube import CubeSchema
from repro.util.errors import ReproError

_STRATEGIES: dict[str, type[LookupStrategy]] = {
    ESMStrategy.name: ESMStrategy,
    ESMCStrategy.name: ESMCStrategy,
    VCMStrategy.name: VCMStrategy,
    VCMCStrategy.name: VCMCStrategy,
    NoAggregationStrategy.name: NoAggregationStrategy,
}

STRATEGY_NAMES = tuple(_STRATEGIES)


def make_strategy(
    name: str,
    schema: CubeSchema,
    presence: ChunkPresence,
    sizes: SizeEstimator,
    visit_budget: int | None = None,
) -> LookupStrategy:
    """Instantiate a lookup strategy by name (one of ``STRATEGY_NAMES``)."""
    try:
        cls = _STRATEGIES[name.lower()]
    except KeyError:
        raise ReproError(
            f"unknown strategy {name!r}; choose from {STRATEGY_NAMES}"
        ) from None
    return cls(schema, presence, sizes, visit_budget=visit_budget)


__all__ = [
    "ChunkPresence",
    "ESMCStrategy",
    "ESMStrategy",
    "LookupStrategy",
    "NoAggregationStrategy",
    "STRATEGY_NAMES",
    "VCMCStrategy",
    "VCMStrategy",
    "make_strategy",
]
