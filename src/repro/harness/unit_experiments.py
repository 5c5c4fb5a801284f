"""Section 7.1's two summarised unit experiments (E1, E2).

* **Benefit of Aggregation** (E1) — with the base table cached, answer one
  chunk of every group-by both by in-cache aggregation (real numpy work)
  and by a backend fetch (real scan work plus the modelled connection and
  transfer charges).  The paper reports cache wins by ~8x on average.
* **Aggregation Cost Optimization** (E2) — compare the cheapest and the
  most expensive lattice path for computing each group-by from the base
  table, using the *exact* per-level sizes.  The paper reports an average
  slowest/fastest factor of ~10, larger for more aggregated group-bys.
  The disparity comes from the data's correlation structure: rolling up a
  dense dimension (Time) shrinks the data immediately, rolling up a
  sparse one (Product) barely does — which is why the harness generates
  APB-like clustered data by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aggregation import rollup_chunks
from repro.harness.common import (
    build_components,
    empty_cache,
    preload_level_into,
    strategy_on,
)
from repro.harness.config import ExperimentConfig
from repro.schema.cube import Level
from repro.util.tables import render_table
from repro.util.timers import MinMaxAvg, Stopwatch


@dataclass
class AggregationBenefitResult:
    config: ExperimentConfig
    speedup: MinMaxAvg = field(default_factory=MinMaxAvg)
    cache_ms: MinMaxAvg = field(default_factory=MinMaxAvg)
    backend_ms: MinMaxAvg = field(default_factory=MinMaxAvg)

    def format(self) -> str:
        headers = ["", "Min", "Max", "Average"]
        rows = [
            ["In-cache aggregation (ms)", *self.cache_ms.as_row()],
            ["Backend fetch (ms)", *self.backend_ms.as_row()],
            ["Speedup (backend / cache)", *self.speedup.as_row("{:.1f}x")],
        ]
        return render_table(
            headers,
            rows,
            title=(
                "Unit experiment: benefit of aggregation (paper: cache wins "
                "~8x on average)."
            ),
        )


def run_aggregation_benefit(config: ExperimentConfig) -> AggregationBenefitResult:
    """E1: measured cost of cache aggregation vs backend fetch, per group-by.

    Cache side: the VCMC plan for chunk 0 of the level, executed for real
    (numpy roll-ups over the cached base chunks).  Backend side: the real
    scan/aggregation work plus the simulated connection/transfer overhead
    (``BackendRequestStats.total_ms``).
    """
    components = build_components(config)
    schema = components.schema
    cache = empty_cache(components)
    vcmc = strategy_on("vcmc", components, cache)
    preload_level_into(components, cache, schema.base_level, [vcmc])

    result = AggregationBenefitResult(config=config)
    watch = Stopwatch()
    for level in schema.all_levels():
        if level == schema.base_level:
            continue  # a cached base chunk needs no aggregation
        plan = vcmc.find(level, 0)
        watch.restart()
        execute_hop_by_hop(components.schema, cache, plan)
        cache_ms = watch.elapsed_ms()

        _, stats = components.backend.fetch([(level, 0)])
        backend_ms = stats.total_ms

        result.cache_ms.observe(cache_ms)
        result.backend_ms.observe(backend_ms)
        if cache_ms > 0:
            result.speedup.observe(backend_ms / cache_ms)
    return result


def execute_hop_by_hop(schema, cache, node):
    """Execute a plan literally: one roll-up per inner node, every
    intermediate chunk materialised (the paper's aggregation path)."""
    if node.is_leaf:
        return cache.peek(node.level, node.number)
    inputs = [execute_hop_by_hop(schema, cache, child) for child in node.inputs]
    return rollup_chunks(schema, node.level, node.number, inputs)


@dataclass
class CostVariationResult:
    config: ExperimentConfig
    ratio: MinMaxAvg = field(default_factory=MinMaxAvg)
    by_distance: dict[int, MinMaxAvg] = field(default_factory=dict)
    measured_ratio: MinMaxAvg = field(default_factory=MinMaxAvg)
    """Wall-clock slowest/fastest chain ratio on sampled group-bys."""

    def format(self) -> str:
        headers = [
            "Aggregation distance from base", "Group-bys",
            "Min ratio", "Max ratio", "Avg ratio",
        ]
        rows = []
        for distance in sorted(self.by_distance):
            acc = self.by_distance[distance]
            rows.append([distance, acc.count, *acc.as_row("{:.2f}")])
        rows.append(["ALL", self.ratio.count, *self.ratio.as_row("{:.2f}")])
        table = render_table(
            headers,
            rows,
            title=(
                "Unit experiment: slowest/fastest aggregation path cost "
                "ratio (paper: ~10x average, larger when more aggregated)."
            ),
        )
        if self.measured_ratio.count:
            table += (
                "\nMeasured wall-clock slowest/fastest ratio on "
                f"{self.measured_ratio.count} sampled group-bys: "
                f"min {self.measured_ratio.min_value:.1f}x, "
                f"max {self.measured_ratio.max_value:.1f}x, "
                f"avg {self.measured_ratio.average:.1f}x."
            )
        return table


def run_cost_variation(
    config: ExperimentConfig, measure_sample: int = 12
) -> CostVariationResult:
    """E2: min vs max lattice-path cost per group-by, base table cached.

    The cost of computing a whole group-by along a lattice chain is the
    sum of the (exact) sizes of every level materialised on the way, the
    paper's linear metric.  Dynamic programming over the lattice gives
    the cheapest and dearest chains; on a sample of the most aggregated
    group-bys both chains are additionally *executed* and wall-clocked,
    since the paper reports measured times (real per-hop costs are
    super-linear in the materialised sizes, amplifying the disparity).
    """
    components = build_components(config)
    schema = components.schema
    sizes = components.sizes
    base = schema.base_level

    min_memo: dict[Level, tuple[float, Level | None]] = {}
    max_memo: dict[Level, tuple[float, Level | None]] = {}

    def chain_cost(level: Level, memo, pick) -> tuple[float, Level | None]:
        if level in memo:
            return memo[level]
        if level == base:
            memo[level] = (0.0, None)
            return memo[level]
        best: tuple[float, Level | None] | None = None
        for parent in schema.parents_of(level):
            total = chain_cost(parent, memo, pick)[0] + sizes.level_tuples(parent)
            if best is None or pick(best[0], total) == total:
                best = (total, parent)
        memo[level] = best if best is not None else (0.0, None)
        return memo[level]

    result = CostVariationResult(config=config)
    for level in schema.all_levels():
        if level == base:
            continue
        cheapest = chain_cost(level, min_memo, min)[0]
        dearest = chain_cost(level, max_memo, max)[0]
        if cheapest <= 0:
            continue
        ratio = dearest / cheapest
        distance = sum(h - l for h, l in zip(schema.heights, level))
        result.ratio.observe(ratio)
        result.by_distance.setdefault(distance, MinMaxAvg()).observe(ratio)

    if measure_sample:
        _measure_chain_times(components, min_memo, max_memo, result, measure_sample)
    return result


def _measure_chain_times(
    components, min_memo, max_memo, result: CostVariationResult, sample: int
) -> None:
    """Execute the DP-optimal and DP-pessimal chains for the most
    aggregated group-bys and record the wall-clock ratio."""
    schema = components.schema
    base = schema.base_level
    base_chunks = [
        components.backend.base_chunk(n)
        for n in range(schema.num_chunks(base))
    ]

    def run_chain(level: Level, memo) -> float:
        # Reconstruct the chain base -> .. -> level from the DP parents.
        chain = [level]
        while chain[-1] != base:
            parent = memo[chain[-1]][1]
            if parent is None:
                break
            chain.append(parent)
        chain.reverse()  # base first
        watch = Stopwatch()
        current = base_chunks
        for hop in chain[1:]:
            current = [
                rollup_chunks(
                    schema,
                    hop,
                    number,
                    [
                        c
                        for c in current
                        if schema.get_child_chunk_number(
                            c.level, c.number, hop
                        )
                        == number
                    ],
                )
                for number in range(schema.num_chunks(hop))
            ]
        return watch.elapsed_ms()

    levels = sorted(
        (lvl for lvl in schema.all_levels() if lvl != base),
        key=lambda lvl: sum(lvl),
    )[:sample]
    for level in levels:
        fast = run_chain(level, min_memo)
        slow = run_chain(level, max_memo)
        if fast > 0:
            result.measured_ratio.observe(slow / fast)

