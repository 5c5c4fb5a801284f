"""Ablation experiments (A1, A2, A4 in DESIGN.md) — ours, not the paper's.

The two-level policy bundles three mechanisms (class priority, group
reinforcement, pre-loading).  These ablations unbundle them, plus the
admission question the paper defers to WATCHMAN:

* **A1** — group reinforcement on vs off, everything else equal.
* **A2** — pre-load selection: the paper's max-descendants rule vs the
  HRU96 view set vs the largest group-by that fits vs none.
* **A4** — WATCHMAN-style profit admission on vs off (benefit policy).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.replacement.two_level import TwoLevelPolicy
from repro.core.manager import AggregateCache
from repro.harness.common import Components, build_components
from repro.harness.config import ExperimentConfig
from repro.harness.streams import SchemeSpec, StreamResult, execute_stream
from repro.schema.cube import Level
from repro.util.tables import render_table


def _make_manager(
    components: Components,
    fraction: float,
    reinforce: bool = True,
    preload: bool = True,
) -> AggregateCache:
    config = components.config
    return AggregateCache(
        components.schema,
        components.backend,
        capacity_bytes=components.capacity_for(fraction),
        strategy="vcmc",
        policy=TwoLevelPolicy(reinforce_groups=reinforce),
        preload=preload,
        preload_headroom=config.preload_headroom,
        sizes=components.sizes,
    )


# --------------------------------------------------------------------- #
# A1 — group reinforcement


@dataclass
class ReinforcementAblationResult:
    config: ExperimentConfig
    results: dict[tuple[bool, float], StreamResult] = field(default_factory=dict)

    def format(self) -> str:
        headers = [
            "Cache size",
            "reinforced hit %", "reinforced avg ms",
            "plain hit %", "plain avg ms",
        ]
        rows = []
        for fraction in self.config.cache_fractions:
            on = self.results[(True, fraction)]
            off = self.results[(False, fraction)]
            rows.append(
                [
                    self.config.cache_label(fraction),
                    f"{100 * on.hit_ratio:.0f}%",
                    f"{on.avg_ms:.2f}",
                    f"{100 * off.hit_ratio:.0f}%",
                    f"{off.avg_ms:.2f}",
                ]
            )
        return render_table(
            headers,
            rows,
            title=(
                "Ablation A1. Two-level policy with vs without group "
                "reinforcement (VCMC)."
            ),
        )


def run_reinforcement_ablation(
    config: ExperimentConfig,
) -> ReinforcementAblationResult:
    components = build_components(config)
    result = ReinforcementAblationResult(config=config)
    for reinforce in (True, False):
        label = "two_level" if reinforce else "two_level-noreinforce"
        for fraction in config.cache_fractions:
            manager = _make_manager(components, fraction, reinforce=reinforce)
            result.results[(reinforce, fraction)] = execute_stream(
                config,
                manager,
                SchemeSpec(strategy="vcmc", policy=label),
                fraction,
            )
    return result


# --------------------------------------------------------------------- #
# A2 — pre-load selection


def _preload_hru(manager: AggregateCache, headroom: float) -> Level | None:
    """Alternative rule: the HRU96 greedy view *set* under the budget."""
    from repro.precompute import greedy_select

    budget = manager.cache.capacity_bytes * headroom
    choices = greedy_select(manager.schema, manager.sizes, budget)
    loaded = manager.preload_levels([choice.level for choice in choices])
    return loaded[0] if loaded else None


def _preload_largest(manager: AggregateCache, headroom: float) -> Level | None:
    """Alternative rule: the largest (most bytes) group-by that fits."""
    sizes = manager.sizes
    budget = manager.cache.capacity_bytes * headroom
    best: Level | None = None
    best_bytes = -1.0
    for level in manager.schema.all_levels():
        est = sizes.level_bytes(level)
        if est <= budget and est > best_bytes:
            best, best_bytes = level, est
    if best is None:
        return None
    manager.preload_levels([best])
    manager.preloaded_level = best
    return best


@dataclass
class PreloadAblationResult:
    config: ExperimentConfig
    results: dict[tuple[str, float], StreamResult] = field(default_factory=dict)
    chosen: dict[tuple[str, float], Level | None] = field(default_factory=dict)

    RULES = ("max_descendants", "hru", "largest", "none")

    def format(self) -> str:
        headers = ["Cache size"]
        for rule in self.RULES:
            headers += [f"{rule} hit %", f"{rule} avg ms"]
        rows = []
        for fraction in self.config.cache_fractions:
            row = [self.config.cache_label(fraction)]
            for rule in self.RULES:
                res = self.results[(rule, fraction)]
                row += [f"{100 * res.hit_ratio:.0f}%", f"{res.avg_ms:.2f}"]
            rows.append(row)
        return render_table(
            headers,
            rows,
            title=(
                "Ablation A2. Pre-load rule: paper's max-descendants vs "
                "largest-fitting vs none (VCMC, two-level)."
            ),
        )


@dataclass
class AdmissionAblationResult:
    config: ExperimentConfig
    results: dict[tuple[bool, float], StreamResult] = field(default_factory=dict)

    def format(self) -> str:
        headers = [
            "Cache size",
            "admit-all hit %", "admit-all avg ms",
            "profit hit %", "profit avg ms",
        ]
        rows = []
        for fraction in self.config.cache_fractions:
            off = self.results[(False, fraction)]
            on = self.results[(True, fraction)]
            rows.append(
                [
                    self.config.cache_label(fraction),
                    f"{100 * off.hit_ratio:.0f}%",
                    f"{off.avg_ms:.2f}",
                    f"{100 * on.hit_ratio:.0f}%",
                    f"{on.avg_ms:.2f}",
                ]
            )
        return render_table(
            headers,
            rows,
            title=(
                "Ablation A4. Benefit policy with vs without WATCHMAN-style "
                "profit admission (VCMC)."
            ),
        )


def run_admission_ablation(config: ExperimentConfig) -> AdmissionAblationResult:
    from repro.cache.replacement.benefit_clock import BenefitClockPolicy

    components = build_components(config)
    result = AdmissionAblationResult(config=config)
    for profit in (False, True):
        label = "benefit+profit" if profit else "benefit"
        for fraction in config.cache_fractions:
            manager = AggregateCache(
                components.schema,
                components.backend,
                capacity_bytes=components.capacity_for(fraction),
                strategy="vcmc",
                policy=BenefitClockPolicy(profit_admission=profit),
                preload=True,
                preload_headroom=config.preload_headroom,
                sizes=components.sizes,
            )
            result.results[(profit, fraction)] = execute_stream(
                config,
                manager,
                SchemeSpec(strategy="vcmc", policy=label),
                fraction,
            )
    return result


def run_preload_ablation(config: ExperimentConfig) -> PreloadAblationResult:
    components = build_components(config)
    result = PreloadAblationResult(config=config)
    for rule in PreloadAblationResult.RULES:
        for fraction in config.cache_fractions:
            manager = _make_manager(
                components, fraction, preload=(rule == "max_descendants")
            )
            if rule == "largest":
                _preload_largest(manager, config.preload_headroom)
            elif rule == "hru":
                _preload_hru(manager, config.preload_headroom)
            result.chosen[(rule, fraction)] = manager.preloaded_level
            result.results[(rule, fraction)] = execute_stream(
                config,
                manager,
                SchemeSpec(strategy="vcmc", policy=f"two_level+{rule}"),
                fraction,
            )
    return result
