"""Table 2 — count/cost update times (experiment E4).

The paper's worst-case probe: insert every chunk of the near-base level
(6,2,3,1,0), then every chunk of (6,2,3,0,0), timing each VCM/VCMC state
update.  The signature result: on the *second* level VCM's updates are all
zero-work (everything is already computable), while VCMC still pays —
inserting the aggregate level changes the cheapest path of its
descendants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chunks.chunk import Chunk
from repro.harness.common import (
    Components,
    build_components,
    empty_cache,
    strategy_on,
)
from repro.harness.config import ExperimentConfig
from repro.schema.cube import Level
from repro.util.tables import render_table
from repro.util.timers import MinMaxAvg, Stopwatch

ALGORITHMS = ("vcm", "vcmc")


def table2_levels(heights: Level) -> tuple[Level, Level]:
    """The two load levels, generalised from the paper's APB choice.

    First the base level with the last dimension fully aggregated —
    (6,2,3,1,0) for APB — then additionally the second-to-last —
    (6,2,3,0,0).
    """
    n = len(heights)
    first = heights[: n - 1] + (0,)
    second = heights[: n - 2] + (0, 0)
    return first, second


@dataclass
class Table2Result:
    config: ExperimentConfig
    levels: tuple[Level, Level]
    times: dict[str, tuple[MinMaxAvg, MinMaxAvg]] = field(default_factory=dict)
    updates: dict[str, tuple[int, int]] = field(default_factory=dict)

    def format(self) -> str:
        first, second = self.levels
        headers = [
            "",
            f"Load {first} Min", "Max", "Avg",
            f"Load {second} Min", "Max", "Avg",
        ]
        rows = []
        for algo in ALGORITHMS:
            a, b = self.times[algo]
            rows.append([algo.upper(), *a.as_row(), *b.as_row()])
        table = render_table(headers, rows, title="Table 2. Update times (ms).")
        counts = ", ".join(
            f"{algo.upper()}: {u1}+{u2} state updates"
            for algo, (u1, u2) in self.updates.items()
        )
        return f"{table}\n({counts})"


def run_table2(config: ExperimentConfig) -> Table2Result:
    components = build_components(config)
    first, second = table2_levels(components.schema.heights)
    result = Table2Result(config=config, levels=(first, second))
    chunks = [components.backend.compute_level(level) for level in (first, second)]
    # Both algorithms read the schema's shared addressing memos.  One
    # untimed pass of each warms them, so neither timed pass pays the
    # warm-up for the other and the order they run in does not matter.
    for algo in ALGORITHMS:
        _load_levels(algo, components, chunks)
    for algo in ALGORITHMS:
        result.times[algo], result.updates[algo] = _load_levels(
            algo, components, chunks
        )
    return result


def _load_levels(
    algo: str, components: Components, levels: list[list[Chunk]]
) -> tuple[tuple[MinMaxAvg, ...], tuple[int, ...]]:
    """Insert each level's chunks into a fresh cache in order, timing each
    chunk's state update as a one-key wave — the paper's per-insertion
    update.  Returns per level the times and the state updates charged."""
    cache = empty_cache(components)
    strategy = strategy_on(algo, components, cache)
    accs, update_counts = [], []
    watch = Stopwatch()
    for chunks in levels:
        acc = MinMaxAvg()
        updates = 0
        for chunk in chunks:
            cache.insert_many([(chunk, chunk.compute_cost)])
            watch.restart()
            updates += strategy.on_insert_many([chunk.key])
            acc.observe(watch.elapsed_ms())
        accs.append(acc)
        update_counts.append(updates)
    return tuple(accs), tuple(update_counts)
