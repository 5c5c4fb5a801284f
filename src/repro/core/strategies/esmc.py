"""Cost-based Exhaustive Search (ESMC) — Section 5.1 of the paper.

Where ESM quits at the first successful path, ESMC keeps searching *all*
paths and returns the cheapest plan, using the linear cost model (tuples
aggregated, from the deterministic size estimator).  Its worst case equals
ESM's, but its average case is far worse — with a warm cache every path is
successful and must still be fully explored, which is why the paper
measures a 5.5-hour lookup and drops ESMC from further experiments.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.plans import PlanNode
from repro.core.strategies.base import LookupStrategy
from repro.schema.cube import Level


class ESMCStrategy(LookupStrategy):
    """All-paths exhaustive search returning the least-cost plan."""

    name: ClassVar[str] = "esmc"
    cost_based: ClassVar[bool] = True
    memoise_find: ClassVar[bool] = True

    def _find(self, level: Level, number: int) -> PlanNode | None:
        plan, _ = self._find_best(level, number)
        return plan

    def _find_best(
        self, level: Level, number: int
    ) -> tuple[PlanNode | None, float]:
        """Best plan and its cost (inf when not computable)."""
        self._visit()
        if self.presence.contains(level, number):
            return PlanNode.leaf(level, number), 0.0
        best_plan: PlanNode | None = None
        best_cost = float("inf")
        for parent_level in self.schema.parents_of(level):
            numbers = self.schema.get_parent_chunk_numbers(
                level, number, parent_level
            )
            inputs = []
            cost = 0.0
            for parent_number in numbers.tolist():
                sub_plan, sub_cost = self._find_best(parent_level, parent_number)
                if sub_plan is None:
                    inputs = None
                    break
                inputs.append(sub_plan)
                cost += sub_cost + self.sizes.chunk_tuples(
                    parent_level, parent_number
                )
            if inputs is not None and cost < best_cost:
                best_cost = cost
                best_plan = PlanNode.aggregate(
                    level, number, parent_level, tuple(inputs)
                )
        return best_plan, best_cost
