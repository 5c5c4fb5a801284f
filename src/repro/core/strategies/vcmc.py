"""Cost-based Virtual Count Method (VCMC) — Section 5.2 of the paper.

VCMC additionally maintains, per chunk, the least cost of computing it and
the parent through which that least-cost path passes.  Lookup is still
constant time per plan node: follow the ``BestParent`` pointers.  The
maintained ``Cost`` can also be returned instantaneously, which the paper
notes is valuable to a cost-based optimizer deciding cache-vs-backend.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.costs import CostStore
from repro.core.counts import CountStore
from repro.core.plans import PlanNode
from repro.core.strategies.base import ChunkPresence, LookupStrategy
from repro.core.sizes import SizeEstimator
from repro.schema.cube import CubeSchema, Level
from repro.util.errors import ReproError


class VCMCStrategy(LookupStrategy):
    """Constant-time find of the least-cost aggregation path."""

    name: ClassVar[str] = "vcmc"
    cost_based: ClassVar[bool] = True
    maintains_state: ClassVar[bool] = True

    #: paper's Table 3 charges: 1 (count) + 4 (cost) + 1 (best parent)
    COUNT_BYTES = 1
    COST_BYTES = 4
    BEST_PARENT_BYTES = 1

    def __init__(
        self,
        schema: CubeSchema,
        presence: ChunkPresence,
        sizes: SizeEstimator,
        visit_budget: int | None = None,
    ) -> None:
        super().__init__(schema, presence, sizes, visit_budget)
        self.counts = CountStore(schema)
        self.costs = CostStore(schema, sizes)

    def _find(self, level: Level, number: int) -> PlanNode | None:
        self._visit()
        costs = self.costs
        if not costs.is_computable(level, number):
            return None
        if costs.is_cached(level, number):
            return PlanNode.leaf(level, number)
        parent_level = costs.best_parent_level(level, number)
        if parent_level is None:
            raise ReproError(
                f"cost store inconsistent: chunk {number} of level {level} "
                "is computable and not cached but has no best parent"
            )
        numbers = self.schema.get_parent_chunk_numbers(level, number, parent_level)
        inputs = []
        for parent_number in numbers.tolist():
            sub_plan = self._find(parent_level, parent_number)
            if sub_plan is None:
                raise ReproError(
                    f"cost store inconsistent: best path of chunk {number} "
                    f"at level {level} passes through non-computable chunk "
                    f"{parent_number} of level {parent_level}"
                )
            inputs.append(sub_plan)
        return PlanNode.aggregate(level, number, parent_level, tuple(inputs))

    def plan_cost(self, level: Level, number: int) -> float:
        """The maintained least cost — an O(1) array read."""
        return self.costs.cost(level, number)

    # ------------------------------------------------------------------ #
    # maintenance

    def _on_insert_many(self, keys: list[tuple[Level, int]]) -> int:
        return self.counts.on_insert_many(keys) + self.costs.on_insert_many(keys)

    def _on_evict_many(self, keys: list[tuple[Level, int]]) -> int:
        return self.counts.on_evict_many(keys) + self.costs.on_evict_many(keys)

    def state_bytes(self) -> int:
        per_entry = self.COUNT_BYTES + self.COST_BYTES + self.BEST_PARENT_BYTES
        return self.costs.num_entries() * per_entry
