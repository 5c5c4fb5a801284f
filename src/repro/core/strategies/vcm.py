"""The Virtual Count Method (VCM) — Section 4 of the paper.

VCM maintains one count per chunk per group-by: the number of lattice
parents through which a successful computation path exists, plus one if
the chunk is cached (Property 1: count > 0 iff computable).  A lookup
either fails in constant time (count == 0) or walks exactly one successful
path; unsuccessful parents are rejected without recursion by checking
their chunks' counts.
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np

from repro.core.counts import CountStore
from repro.core.plans import PlanNode
from repro.core.strategies.base import ChunkPresence, LookupStrategy
from repro.core.sizes import SizeEstimator
from repro.schema.cube import CubeSchema, Level
from repro.util.errors import ReproError


class VCMStrategy(LookupStrategy):
    """Constant-time rejection via virtual counts; single-path plans."""

    name: ClassVar[str] = "vcm"
    maintains_state: ClassVar[bool] = True

    #: bytes the paper charges per count entry (Table 3)
    COUNT_BYTES = 1

    def __init__(
        self,
        schema: CubeSchema,
        presence: ChunkPresence,
        sizes: SizeEstimator,
        visit_budget: int | None = None,
    ) -> None:
        super().__init__(schema, presence, sizes, visit_budget)
        self.counts = CountStore(schema)

    def _find(self, level: Level, number: int) -> PlanNode | None:
        self._visit()
        counts = self.counts
        if not counts.is_computable(level, number):
            # Statement (1) of the paper's VCM listing: constant-time reject.
            return None
        if self.presence.contains(level, number):
            return PlanNode.leaf(level, number)
        for parent_level in self.schema.parents_of(level):
            numbers = self.schema.get_parent_chunk_numbers(
                level, number, parent_level
            )
            if not np.all(counts.counts_array(parent_level)[numbers] > 0):
                # This parent has no successful path: rejected without any
                # recursion — the short circuit that removes the factorial.
                continue
            inputs = tuple(
                self._require(parent_level, parent_number)
                for parent_number in numbers.tolist()
            )
            return PlanNode.aggregate(level, number, parent_level, inputs)
        raise ReproError(
            f"virtual counts inconsistent: chunk {number} of level {level} "
            "has a positive count but no successful parent"
        )

    def _require(self, level: Level, number: int) -> PlanNode:
        plan = self._find(level, number)
        if plan is None:
            raise ReproError(
                f"virtual counts inconsistent: chunk {number} of level "
                f"{level} was counted computable but is not"
            )
        return plan

    # ------------------------------------------------------------------ #
    # maintenance

    def _on_insert_many(self, keys: list[tuple[Level, int]]) -> int:
        return self.counts.on_insert_many(keys)

    def _on_evict_many(self, keys: list[tuple[Level, int]]) -> int:
        return self.counts.on_evict_many(keys)

    def state_bytes(self) -> int:
        return self.counts.num_entries() * self.COUNT_BYTES
