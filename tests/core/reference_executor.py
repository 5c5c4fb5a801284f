"""Hop-by-hop plan execution — the test oracle for the fused executor.

This is the executor ``AggregateCache._execute_plan`` used to be: walk the
plan tree bottom-up and materialise every inner node as its own chunk, one
``rollup_chunks`` call per lattice hop.  It follows the plan literally, so
it is what the fused executor (leaves straight to the target level) is
compared against, cell for cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aggregation import rollup_chunks
from repro.cache.store import ChunkCache
from repro.chunks.chunk import Chunk, ChunkOrigin
from repro.core.plans import PlanNode
from repro.schema.cube import CubeSchema, Level
from repro.util.errors import ReproError

Key = tuple[Level, int]


@dataclass
class ReferenceExecution:
    chunk: Chunk
    leaf_keys: set[Key] = field(default_factory=set)
    tuples_aggregated: int = 0
    """Rows read over all hops: every inner node reads each of its inputs
    once, intermediates included."""


def execute_hop_by_hop(
    schema: CubeSchema, cache: ChunkCache, plan: PlanNode
) -> ReferenceExecution:
    """Materialise ``plan`` bottom-up, one roll-up per inner node."""
    leaf_keys: set[Key] = set()
    tuples = 0

    def materialise(node: PlanNode) -> Chunk:
        nonlocal tuples
        if node.is_leaf:
            chunk = cache.peek(node.level, node.number)
            if chunk is None:
                raise ReproError(
                    f"plan references chunk {node.number} of level "
                    f"{node.level} which is no longer cached"
                )
            leaf_keys.add((node.level, node.number))
            return chunk
        inputs = [materialise(child) for child in node.inputs]
        tuples += sum(c.size_tuples for c in inputs)
        return rollup_chunks(
            schema,
            node.level,
            node.number,
            inputs,
            origin=ChunkOrigin.CACHE_COMPUTED,
        )

    chunk = materialise(plan)
    return ReferenceExecution(
        chunk=chunk, leaf_keys=leaf_keys, tuples_aggregated=tuples
    )
