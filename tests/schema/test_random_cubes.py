"""Property tests on randomly generated cube schemas.

The fixed APB-shaped fixtures exercise one geometry; these strategies
build arbitrary (small) uniform hierarchies and re-check the structural
invariants that everything else rests on.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counts import CountStore
from repro.core.sizes import SizeEstimator
from repro.schema import CubeSchema, Dimension
from repro.util.errors import ChunkAlignmentError
from tests.helpers import oracle_computable


@st.composite
def random_dimension(draw, name: str):
    """A random uniform dimension: heights 1-3, fan-outs 1-3, chunked."""
    height = draw(st.integers(1, 3))
    cards = [1]
    for _ in range(height):
        cards.append(cards[-1] * draw(st.integers(1, 3)))
    chunks = []
    for card in cards:
        divisors = [d for d in range(1, card + 1) if card % d == 0]
        chunks.append(draw(st.sampled_from(divisors)))
    try:
        return Dimension.uniform(name, cards, chunks)
    except ChunkAlignmentError:
        # Independently drawn chunk counts need not align; re-draw with
        # the safe choice (chunks == cards at every level always aligns).
        return Dimension.uniform(name, cards, cards)


@st.composite
def random_schema(draw):
    ndims = draw(st.integers(1, 3))
    dims = [draw(random_dimension(f"D{i}")) for i in range(ndims)]
    return CubeSchema(dims, bytes_per_tuple=12)


@settings(max_examples=30, deadline=None)
@given(schema=random_schema())
def test_parent_chunks_partition_levels(schema):
    """GetParentChunkNumbers partitions every parent level, and
    GetChildChunkNumber inverts it — on arbitrary geometry."""
    for level in schema.all_levels():
        for parent in schema.parents_of(level):
            seen: list[int] = []
            for number in range(schema.num_chunks(level)):
                numbers = schema.get_parent_chunk_numbers(level, number, parent)
                seen.extend(numbers.tolist())
                for pn in numbers.tolist():
                    assert (
                        schema.get_child_chunk_number(parent, pn, level)
                        == number
                    )
            assert sorted(seen) == list(range(schema.num_chunks(parent)))


@settings(max_examples=25, deadline=None)
@given(schema=random_schema(), data=st.data())
def test_counts_property1_on_random_schema(schema, data):
    """Property 1 holds on arbitrary geometry under random inserts."""
    keys = [
        (level, number)
        for level in schema.all_levels()
        for number in range(schema.num_chunks(level))
    ]
    picks = data.draw(
        st.lists(st.integers(0, len(keys) - 1), min_size=1, max_size=10),
        label="picks",
    )
    store = CountStore(schema)
    cached: set = set()
    for pick in picks:
        key = keys[pick]
        if key in cached:
            continue
        store.on_insert_many([key])
        cached.add(key)
    # Spot-check the most aggregated levels (the interesting ones).
    for level in schema.all_levels():
        if sum(level) > 2:
            continue
        for number in range(schema.num_chunks(level)):
            assert store.is_computable(level, number) == oracle_computable(
                schema, cached, level, number
            )


@settings(max_examples=20, deadline=None)
@given(schema=random_schema())
def test_cell_census_on_random_schema(schema):
    """Chunk cell spans tile each level exactly."""
    for level in schema.all_levels():
        total = sum(
            schema.chunks.chunk_cell_count(level, number)
            for number in range(schema.num_chunks(level))
        )
        assert total == schema.num_cells(level)


@settings(max_examples=20, deadline=None)
@given(schema=random_schema(), n=st.integers(1, 50))
def test_size_estimator_bounds_on_random_schema(schema, n):
    sizes = SizeEstimator(schema, total_base_tuples=n)
    for level in schema.all_levels():
        est = sizes.level_tuples(level)
        assert 0 < est <= min(n, schema.num_cells(level)) + 1e-9


@settings(max_examples=10, deadline=None)
@given(schema=random_schema(), seed=st.integers(0, 100))
def test_end_to_end_on_random_schema(schema, seed):
    """Generate data, cache the base, and answer the apex correctly."""
    from repro import AggregateCache, BackendDatabase, Query, generate_fact_table

    facts = generate_fact_table(schema, num_tuples=30, seed=seed)
    backend = BackendDatabase(schema, facts)
    manager = AggregateCache(
        schema, backend, capacity_bytes=1 << 20, strategy="vcmc"
    )
    result = manager.query(Query.full_level(schema, schema.apex_level))
    assert result.total_value() == np.float64(facts.total())
