"""Size estimator tests."""

from __future__ import annotations

import pytest

from repro.core.sizes import SizeEstimator
from repro.schema import apb_tiny_schema


@pytest.fixture(scope="module")
def schema():
    return apb_tiny_schema()


def test_fill_bounds(schema):
    sizes = SizeEstimator(schema, total_base_tuples=10)
    for level in schema.all_levels():
        fill = sizes.level_fill(level)
        assert 0.0 < fill <= 1.0


def test_apex_always_full(schema):
    sizes = SizeEstimator(schema, total_base_tuples=1)
    assert sizes.level_fill(schema.apex_level) == 1.0
    assert sizes.level_tuples(schema.apex_level) == 1.0


def test_fill_monotone_in_tuples(schema):
    small = SizeEstimator(schema, total_base_tuples=4)
    large = SizeEstimator(schema, total_base_tuples=64)
    level = schema.base_level
    assert small.level_fill(level) < large.level_fill(level)


def test_fill_monotone_in_aggregation(schema):
    """More aggregated levels are denser: fewer cells, same facts."""
    sizes = SizeEstimator(schema, total_base_tuples=8)
    assert sizes.level_fill((0, 0, 0)) >= sizes.level_fill((1, 1, 1))
    assert sizes.level_fill((1, 1, 1)) >= sizes.level_fill((2, 1, 1))


def test_chunk_tuples_sum_to_level_tuples(schema):
    sizes = SizeEstimator(schema, total_base_tuples=12)
    for level in schema.all_levels():
        total = sum(
            sizes.chunk_tuples(level, n)
            for n in range(schema.num_chunks(level))
        )
        assert total == pytest.approx(sizes.level_tuples(level))


def test_bytes_scale_with_tuple_size(schema):
    sizes = SizeEstimator(schema, total_base_tuples=12)
    level = schema.base_level
    assert sizes.level_bytes(level) == pytest.approx(
        sizes.level_tuples(level) * schema.bytes_per_tuple
    )
    assert sizes.chunk_bytes(level, 0) == pytest.approx(
        sizes.chunk_tuples(level, 0) * schema.bytes_per_tuple
    )


def test_estimate_tracks_actual_sizes():
    """On uniform data the estimator should be within ~25% of reality at
    the base level of a reasonably sized cube."""
    from repro import BackendDatabase, generate_fact_table
    from repro.schema import apb_small_schema

    schema = apb_small_schema()
    facts = generate_fact_table(schema, num_tuples=50_000, seed=3)
    backend = BackendDatabase(schema, facts)
    sizes = SizeEstimator(schema, facts.num_tuples)
    actual = facts.num_tuples
    estimated = sizes.level_tuples(schema.base_level)
    assert abs(estimated - actual) / actual < 0.25
    # And per-chunk at the base level.
    for number in backend.base_chunk_numbers()[:10]:
        est = sizes.chunk_tuples(schema.base_level, number)
        act = backend.base_chunk(number).size_tuples
        assert abs(est - act) / max(act, 1) < 0.5


def test_exact_fills_equal_the_unique_count(schema):
    """``SizeEstimator.exact`` counts distinct cells per level by sorting;
    every fill equals the ``np.unique`` count it replaced, bit for bit."""
    import numpy as np

    from repro import generate_fact_table

    facts = generate_fact_table(schema, num_tuples=300, seed=42)
    sizes = SizeEstimator.exact(schema, facts)
    for level in schema.all_levels():
        coords = [
            dim.map_ordinals(dim.height, lvl, facts.coords[d])
            for d, (dim, lvl) in enumerate(zip(schema.dimensions, level))
        ]
        flat = np.ravel_multi_index(coords, schema.chunks.cell_shape(level))
        expected = len(np.unique(flat)) / max(schema.num_cells(level), 1)
        assert sizes.level_fill(level) == expected, level


def test_exact_fills_of_an_empty_table_are_zero(schema):
    import numpy as np

    from repro.backend.generator import FactTable

    empty = FactTable(
        schema=schema,
        coords=tuple(np.zeros(0, dtype=np.int64) for _ in schema.dimensions),
        values=np.zeros(0),
        counts=np.zeros(0, dtype=np.int64),
    )
    sizes = SizeEstimator.exact(schema, empty)
    assert all(sizes.level_fill(level) == 0.0 for level in schema.all_levels())
