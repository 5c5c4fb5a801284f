"""Warehouse refresh tests: append facts, patch or evict, stay correct.

The cardinal sin would be serving a stale aggregate after new facts
arrive; these tests hammer exactly that path.
"""

from __future__ import annotations

import pytest

from repro import (
    AggregateCache,
    BackendDatabase,
    Query,
    generate_fact_table,
)
from repro.schema import apb_tiny_schema
from repro.util.errors import ReproError
from tests.helpers import direct_aggregate, oracle_computable


def merged_truth(schema, parts, level):
    cells: dict = {}
    for facts in parts:
        for cell, value in direct_aggregate(facts, level).items():
            cells[cell] = cells.get(cell, 0.0) + value
    return cells


@pytest.fixture
def world():
    schema = apb_tiny_schema()
    initial = generate_fact_table(schema, num_tuples=200, seed=1)
    delta = generate_fact_table(schema, num_tuples=150, seed=2)
    backend = BackendDatabase(schema, initial)
    return schema, initial, delta, backend


def test_append_merges_duplicate_cells(world):
    schema, initial, delta, backend = world
    before = backend.num_tuples
    affected = backend.append(delta)
    assert affected  # the tiny cube overlaps almost surely
    # Distinct cells after merge: union of both tables' cells.
    union = merged_truth(schema, [initial, delta], schema.base_level)
    assert backend.num_tuples == len(union)
    assert backend.num_tuples >= before
    apex = backend.compute_chunk(schema.apex_level, 0)
    assert apex.total() == pytest.approx(initial.total() + delta.total())


def test_append_schema_mismatch_rejected(world):
    schema, initial, delta, backend = world
    from repro.schema import CubeSchema, Dimension

    other_schema = CubeSchema(
        [Dimension.flat("A", 4, 2), Dimension.flat("B", 2, 1)],
        measure="Units",
    )
    other = generate_fact_table(other_schema, num_tuples=10, seed=3)
    with pytest.raises(ReproError, match="different schema"):
        backend.append(other)


def test_append_accepts_equal_schema_different_instance(world):
    """Regression: schemas were compared by object identity, so a batch
    generated against a separately constructed (but identical) schema —
    the normal shape after a fact-file round trip — was rejected.
    Equality is now judged by fingerprint."""
    schema, initial, delta, backend = world
    same_cube = generate_fact_table(apb_tiny_schema(), num_tuples=10, seed=3)
    assert same_cube.schema is not schema
    affected = backend.append(same_cube)
    assert affected


def test_append_accepts_fact_file_round_trip(world, tmp_path):
    """A batch saved to disk and loaded against a fresh schema instance
    appends cleanly (the identity-comparison bug's real-world shape)."""
    from repro.backend.storage import load_fact_table, save_fact_table

    schema, initial, delta, backend = world
    path = tmp_path / "delta.npz"
    save_fact_table(delta, path)
    reloaded = load_fact_table(apb_tiny_schema(), path)
    assert reloaded.schema is not schema
    before = backend.num_tuples
    backend.append(reloaded)
    union = merged_truth(schema, [initial, delta], schema.base_level)
    assert backend.num_tuples == len(union) >= before


def test_stale_aggregates_never_served(world):
    schema, initial, delta, backend = world
    manager = AggregateCache(
        schema, backend, capacity_bytes=1 << 20, strategy="vcmc"
    )
    query = Query.full_level(schema, (1, 1, 0))
    stale = manager.query(query)
    assert stale.total_value() == pytest.approx(initial.total())

    outcome = manager.refresh_from_backend(delta)
    assert outcome.patched > 0
    fresh = manager.query(query)
    assert fresh.total_value() == pytest.approx(
        initial.total() + delta.total()
    )
    assert manager.replans == 0


def test_stale_aggregates_never_served_evict_mode(world):
    """Forced eviction of the affected residents after a refresh
    (``invalidate_base_chunks``): the next query refetches fresh data."""
    schema, initial, delta, backend = world
    manager = AggregateCache(
        schema, backend, capacity_bytes=1 << 20, strategy="vcmc"
    )
    query = Query.full_level(schema, (1, 1, 0))
    manager.query(query)
    outcome = manager.refresh_from_backend(delta)
    assert manager.invalidate_base_chunks(list(outcome.affected)) > 0
    fresh = manager.query(query)
    assert fresh.total_value() == pytest.approx(
        initial.total() + delta.total()
    )
    assert manager.replans == 0
    # What eviction costs: the replay goes back to the backend, where
    # the identically warmed and patched twin answers from the cache.
    twin = AggregateCache(
        schema,
        BackendDatabase(schema, initial),
        capacity_bytes=1 << 20,
        strategy="vcmc",
    )
    twin.query(query)
    twin.refresh_from_backend(delta)
    assert twin.query(query).from_backend == 0 < fresh.from_backend


def test_unknown_refresh_mode_rejected(world):
    schema, initial, delta, backend = world
    manager = AggregateCache(
        schema, backend, capacity_bytes=1 << 20, strategy="vcmc"
    )
    generation = backend.refresh_generation
    for mode in ("nonsense", "evict", "refetch"):
        with pytest.raises(ReproError, match="unknown refresh mode"):
            manager.refresh_from_backend(delta, mode=mode)
    # Rejected before the append: the warehouse is untouched.
    assert backend.refresh_generation == generation


def test_unaffected_chunks_survive_refresh():
    schema = apb_tiny_schema()
    initial = generate_fact_table(schema, num_tuples=200, seed=1)
    backend = BackendDatabase(schema, initial)
    manager = AggregateCache(
        schema, backend, capacity_bytes=1 << 20, strategy="vcm"
    )
    manager.query(Query.full_level(schema, schema.base_level))
    # A delta touching exactly one base cell.
    delta = generate_fact_table(schema, num_tuples=1, seed=7)
    outcome = manager.refresh_from_backend(delta)
    affected = set(outcome.affected)
    assert len(affected) == 1
    resident_before = set(manager.cache.resident_keys())

    def overlaps(key) -> bool:
        level, number = key
        covering = schema.get_parent_chunk_numbers(
            level, number, schema.base_level
        )
        return any(int(n) in affected for n in covering)

    evicted = manager.invalidate_base_chunks(list(affected))
    survivors = set(manager.cache.resident_keys())
    victims = resident_before - survivors
    assert survivors <= resident_before
    assert evicted == len(victims) > 0
    # Exactly the overlapping residents go; every other one stays.
    assert all(overlaps(key) for key in victims)
    assert not any(overlaps(key) for key in survivors)
    # Base chunks not covering the updated cell are still cached.
    untouched_base = {
        (schema.base_level, n)
        for n in range(schema.num_chunks(schema.base_level))
        if n not in affected
    }
    assert untouched_base <= survivors


def test_delta_refresh_preserves_all_residents():
    """The tentpole: in delta mode the whole resident set survives the
    append — overlapping chunks are patched in place, not evicted."""
    schema = apb_tiny_schema()
    initial = generate_fact_table(schema, num_tuples=200, seed=1)
    backend = BackendDatabase(schema, initial)
    manager = AggregateCache(
        schema, backend, capacity_bytes=1 << 20, strategy="vcmc"
    )
    manager.query(Query.full_level(schema, schema.base_level))
    manager.query(Query.full_level(schema, (1, 1, 0)))
    delta = generate_fact_table(schema, num_tuples=40, seed=7)
    resident_before = set(manager.cache.resident_keys())
    outcome = manager.refresh_from_backend(delta)
    assert set(manager.cache.resident_keys()) == resident_before
    assert outcome.patched > 0
    assert outcome.evicted == 0
    # And the patched chunks answer exactly like a rebuilt backend.
    for level in [schema.base_level, (1, 1, 0)]:
        result = manager.query(Query.full_level(schema, level))
        assert result.from_backend == 0, "a patched replay needs no backend"
        truth = merged_truth(schema, [initial, delta], level)
        got: dict = {}
        for chunk in result.chunks:
            got.update(chunk.cell_dict())
        assert got == pytest.approx(truth), level
    assert manager.replans == 0


def test_estimator_recalibrated_after_refresh(world):
    schema, initial, delta, backend = world
    manager = AggregateCache(
        schema, backend, capacity_bytes=1 << 20, strategy="vcmc"
    )
    manager.refresh_from_backend(delta)
    assert manager.sizes.total_base_tuples == backend.num_tuples
    union = merged_truth(schema, [initial, delta], schema.base_level)
    assert manager.sizes.total_base_tuples == len(union)


def test_counts_oracle_consistent_after_refresh(world):
    schema, initial, delta, backend = world
    manager = AggregateCache(
        schema, backend, capacity_bytes=1 << 20, strategy="vcm"
    )
    manager.query(Query.full_level(schema, (0, 0, 0)))
    manager.query(Query.full_level(schema, (2, 1, 0)))
    manager.refresh_from_backend(delta)
    cached = set(manager.cache.resident_keys())
    for level in schema.all_levels():
        for number in range(schema.num_chunks(level)):
            assert manager.strategy.counts.is_computable(
                level, number
            ) == oracle_computable(schema, cached, level, number)


def test_every_level_correct_after_refresh(world):
    schema, initial, delta, backend = world
    manager = AggregateCache(
        schema, backend, capacity_bytes=1 << 20, strategy="vcmc"
    )
    for level in [(0, 0, 0), (1, 1, 1), (2, 0, 1)]:
        manager.query(Query.full_level(schema, level))
    manager.refresh_from_backend(delta)
    for level in [(0, 0, 0), (1, 1, 1), (2, 0, 1), (2, 1, 1)]:
        result = manager.query(Query.full_level(schema, level))
        truth = merged_truth(schema, [initial, delta], level)
        got: dict = {}
        for chunk in result.chunks:
            got.update(chunk.cell_dict())
        assert got == pytest.approx(truth), level
    assert manager.replans == 0


def test_repeated_refreshes(world):
    schema, initial, delta, backend = world
    manager = AggregateCache(
        schema, backend, capacity_bytes=1 << 20, strategy="vcmc"
    )
    expected = initial.total()
    for seed in (10, 11, 12):
        more = generate_fact_table(schema, num_tuples=60, seed=seed)
        manager.refresh_from_backend(more)
        expected += more.total()
        result = manager.query(Query.full_level(schema, schema.apex_level))
        assert result.total_value() == pytest.approx(expected)
    assert manager.replans == 0


def test_extras_merge_on_append():
    from repro.schema import CubeSchema, Dimension

    schema = CubeSchema(
        [Dimension.flat("A", 4, 2), Dimension.flat("B", 2, 1)],
        measure=["Units", "Dollars"],
    )
    first = generate_fact_table(schema, num_tuples=50, seed=1)
    second = generate_fact_table(schema, num_tuples=50, seed=2)
    backend = BackendDatabase(schema, first)
    backend.append(second)
    apex = backend.compute_chunk((0, 0), 0)
    assert apex.measure_values(1).sum() == pytest.approx(
        first.extras[0].sum() + second.extras[0].sum()
    )
