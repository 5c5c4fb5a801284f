"""Quantitative complexity checks tying the code to the paper's analysis.

The paper argues about *visit counts*, not just wall time: ESM's
empty-cache cost is the lattice walk census, VCM rejects in exactly one
visit and accepts in exactly plan-size visits, and ESMC's all-paths
search dominates everything.  These tests pin those counts exactly.
"""

from __future__ import annotations

import pytest

from repro.cache.replacement import make_policy
from repro.cache.store import ChunkCache
from repro.core.sizes import SizeEstimator
from repro.core.strategies import make_strategy
from repro.schema import apb_tiny_schema
from repro.schema.lattice import count_walks_to_base, paths_to_base
from tests.helpers import admit


@pytest.fixture
def schema():
    return apb_tiny_schema()


@pytest.fixture
def sizes(schema):
    return SizeEstimator(schema, total_base_tuples=14)


@pytest.fixture
def empty_cache_(schema):
    return ChunkCache(1 << 20, make_policy("benefit"), schema.bytes_per_tuple)


def load_base(schema, cache, strategies):
    from repro import BackendDatabase, generate_fact_table

    facts = generate_fact_table(schema, num_tuples=100, seed=1)
    backend = BackendDatabase(schema, facts)
    for n in range(schema.num_chunks(schema.base_level)):
        chunk = backend.compute_chunk(schema.base_level, n)
        admit(cache, chunk, benefit=1.0)
        for strategy in strategies:
            strategy.on_insert_many([(schema.base_level, n)])


def test_esm_empty_cache_visits_equal_walk_census(schema, sizes, empty_cache_):
    """On an empty cache ESM's recursion count is exactly the number of
    downward lattice walks from the query level (the break-on-first-
    failure argument in the module docstring of esm.py)."""
    esm = make_strategy("esm", schema, empty_cache_, sizes)
    for level in schema.all_levels():
        esm.find(level, 0)
        assert esm.last_find_visits == count_walks_to_base(
            level, schema.heights
        ), level


def test_esmc_empty_cache_visits_equal_esm(schema, sizes, empty_cache_):
    """With nothing cached, ESMC's search tree equals ESM's (both fail on
    the first chunk of every parent)."""
    esm = make_strategy("esm", schema, empty_cache_, sizes)
    esmc = make_strategy("esmc", schema, empty_cache_, sizes)
    for level in schema.all_levels():
        esm.find(level, 0)
        esmc.find(level, 0)
        assert esm.last_find_visits == esmc.last_find_visits


def test_vcm_reject_is_exactly_one_visit(schema, sizes, empty_cache_):
    vcm = make_strategy("vcm", schema, empty_cache_, sizes)
    vcmc = make_strategy("vcmc", schema, empty_cache_, sizes)
    for level in schema.all_levels():
        vcm.find(level, 0)
        vcmc.find(level, 0)
        assert vcm.last_find_visits == 1
        assert vcmc.last_find_visits == 1


def test_vcm_accept_visits_equal_plan_size(schema, sizes, empty_cache_):
    vcm = make_strategy("vcm", schema, empty_cache_, sizes)
    load_base(schema, empty_cache_, [vcm])
    for level in schema.all_levels():
        for number in range(schema.num_chunks(level)):
            plan = vcm.find(level, number)
            assert plan is not None
            assert vcm.last_find_visits == plan.num_nodes


def test_vcmc_accept_visits_equal_plan_size(schema, sizes, empty_cache_):
    vcmc = make_strategy("vcmc", schema, empty_cache_, sizes)
    load_base(schema, empty_cache_, [vcmc])
    for level in schema.all_levels():
        plan = vcmc.find(level, 0)
        assert vcmc.last_find_visits == plan.num_nodes


def test_esm_warm_visits_bounded_by_first_path(schema, sizes, empty_cache_):
    """With the base cached ESM succeeds on its first path: visits are
    bounded by the chunks along one refinement chain (no factorial)."""
    esm = make_strategy("esm", schema, empty_cache_, sizes)
    load_base(schema, empty_cache_, [esm])
    apex = schema.apex_level
    esm.find(apex, 0)
    # One chain visits far fewer nodes than the walk census.
    assert esm.last_find_visits < count_walks_to_base(apex, schema.heights)
    # ...and never more than the total chunk count.
    total_chunks = schema.total_chunks()
    assert esm.last_find_visits <= total_chunks


def test_esmc_warm_visits_grow_with_path_count(schema, sizes, empty_cache_):
    """ESMC explores *every* path even when warm: its visit count at the
    apex (12 paths in the tiny lattice) dwarfs a single-path lookup."""
    esmc = make_strategy("esmc", schema, empty_cache_, sizes)
    vcmc = make_strategy("vcmc", schema, empty_cache_, sizes)
    load_base(schema, empty_cache_, [esmc, vcmc])
    apex = schema.apex_level
    assert paths_to_base(apex, schema.heights) == 12
    esmc.find(apex, 0)
    esmc_visits = esmc.last_find_visits
    vcmc.find(apex, 0)
    assert esmc_visits > 5 * vcmc.last_find_visits


def test_lifetime_visit_counter_accumulates(schema, sizes, empty_cache_):
    vcm = make_strategy("vcm", schema, empty_cache_, sizes)
    vcm.find(schema.apex_level, 0)
    vcm.find(schema.apex_level, 0)
    assert vcm.total_visits == 2
