"""A maintenance wave visits only the component sums that hold work.

Both stores walk their pending work through
:func:`repro.core.counts.most_detailed_first`; these tests count what that
walk hands out.  A one-key wave must visit no more sums than it has
chunks to settle, walk the sums in strictly descending order, and stop at
the apex (component sum 0), which has no children.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import costs as costs_module
from repro.core import counts as counts_module
from repro.core.costs import BEST_NONE, CostStore
from repro.core.counts import CountStore, most_detailed_first
from repro.core.sizes import SizeEstimator
from repro.schema import apb_tiny_schema


@pytest.fixture
def schema():
    return apb_tiny_schema()


@pytest.fixture
def sizes(schema):
    return SizeEstimator(schema, total_base_tuples=100)


def make_store(kind, schema, sizes):
    return CountStore(schema) if kind == "counts" else CostStore(schema, sizes)


def record_walk(monkeypatch, kind):
    """Patch the walk the ``kind`` store uses; returns the list it fills
    with ``(component sum, chunks settled there)`` per visited sum."""
    visited: list[tuple[int, int]] = []

    def walk(pending):
        for level_sum, work in most_detailed_first(pending):
            visited.append((level_sum, len(work)))
            yield level_sum, work

    module = counts_module if kind == "counts" else costs_module
    monkeypatch.setattr(module, "most_detailed_first", walk)
    return visited


def assert_lattice_order(visited):
    sums = [level_sum for level_sum, _ in visited]
    assert sums == sorted(set(sums), reverse=True)
    assert all(level_sum >= 0 for level_sum in sums)
    # No visited sum is empty: a sum is walked only while it holds work.
    assert all(work > 0 for _, work in visited)


def assert_rest_state(store):
    if isinstance(store, CountStore):
        assert not store._flat.any()
    else:
        assert np.isinf(store._flat_cost).all()
        assert (store._flat_best == BEST_NONE).all()
        assert not store._flat_cached.any()


@pytest.mark.parametrize("kind", ["counts", "costs"])
def test_one_key_wave_on_a_computable_lattice_visits_one_sum(
    kind, schema, sizes, monkeypatch
):
    store = make_store(kind, schema, sizes)
    base = schema.base_level
    store.on_insert_many(
        [(base, n) for n in range(schema.num_chunks(base))]
    )
    visited = record_walk(monkeypatch, kind)
    # A parent of the apex, already computable from the base level.
    mid = schema.parents_of(schema.apex_level)[0]
    store.on_insert_many([(mid, 0)])
    if kind == "counts":
        # Its count rises and nothing flips: one chunk at its own sum.
        assert visited == [(sum(mid), 1)]
    else:
        # Its cost falls to 0 at once; only the apex below is re-priced.
        assert visited == [(sum(mid) - 1, 1)]


@pytest.mark.parametrize("kind", ["counts", "costs"])
@pytest.mark.parametrize("where", ["apex", "base"])
def test_one_key_insert_then_evict_returns_to_rest(
    kind, where, schema, sizes, monkeypatch
):
    store = make_store(kind, schema, sizes)
    level = schema.apex_level if where == "apex" else schema.base_level
    visited = record_walk(monkeypatch, kind)
    inserted = store.on_insert_many([(level, 0)])
    assert inserted >= 1
    assert_lattice_order(visited)
    if where == "apex":
        # The apex has no children.  The count store settles the apex's
        # own sum and stops; the cost store writes the apex's cost
        # directly and has nothing to walk.
        assert visited == ([(0, 1)] if kind == "counts" else [])
    visited.clear()
    evicted = store.on_evict_many([(level, 0)])
    assert evicted == inserted
    assert_lattice_order(visited)
    assert_rest_state(store)


@pytest.mark.parametrize("kind", ["counts", "costs"])
def test_random_one_key_waves_visit_at_most_their_dirty_chunks(
    kind, schema, sizes, monkeypatch
):
    store = make_store(kind, schema, sizes)
    keys = [
        (level, number)
        for level in schema.all_levels()
        for number in range(schema.num_chunks(level))
    ]
    rng = np.random.default_rng(5)
    order = [keys[i] for i in rng.permutation(len(keys))]
    visited = record_walk(monkeypatch, kind)
    for key in order:
        visited.clear()
        store.on_insert_many([key])
        assert_lattice_order(visited)
        assert len(visited) <= sum(work for _, work in visited)
    for key in reversed(order):
        visited.clear()
        store.on_evict_many([key])
        assert_lattice_order(visited)
    assert_rest_state(store)
