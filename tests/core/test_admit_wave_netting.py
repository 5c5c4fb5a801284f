"""Regression: ``_admit_wave`` netting under the evict/insert/evict pattern.

Found by the chaos suite (``tests/faults/test_chaos_properties.py``): a
chunk resident *before* an admission wave can be displaced by an early
item, re-admitted by its own wave item, then displaced again by a later
item.  Set-based netting saw the key in both the inserted and evicted
lists and cancelled it out of both cascades, stranding a Count/Cost
entry for a chunk that is no longer resident — Property 1 broken until
the next insert of that chunk.  Netting now follows each key's ordered
event stream, so start/end residency is computed exactly.

Sequentially a wave never contains an already-resident chunk (the lookup
would have been a hit), so the wave is driven directly here; under
concurrent serving a racing query creates the same shape between one
query's planning and its admission.
"""

from __future__ import annotations

import numpy as np

from repro import AggregateCache, BackendDatabase, CostModel, CountStore


def fetch_chunk(backend, level, number, compute_cost):
    chunks, _ = backend.fetch([(level, number)])
    (chunk,) = chunks
    chunk.compute_cost = compute_cost
    return chunk


def assert_counts_match_resident_set(manager):
    rebuilt = CountStore(manager.schema)
    rebuilt.on_insert_many(list(manager.cache.resident_keys()))
    for level in manager.schema.all_levels():
        assert np.array_equal(
            manager.strategy.counts.counts_array(level),
            rebuilt.counts_array(level),
        ), f"count store diverged at level {level}"


def test_evict_insert_evict_key_is_cascaded_out(tiny_schema, tiny_facts):
    backend = BackendDatabase(tiny_schema, tiny_facts, CostModel())
    level = tiny_schema.base_level
    numbers = [
        n
        for n in backend.base_chunk_numbers()
        if backend.base_chunk(n).size_tuples > 0
    ]
    assert len(numbers) >= 3, "test needs three non-empty base chunks"
    x_num, a_num, b_num = numbers[:3]

    sizes = [
        backend.base_chunk(n).size_bytes(tiny_schema.bytes_per_tuple)
        for n in (x_num, a_num, b_num)
    ]
    manager = AggregateCache(
        tiny_schema,
        backend,
        capacity_bytes=max(sizes),  # room for exactly one of the three
        strategy="vcmc",
        policy="benefit",
        preload=False,
    )
    # X is resident before the wave (as if a racing query admitted it).
    manager._admit_wave([fetch_chunk(backend, level, x_num, 1.0)])
    assert manager.cache.contains(level, x_num)
    assert manager.strategy.counts.count(level, x_num) == 1

    # The wave: A displaces X, X re-admits itself displacing A, B
    # displaces X again.  Rising benefits make each admission certain.
    wave = [
        fetch_chunk(backend, level, a_num, 2.0),
        fetch_chunk(backend, level, x_num, 3.0),
        fetch_chunk(backend, level, b_num, 4.0),
    ]
    manager._admit_wave(wave)

    assert sorted(manager.cache.resident_keys()) == [(level, b_num)]
    # The regression: X's count stayed at 1 even though X is gone.
    assert manager.strategy.counts.count(level, x_num) == 0
    assert manager.strategy.counts.count(level, b_num) == 1
    assert_counts_match_resident_set(manager)
    # Cost-store cached flags agree with the resident set too.
    cached = {
        (lvl, int(n))
        for lvl in tiny_schema.all_levels()
        for n in np.flatnonzero(manager.strategy.costs._cached[lvl])
    }
    assert cached == {(level, b_num)}


def test_plain_waves_net_exactly_as_before(tiny_schema, tiny_facts):
    # The common patterns ([insert], [evict], [insert, evict],
    # [evict, insert]) must net identically to the old set logic.
    backend = BackendDatabase(tiny_schema, tiny_facts, CostModel())
    level = tiny_schema.base_level
    numbers = [
        n
        for n in backend.base_chunk_numbers()
        if backend.base_chunk(n).size_tuples > 0
    ]
    x_num, a_num = numbers[:2]
    sizes = [
        backend.base_chunk(n).size_bytes(tiny_schema.bytes_per_tuple)
        for n in (x_num, a_num)
    ]
    manager = AggregateCache(
        tiny_schema,
        backend,
        capacity_bytes=max(sizes),
        strategy="vcmc",
        policy="benefit",
        preload=False,
    )
    # [insert]: plain admission.
    manager._admit_wave([fetch_chunk(backend, level, x_num, 1.0)])
    assert manager.strategy.counts.count(level, x_num) == 1
    # [evict] + [insert]: displacement by a better chunk.
    manager._admit_wave([fetch_chunk(backend, level, a_num, 2.0)])
    assert manager.strategy.counts.count(level, x_num) == 0
    assert manager.strategy.counts.count(level, a_num) == 1
    # [evict, insert] on A (it re-admits itself after being displaced):
    # net zero for A, X ends up gone again.
    manager._admit_wave(
        [
            fetch_chunk(backend, level, x_num, 3.0),
            fetch_chunk(backend, level, a_num, 4.0),
        ]
    )
    assert sorted(manager.cache.resident_keys()) == [(level, a_num)]
    assert_counts_match_resident_set(manager)
