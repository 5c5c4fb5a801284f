"""Property tests on the chunk store's accounting invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.replacement import make_policy
from repro.cache.store import ChunkCache
from repro.chunks import Chunk, ChunkOrigin
from tests.helpers import admit

BPT = 10


def make_chunk(number: int, cells: int, origin: ChunkOrigin):
    return Chunk(
        level=(1,),
        number=number,
        coords=(np.arange(cells, dtype=np.int64),),
        values=np.ones(cells),
        counts=np.ones(cells, dtype=np.int64),
        origin=origin,
    )


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(30, 400),
    policy_name=st.sampled_from(["benefit", "two_level"]),
    operations=st.lists(
        st.tuples(
            st.integers(0, 30),        # chunk number
            st.integers(0, 8),         # cells
            st.booleans(),             # backend-class?
            st.floats(0, 1000),        # benefit
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_accounting_invariants_under_churn(capacity, policy_name, operations):
    """After any insert sequence:

    * used_bytes equals the sum of resident chunk sizes;
    * used_bytes never exceeds the capacity;
    * membership agrees with the entry map;
    * every eviction was reported exactly once.
    """
    cache = ChunkCache(capacity, make_policy(policy_name), BPT)
    resident: dict = {}
    for number, cells, is_backend, benefit in operations:
        origin = (
            ChunkOrigin.BACKEND if is_backend else ChunkOrigin.CACHE_COMPUTED
        )
        chunk = make_chunk(number, cells, origin)
        outcome = admit(cache, chunk, benefit=benefit)
        for evicted in outcome.evicted:
            assert evicted.key in resident
            del resident[evicted.key]
        if outcome.inserted:
            resident[chunk.key] = chunk

        assert cache.used_bytes <= cache.capacity_bytes
        expected_bytes = sum(
            c.size_bytes(BPT) for c in resident.values()
        )
        assert cache.used_bytes == expected_bytes
        assert set(cache.resident_keys()) == set(resident)


@settings(max_examples=30, deadline=None)
@given(
    operations=st.lists(
        st.tuples(st.integers(0, 10), st.integers(1, 5)),
        min_size=1,
        max_size=25,
    )
)
def test_two_level_never_evicts_backend_for_computed(operations):
    """Class invariant: no insert of a cache-computed chunk ever removes a
    backend-class chunk, whatever the sequence."""
    cache = ChunkCache(120, make_policy("two_level"), BPT)
    for number, cells in operations:
        chunk = make_chunk(
            number + 100, cells, ChunkOrigin.CACHE_COMPUTED
        )
        outcome = admit(cache, chunk, benefit=1.0)
        for evicted in outcome.evicted:
            assert not evicted.origin.is_backend_class
        # Interleave a backend insert to create pressure (backend chunks
        # may displace each other — only the computed->backend direction
        # is forbidden).
        admit(cache, make_chunk(number, cells, ChunkOrigin.BACKEND), 1.0)
