"""Replacement policy tests: benefit CLOCK and the two-level policy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.replacement import POLICY_NAMES, make_policy
from repro.cache.replacement.base import clock_weight
from repro.cache.store import ChunkCache
from repro.chunks import Chunk, ChunkOrigin
from repro.util.errors import ReproError
from tests.helpers import admit

BPT = 10


def make_chunk(number, cells=4, origin=ChunkOrigin.BACKEND, level=(1,)):
    return Chunk(
        level=level,
        number=number,
        coords=(np.arange(cells, dtype=np.int64),),
        values=np.ones(cells),
        counts=np.ones(cells, dtype=np.int64),
        origin=origin,
    )


def test_registry():
    assert set(POLICY_NAMES) == {"benefit", "two_level", "lru"}
    with pytest.raises(ReproError):
        make_policy("nope")


class TestLRUPolicy:
    def test_evicts_oldest_first(self):
        cache = ChunkCache(80, make_policy("lru"), BPT)
        admit(cache, make_chunk(0), benefit=999.0)  # benefit is ignored
        admit(cache, make_chunk(1), benefit=0.0)
        admit(cache, make_chunk(2), benefit=0.0)
        assert not cache.contains((1,), 0)
        assert cache.contains((1,), 1) and cache.contains((1,), 2)

    def test_hit_refreshes_recency(self):
        cache = ChunkCache(80, make_policy("lru"), BPT)
        admit(cache, make_chunk(0), benefit=0.0)
        admit(cache, make_chunk(1), benefit=0.0)
        cache.get((1,), 0)  # chunk 0 is now the most recent
        admit(cache, make_chunk(2), benefit=0.0)
        assert cache.contains((1,), 0)
        assert not cache.contains((1,), 1)

    def test_pinned_skipped(self):
        cache = ChunkCache(80, make_policy("lru"), BPT)
        admit(cache, make_chunk(0), benefit=0.0)
        cache.entry((1,), 0).pinned = True
        admit(cache, make_chunk(1), benefit=0.0)
        admit(cache, make_chunk(2), benefit=0.0)
        assert cache.contains((1,), 0)
        assert not cache.contains((1,), 1)

    def test_benefit_blindness_vs_benefit_policy(self):
        """The control: LRU throws away an expensive chunk that benefit-
        CLOCK keeps."""
        lru = ChunkCache(80, make_policy("lru"), BPT)
        clock = ChunkCache(80, make_policy("benefit"), BPT)
        for cache in (lru, clock):
            admit(cache, make_chunk(0), benefit=10_000.0)
            admit(cache, make_chunk(1), benefit=0.0)
            admit(cache, make_chunk(2), benefit=0.0)
        assert not lru.contains((1,), 0)
        assert clock.contains((1,), 0)


class TestBenefitPolicy:
    def test_higher_benefit_survives(self):
        cache = ChunkCache(80, make_policy("benefit"), BPT)
        admit(cache, make_chunk(0), benefit=0.0)
        admit(cache, make_chunk(1), benefit=1000.0)
        admit(cache, make_chunk(2), benefit=0.0)  # forces one eviction
        assert cache.contains((1,), 1)
        assert not cache.contains((1,), 0)

    def test_hit_restores_clock(self):
        cache = ChunkCache(1000, make_policy("benefit"), BPT)
        admit(cache, make_chunk(0), benefit=100.0)
        entry = cache.entry((1,), 0)
        entry.clock = 0.0
        cache.get((1,), 0)
        assert entry.clock == pytest.approx(clock_weight(100.0))

    def test_no_class_preference(self):
        cache = ChunkCache(80, make_policy("benefit"), BPT)
        admit(cache, make_chunk(0, origin=ChunkOrigin.BACKEND), benefit=0.0)
        admit(cache, 
            make_chunk(1, origin=ChunkOrigin.CACHE_COMPUTED), benefit=0.0
        )
        # A computed chunk can displace a backend chunk under plain benefit.
        outcome = admit(cache, 
            make_chunk(2, origin=ChunkOrigin.CACHE_COMPUTED), benefit=0.0
        )
        assert outcome.inserted
        assert not cache.contains((1,), 0)


class TestTwoLevelPolicy:
    def test_computed_cannot_displace_backend(self):
        cache = ChunkCache(80, make_policy("two_level"), BPT)
        admit(cache, make_chunk(0, origin=ChunkOrigin.BACKEND), benefit=0.0)
        admit(cache, make_chunk(1, origin=ChunkOrigin.PRELOAD), benefit=0.0)
        outcome = admit(cache, 
            make_chunk(2, origin=ChunkOrigin.CACHE_COMPUTED), benefit=999.0
        )
        assert not outcome.inserted
        assert cache.contains((1,), 0) and cache.contains((1,), 1)

    def test_backend_displaces_computed_first(self):
        cache = ChunkCache(80, make_policy("two_level"), BPT)
        admit(cache, 
            make_chunk(0, origin=ChunkOrigin.CACHE_COMPUTED), benefit=999.0
        )
        admit(cache, make_chunk(1, origin=ChunkOrigin.BACKEND), benefit=0.0)
        outcome = admit(cache, 
            make_chunk(2, origin=ChunkOrigin.BACKEND), benefit=0.0
        )
        assert outcome.inserted
        # The computed chunk goes despite its huge benefit; the backend
        # chunk stays (class priority dominates benefit).
        assert not cache.contains((1,), 0)
        assert cache.contains((1,), 1)

    def test_backend_falls_back_to_backend_victims(self):
        cache = ChunkCache(80, make_policy("two_level"), BPT)
        admit(cache, make_chunk(0, origin=ChunkOrigin.BACKEND), benefit=0.0)
        admit(cache, make_chunk(1, origin=ChunkOrigin.BACKEND), benefit=5.0)
        outcome = admit(cache, 
            make_chunk(2, origin=ChunkOrigin.BACKEND), benefit=0.0
        )
        assert outcome.inserted
        assert not cache.contains((1,), 0)

    def test_computed_displaces_computed(self):
        cache = ChunkCache(80, make_policy("two_level"), BPT)
        admit(cache, 
            make_chunk(0, origin=ChunkOrigin.CACHE_COMPUTED), benefit=0.0
        )
        admit(cache, 
            make_chunk(1, origin=ChunkOrigin.CACHE_COMPUTED), benefit=50.0
        )
        outcome = admit(cache, 
            make_chunk(2, origin=ChunkOrigin.CACHE_COMPUTED), benefit=1.0
        )
        assert outcome.inserted
        assert not cache.contains((1,), 0)
        assert cache.contains((1,), 1)

    def test_group_reinforcement_bumps_clocks(self):
        policy = make_policy("two_level")
        cache = ChunkCache(1000, policy, BPT)
        admit(cache, make_chunk(0), benefit=1.0)
        admit(cache, make_chunk(1), benefit=1.0)
        entries = [cache.entry((1,), n) for n in range(2)]
        before = [e.clock for e in entries]
        policy.on_aggregate_use(entries, benefit_ms=100.0)
        for b, e in zip(before, entries):
            assert e.clock == pytest.approx(b + clock_weight(100.0))

    def test_reinforcement_can_be_disabled(self):
        from repro.cache.replacement.two_level import TwoLevelPolicy

        policy = TwoLevelPolicy(reinforce_groups=False)
        cache = ChunkCache(1000, policy, BPT)
        admit(cache, make_chunk(0), benefit=1.0)
        entry = cache.entry((1,), 0)
        before = entry.clock
        policy.on_aggregate_use([entry], benefit_ms=100.0)
        assert entry.clock == before

    def test_reinforced_group_survives_pressure(self):
        policy = make_policy("two_level")
        cache = ChunkCache(120, policy, BPT)
        for n in range(3):
            admit(cache, make_chunk(n), benefit=0.0)
        policy.on_aggregate_use([cache.entry((1,), 1)], benefit_ms=1000.0)
        # Two more backend inserts force two evictions: the reinforced
        # chunk must be the survivor.
        admit(cache, make_chunk(3), benefit=0.0)
        admit(cache, make_chunk(4), benefit=0.0)
        assert cache.contains((1,), 1)
