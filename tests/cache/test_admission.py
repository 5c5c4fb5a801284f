"""WATCHMAN-style profit admission tests."""

from __future__ import annotations

import numpy as np

from repro.cache.replacement.benefit_clock import BenefitClockPolicy
from repro.cache.store import ChunkCache
from repro.chunks import Chunk, ChunkOrigin
from tests.helpers import admit

BPT = 10


def make_chunk(number, cells=4):
    return Chunk(
        level=(1,),
        number=number,
        coords=(np.arange(cells, dtype=np.int64),),
        values=np.ones(cells),
        counts=np.ones(cells, dtype=np.int64),
        origin=ChunkOrigin.BACKEND,
    )


def full_cache(profit_admission: bool) -> ChunkCache:
    cache = ChunkCache(80, BenefitClockPolicy(profit_admission), BPT)
    admit(cache, make_chunk(0), benefit=100.0)
    admit(cache, make_chunk(1), benefit=100.0)
    # Drain the clocks so eviction candidates exist immediately.
    for entry in cache.entries():
        entry.clock = 0.0
    return cache


def test_low_profit_chunk_rejected():
    cache = full_cache(profit_admission=True)
    outcome = admit(cache, make_chunk(2), benefit=1.0)
    assert not outcome.inserted
    assert cache.contains((1,), 0) and cache.contains((1,), 1)
    assert cache.stats.rejects == 1


def test_high_profit_chunk_admitted():
    cache = full_cache(profit_admission=True)
    outcome = admit(cache, make_chunk(2), benefit=500.0)
    assert outcome.inserted
    assert len(outcome.evicted) == 1


def test_equal_profit_admitted():
    cache = full_cache(profit_admission=True)
    outcome = admit(cache, make_chunk(2), benefit=100.0)
    assert outcome.inserted


def test_default_policy_admits_everything():
    cache = full_cache(profit_admission=False)
    outcome = admit(cache, make_chunk(2), benefit=0.0)
    assert outcome.inserted


def test_admission_only_consulted_under_pressure():
    cache = ChunkCache(1000, BenefitClockPolicy(True), BPT)
    admit(cache, make_chunk(0), benefit=100.0)
    # Plenty of space: no victims, so even a zero-benefit chunk enters.
    outcome = admit(cache, make_chunk(1), benefit=0.0)
    assert outcome.inserted


def test_rejection_leaves_victims_resident():
    cache = full_cache(profit_admission=True)
    before = set(cache.resident_keys())
    admit(cache, make_chunk(2), benefit=1.0)
    assert set(cache.resident_keys()) == before
    assert cache.used_bytes == 80
