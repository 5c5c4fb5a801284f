"""The middle-tier chunk cache: store, replacement policies, pre-loading."""

from repro.cache.preload import choose_preload_level
from repro.cache.replacement import (
    POLICY_NAMES,
    BenefitClockPolicy,
    ReplacementPolicy,
    TwoLevelPolicy,
    make_policy,
)
from repro.cache.store import CacheEntry, ChunkCache, InsertOutcome

__all__ = [
    "BenefitClockPolicy",
    "CacheEntry",
    "ChunkCache",
    "InsertOutcome",
    "POLICY_NAMES",
    "ReplacementPolicy",
    "TwoLevelPolicy",
    "choose_preload_level",
    "make_policy",
]
