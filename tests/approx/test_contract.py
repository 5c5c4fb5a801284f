"""Query-contract semantics plus the uniform coverage-field regression."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AggregateCache, ConcurrentAggregateCache, Query
from repro.approx.contract import (
    EXACT,
    PARTIAL,
    QueryContract,
    approx,
    decode_contract,
    encode_contract,
    resolve_contract,
)


def test_modes_and_defaults():
    assert QueryContract().mode == "exact"
    assert EXACT.mode == "exact" and not EXACT.degrade_ok
    assert PARTIAL.mode == "partial" and PARTIAL.degrade_ok
    assert not PARTIAL.wants_estimates
    a = approx(max_rel_error=0.1, prefer_sample=True)
    assert a.mode == "approx" and a.degrade_ok and a.wants_estimates
    assert a.max_rel_error == 0.1 and a.prefer_sample


def test_validation():
    from repro.util.errors import ReproError

    with pytest.raises(ReproError):
        QueryContract(mode="fuzzy")
    with pytest.raises(ReproError):
        QueryContract(mode="exact", max_rel_error=0.1)
    with pytest.raises(ReproError):
        QueryContract(mode="partial", prefer_sample=True)
    with pytest.raises(ReproError):
        approx(max_rel_error=0.0)
    with pytest.raises(ReproError):
        approx(max_rel_error=-1.0)


def test_resolve_contract_legacy_mapping():
    """``contract=None`` keeps the pre-contract behaviour: exact unless
    the manager was built degraded-tolerant."""
    assert resolve_contract(None, degraded_mode=False) is EXACT
    assert resolve_contract(None, degraded_mode=True) is PARTIAL
    explicit = approx()
    assert resolve_contract(explicit, degraded_mode=False) is explicit
    assert resolve_contract(explicit, degraded_mode=True) is explicit


@given(
    mode=st.sampled_from(["exact", "partial", "approx"]),
    tol=st.one_of(st.none(), st.floats(0.001, 10.0)),
    prefer=st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_wire_roundtrip(mode, tol, prefer):
    if mode != "approx":
        tol, prefer = None, False
    contract = QueryContract(
        mode=mode, max_rel_error=tol, prefer_sample=prefer
    )
    assert decode_contract(encode_contract(contract)) == contract
    assert encode_contract(None) is None
    assert decode_contract(None) is None


# --------------------------------------------------------------------- #
# Regression: coverage/unanswered are populated on EVERY result, not
# only on degraded ones (they used to default-populate only through the
# degraded path).


def _assert_uniform_fields(result, numbers):
    assert result.coverage == 1.0
    assert result.unanswered == ()
    assert result.estimated == ()
    assert result.contract == "exact"
    assert result.answered_fraction == 1.0
    assert [c.number for c in result.chunks] == list(numbers)


def test_exact_results_populate_coverage_fields(
    tiny_schema, tiny_backend
):
    cache = AggregateCache(
        tiny_schema, tiny_backend, capacity_bytes=1 << 20, preload=False
    )
    query = Query.full_level(tiny_schema, tiny_schema.base_level)
    numbers = query.chunk_numbers(tiny_schema)
    # Cold (backend-fetched) and warm (cache-hit) results both carry
    # the full field set.
    _assert_uniform_fields(cache.query(query), numbers)
    warm = cache.query(query)
    _assert_uniform_fields(warm, numbers)
    assert warm.complete_hit


def test_concurrent_exact_results_populate_coverage_fields(
    tiny_schema, tiny_backend
):
    service = ConcurrentAggregateCache(
        AggregateCache(
            tiny_schema, tiny_backend, capacity_bytes=1 << 20, preload=False
        )
    )
    query = Query.full_level(tiny_schema, tiny_schema.base_level)
    numbers = query.chunk_numbers(tiny_schema)
    for result in service.serve([query, query], workers=2):
        _assert_uniform_fields(result, numbers)


def test_query_events_carry_coverage_fields(tiny_schema, tiny_backend):
    from repro.obs import Observability

    obs = Observability.in_memory()
    cache = AggregateCache(
        tiny_schema,
        tiny_backend,
        capacity_bytes=1 << 20,
        preload=False,
        obs=obs,
    )
    cache.query(Query.full_level(tiny_schema, tiny_schema.base_level))
    events = obs.ring_events("query")
    assert events, "no query event emitted"
    assert events[-1]["coverage"] == 1.0
    assert events[-1]["unanswered"] == []
    assert events[-1]["estimated"] == 0
