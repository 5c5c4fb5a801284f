"""The per-query record: the observability ``query`` event."""

from __future__ import annotations

import json

import pytest

from repro import AggregateCache, Observability, Query


@pytest.fixture
def obs():
    return Observability.in_memory()


@pytest.fixture
def manager(tiny_schema, tiny_backend, obs):
    return AggregateCache(
        tiny_schema,
        tiny_backend,
        capacity_bytes=1 << 20,
        strategy="vcmc",
        obs=obs,
    )


def test_log_disabled_by_default(tiny_schema, tiny_backend):
    manager = AggregateCache(
        tiny_schema, tiny_backend, capacity_bytes=1 << 20
    )
    manager.query(Query.full_level(tiny_schema, (0, 0, 0)))
    assert not manager.obs.enabled
    assert manager.obs.ring_events("query") == []


def test_log_records_each_query(manager, obs, tiny_schema):
    manager.query(Query.full_level(tiny_schema, (0, 0, 0)))
    manager.query(Query.full_level(tiny_schema, (1, 1, 0)))
    events = obs.ring_events("query")
    assert len(events) == 2
    first, second = events
    assert first["query_seq"] == 1 and second["query_seq"] == 2
    assert first["level"] == [0, 0, 0]
    assert first["chunks"] == 1
    assert first["complete_hit"]
    assert first["aggregated"] >= 1


def test_log_breakdown_consistent(manager, obs, tiny_schema):
    result = manager.query(Query.full_level(tiny_schema, (0, 1, 1)))
    event = obs.ring_events("query")[-1]
    assert event["lookup_ms"] == result.breakdown.lookup_ms
    assert event["tuples_aggregated"] == result.tuples_aggregated
    assert event["cache_used_bytes"] == manager.cache.used_bytes
    assert event["chunks"] == result.query.num_chunks


def test_log_csv_roundtrip(tiny_schema, tiny_backend, tmp_path):
    """The query events exported as JSONL read back one per query."""
    path = tmp_path / "log.jsonl"
    obs = Observability.to_jsonl(path)
    manager = AggregateCache(
        tiny_schema,
        tiny_backend,
        capacity_bytes=1 << 20,
        strategy="vcmc",
        obs=obs,
    )
    results = [
        manager.query(Query.full_level(tiny_schema, level))
        for level in [(0, 0, 0), (2, 1, 1), (1, 0, 1)]
    ]
    obs.close()
    with path.open() as handle:
        events = [json.loads(line) for line in handle]
    rows = [event for event in events if event["kind"] == "query"]
    assert len(rows) == 3
    assert rows[0]["level"] == [0, 0, 0]
    assert rows[0]["complete_hit"] is True
    assert rows[2]["query_seq"] == 3
    for row, result in zip(rows, results):
        assert row["chunks"] == result.query.num_chunks
        assert row["tuples_aggregated"] == result.tuples_aggregated
