"""Wire codec: ndarray-free chunk payloads and partial round trips."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import (
    AggregateCache,
    BackendDatabase,
    CostModel,
    generate_fact_table,
)
from repro.chunks.chunk import ChunkOrigin
from repro.schema import CubeSchema, Dimension
from repro.sharding import (
    ShardPartial,
    decode_chunk,
    decode_partial,
    encode_chunk,
    encode_partial,
)
from repro.sharding.wire import payload_nbytes, read_payload, write_payload


def _base_chunks(tiny_schema, tiny_facts):
    backend = BackendDatabase(tiny_schema, tiny_facts, CostModel())
    return list(backend.compute_level(tiny_schema.base_level))


def _multi_measure_chunks():
    """Base chunks of a three-measure cube (two ``extras`` columns)."""
    schema = CubeSchema(
        [
            Dimension.uniform("Product", [1, 2, 4], [1, 2, 4]),
            Dimension.uniform("Customer", [1, 2], [1, 2]),
            Dimension.uniform("Time", [1, 2], [1, 1]),
        ],
        measure=["UnitSales", "DollarSales", "Cost"],
        bytes_per_tuple=28,
    )
    facts = generate_fact_table(schema, num_tuples=400, seed=77)
    backend = BackendDatabase(schema, facts)
    return list(backend.compute_level(schema.base_level))


def _assert_same_chunk(back, chunk):
    assert back.level == tuple(chunk.level)
    assert back.number == chunk.number
    assert back.compute_cost == chunk.compute_cost
    assert back.origin is chunk.origin
    np.testing.assert_array_equal(back.coords, chunk.coords)
    np.testing.assert_array_equal(back.values, chunk.values)
    np.testing.assert_array_equal(back.counts, chunk.counts)
    assert len(back.extras) == len(chunk.extras)
    for got, want in zip(back.extras, chunk.extras):
        np.testing.assert_array_equal(got, want)
    assert back.cell_dict() == chunk.cell_dict()


def test_chunk_roundtrip_is_exact(tiny_schema, tiny_facts):
    for chunk in _base_chunks(tiny_schema, tiny_facts):
        wire = encode_chunk(chunk)
        assert isinstance(wire[3], bytes), "payload must be raw bytes"
        _assert_same_chunk(decode_chunk(wire), chunk)


@pytest.mark.parametrize("origin", list(ChunkOrigin))
def test_multi_measure_chunk_roundtrip_every_origin(origin):
    chunks = _multi_measure_chunks()
    assert chunks and all(len(c.extras) == 2 for c in chunks)
    for chunk in chunks:
        chunk = replace(chunk, origin=origin, compute_cost=1.25)
        _assert_same_chunk(decode_chunk(encode_chunk(chunk)), chunk)


def test_buffer_codec_roundtrip(tiny_schema, tiny_facts):
    chunk = _base_chunks(tiny_schema, tiny_facts)[0]
    buffer = bytearray(payload_nbytes(chunk))
    write_payload(chunk, memoryview(buffer))
    back = read_payload(
        chunk.level, chunk.number, chunk.compute_cost, memoryview(buffer)
    )
    assert back.cell_dict() == chunk.cell_dict()
    assert back.origin == chunk.origin
    assert back.compute_cost == chunk.compute_cost


def test_wire_chunk_contains_no_ndarrays(tiny_schema, tiny_facts):
    """The whole point of the codec: nothing pickled over the pipe is a
    numpy array (arrays pickle through slow __reduce__ machinery)."""

    def flat(value):
        if isinstance(value, (tuple, list)):
            for item in value:
                yield from flat(item)
        else:
            yield value

    chunk = _base_chunks(tiny_schema, tiny_facts)[0]
    for leaf in flat(encode_chunk(chunk)):
        assert not isinstance(leaf, np.ndarray)
    result_like = ShardPartial(
        shard=0, chunks=[chunk], complete_hit=True, direct_hits=1,
        aggregated=0, from_backend=0, tuples_aggregated=0,
        lookup_visits=1, state_updates=1, reinforcements_skipped=0,
        degraded=False, coverage=1.0, unanswered=(),
        breakdown_ms=(0.1, 0.2, 0.3, 0.4),
    )
    for leaf in flat(encode_partial(result_like)):
        assert not isinstance(leaf, np.ndarray)


def test_partial_roundtrip_from_real_result(tiny_schema, tiny_facts):
    backend = BackendDatabase(tiny_schema, tiny_facts, CostModel())
    manager = AggregateCache(
        tiny_schema, backend, backend.base_size_bytes * 2
    )
    from repro import Query

    ranges = tuple(
        (0, extent)
        for extent in tiny_schema.chunk_shape(tiny_schema.base_level)
    )
    result = manager.query(
        Query(level=tiny_schema.base_level, chunk_ranges=ranges)
    )
    partial = ShardPartial.from_result(3, result)
    back = decode_partial(encode_partial(partial))
    assert back.shard == 3
    assert back.complete_hit == result.complete_hit
    assert back.direct_hits == result.direct_hits
    assert back.aggregated == result.aggregated
    assert back.from_backend == result.from_backend
    assert back.coverage == result.coverage
    assert back.unanswered == tuple(result.unanswered)
    assert len(back.chunks) == len(result.chunks)
    for got, want in zip(back.chunks, result.chunks):
        assert got.cell_dict() == want.cell_dict()
