"""The router ⇄ worker wire format: plain tuples, raw-byte arrays.

Requests and responses travel over :mod:`multiprocessing` pipes.  Pipes
pickle whatever they are given, and pickling numpy arrays goes through
``__reduce__`` machinery that copies and tags every array object —
measurable overhead at thousands of chunks per second.  So nothing sent
over the wire contains an ndarray: a chunk's columns are flattened to
one raw ``bytes`` payload (:func:`write_payload`: raw little-endian
int64/float64 columns behind a four-int header), and everything else
is ints, floats, strings and tuples, which pickle as compact opcodes.

A shard's answer to its slice of a query is a :class:`ShardPartial`:
the slice's chunks plus exactly the accounting fields of
:class:`~repro.core.manager.QueryResult`, so the router can both
reconstruct a single-shard result field for field (the one-shard
identity gate) and merge several partials additively.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from repro.approx.contract import QueryContract, encode_contract
from repro.approx.estimator import CellEstimate
from repro.chunks.chunk import Chunk, ChunkOrigin
from repro.schema.cube import Level

#: Column payload header: rows, ndims, num_extras, origin code.
_HEADER = struct.Struct("<qqqq")

_ORIGIN_CODES = {origin: i for i, origin in enumerate(ChunkOrigin)}
_ORIGIN_BY_CODE = {i: origin for origin, i in _ORIGIN_CODES.items()}


def payload_nbytes(chunk: Chunk) -> int:
    ncols = len(chunk.coords) + 2 + len(chunk.extras)
    return _HEADER.size + ncols * chunk.size_tuples * 8


def write_payload(chunk: Chunk, buffer: memoryview) -> None:
    """Serialise ``chunk``'s columns into ``buffer`` (raw 8-byte columns
    in coords/values/counts/extras order, little-endian)."""
    n = chunk.size_tuples
    _HEADER.pack_into(
        buffer,
        0,
        n,
        len(chunk.coords),
        len(chunk.extras),
        _ORIGIN_CODES[chunk.origin],
    )
    offset = _HEADER.size
    for column, dtype in _iter_columns(chunk):
        out = np.frombuffer(buffer, dtype=dtype, count=n, offset=offset)
        out[:] = column
        offset += n * 8


def read_payload(
    level: tuple[int, ...],
    number: int,
    compute_cost: float,
    buffer,
) -> Chunk:
    """Rebuild a chunk whose arrays are views over ``buffer``."""
    n, ndims, num_extras, origin_code = _HEADER.unpack_from(buffer, 0)
    offset = _HEADER.size

    def col(dtype) -> np.ndarray:
        nonlocal offset
        out = np.frombuffer(buffer, dtype=dtype, count=n, offset=offset)
        offset += n * 8
        return out

    return Chunk(
        level=level,
        number=number,
        coords=tuple(col(np.int64) for _ in range(ndims)),
        values=col(np.float64),
        counts=col(np.int64),
        origin=_ORIGIN_BY_CODE[int(origin_code)],
        compute_cost=compute_cost,
        extras=tuple(col(np.float64) for _ in range(num_extras)),
    )


def _iter_columns(chunk: Chunk):
    for axis in chunk.coords:
        yield axis, np.int64
    yield chunk.values, np.float64
    yield chunk.counts, np.int64
    for extra in chunk.extras:
        yield extra, np.float64


#: (level, number, compute_cost, payload bytes)
WireChunk = tuple[tuple[int, ...], int, float, bytes]


def encode_chunk(chunk: Chunk) -> WireChunk:
    buffer = bytearray(payload_nbytes(chunk))
    write_payload(chunk, memoryview(buffer))
    return (tuple(chunk.level), chunk.number, chunk.compute_cost, bytes(buffer))


def decode_chunk(wire: WireChunk) -> Chunk:
    """Rebuild a chunk; its arrays are read-only views over the wire
    bytes (no copy — ``bytes`` is immutable, which is fine for answers)."""
    level, number, compute_cost, payload = wire
    return read_payload(level, number, compute_cost, payload)


@dataclass(slots=True)
class ShardPartial:
    """One shard's answer to its owned slice of a query.

    Accounting fields mirror :class:`~repro.core.manager.QueryResult`;
    ``coverage``/``unanswered`` are relative to the shard's slice, the
    router re-derives the global figures at merge time.
    """

    shard: int
    chunks: list[Chunk]
    complete_hit: bool
    direct_hits: int
    aggregated: int
    from_backend: int
    tuples_aggregated: int
    lookup_visits: int
    state_updates: int
    reinforcements_skipped: int
    degraded: bool
    coverage: float
    unanswered: tuple[int, ...]
    breakdown_ms: tuple[float, float, float, float]
    """(lookup, aggregate, update, backend) milliseconds."""
    estimated: tuple[CellEstimate, ...] = field(default=())
    """Sample estimates for the slice's approx-answered chunks; plain
    scalars on the wire (:meth:`CellEstimate.encode`)."""

    @classmethod
    def from_result(cls, shard: int, result) -> "ShardPartial":
        b = result.breakdown
        return cls(
            shard=shard,
            chunks=list(result.chunks),
            complete_hit=result.complete_hit,
            direct_hits=result.direct_hits,
            aggregated=result.aggregated,
            from_backend=result.from_backend,
            tuples_aggregated=result.tuples_aggregated,
            lookup_visits=result.lookup_visits,
            state_updates=result.state_updates,
            reinforcements_skipped=result.reinforcements_skipped,
            degraded=result.degraded,
            coverage=result.coverage,
            unanswered=tuple(result.unanswered),
            breakdown_ms=(
                b.lookup_ms, b.aggregate_ms, b.update_ms, b.backend_ms
            ),
            estimated=tuple(result.estimated),
        )


def encode_partial(partial: ShardPartial) -> tuple:
    return (
        partial.shard,
        [encode_chunk(chunk) for chunk in partial.chunks],
        partial.complete_hit,
        partial.direct_hits,
        partial.aggregated,
        partial.from_backend,
        partial.tuples_aggregated,
        partial.lookup_visits,
        partial.state_updates,
        partial.reinforcements_skipped,
        partial.degraded,
        partial.coverage,
        tuple(partial.unanswered),
        tuple(partial.breakdown_ms),
        tuple(e.encode() for e in partial.estimated),
    )


def decode_partial(wire: tuple) -> ShardPartial:
    (
        shard, chunks, complete_hit, direct_hits, aggregated, from_backend,
        tuples_aggregated, lookup_visits, state_updates,
        reinforcements_skipped, degraded, coverage, unanswered, breakdown_ms,
        estimated,
    ) = wire
    return ShardPartial(
        shard=shard,
        chunks=[decode_chunk(c) for c in chunks],
        complete_hit=complete_hit,
        direct_hits=direct_hits,
        aggregated=aggregated,
        from_backend=from_backend,
        tuples_aggregated=tuples_aggregated,
        lookup_visits=lookup_visits,
        state_updates=state_updates,
        reinforcements_skipped=reinforcements_skipped,
        degraded=degraded,
        coverage=coverage,
        unanswered=tuple(unanswered),
        breakdown_ms=tuple(breakdown_ms),
        estimated=tuple(CellEstimate.decode(e) for e in estimated),
    )


def encode_query(
    level: Level,
    ranges,
    numbers,
    contract: QueryContract | None = None,
) -> tuple:
    """A query request: the level, the chunk ranges (to rebuild the
    :class:`~repro.workload.query.Query`), the owned chunk numbers and
    the per-query contract (``None`` for the legacy default)."""
    return (
        tuple(level),
        tuple(tuple(r) for r in ranges),
        tuple(numbers),
        encode_contract(contract),
    )
