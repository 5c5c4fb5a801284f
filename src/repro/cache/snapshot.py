"""Cache snapshots: persist a warm cache and restore it later.

A middle tier restarting cold pays the backend for everything again; a
snapshot written at shutdown restores the chunk contents *and* lets the
lookup strategy rebuild its count/cost state through the manager's one
admission wave, so Property 1 and the cost invariants hold by
construction after a restore.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.cache.store import Key
from repro.chunks.chunk import Chunk, ChunkOrigin
from repro.core.manager import AggregateCache
from repro.faults.errors import CorruptChunkError
from repro.faults.registry import failpoint
from repro.util.errors import ReproError

_FORMAT_VERSION = 2


def save_cache_snapshot(manager: AggregateCache, path: str | Path) -> int:
    """Write every resident chunk (with origin and benefit) to ``path``.

    The snapshot is stamped with the backend's *refresh generation* —
    the monotone counter :meth:`BackendDatabase.apply_append` bumps on
    every append.  A snapshot written before an append is a picture of
    the cache over the *old* fact table; silently restoring it over the
    grown backend would serve stale aggregates forever (no refresh ever
    tells the restored chunks they are behind).  The loader therefore
    rejects a snapshot whose generation does not match the live backend.

    Returns the number of chunks saved.
    """
    entries = list(manager.cache.entries())
    generation = int(getattr(manager.backend, "refresh_generation", 0))
    arrays: dict[str, np.ndarray] = {
        "version": np.asarray([_FORMAT_VERSION]),
        "count": np.asarray([len(entries)]),
        "ndims": np.asarray([manager.schema.ndims]),
        "generation": np.asarray([generation]),
    }
    metadata = []
    for i, entry in enumerate(entries):
        chunk = entry.chunk
        metadata.append(
            (
                list(chunk.level),
                chunk.number,
                chunk.origin.value,
                entry.benefit,
            )
        )
        for d, axis in enumerate(chunk.coords):
            arrays[f"chunk_{i}_coords_{d}"] = axis
        arrays[f"chunk_{i}_values"] = chunk.values
        arrays[f"chunk_{i}_counts"] = chunk.counts
        for m, extra in enumerate(chunk.extras):
            arrays[f"chunk_{i}_extra_{m}"] = extra
    arrays["metadata"] = np.asarray(
        [
            (
                ",".join(map(str, level)),
                number,
                origin,
                benefit,
            )
            for level, number, origin, benefit in metadata
        ],
        dtype=object,
    )
    np.savez_compressed(Path(path), **arrays)
    return len(entries)


def load_cache_snapshot(manager: AggregateCache, path: str | Path) -> int:
    """Admit the snapshotted chunks, each at its saved benefit, as ONE
    wave through the manager's ordinary admission path (policy + strategy
    state maintenance included).

    Returns the number of snapshot chunks resident once that wave has
    settled: a chunk the policy declines (e.g. the capacity shrank) or a
    later chunk of the same restore displaced is not counted.  Chunks
    already resident are skipped — re-offering one would bump its
    benefit — and not counted either.

    Chunks are read and validated one at a time.  One that fails its
    integrity check (mismatched array lengths, or an injected
    :class:`CorruptChunkError` at the ``snapshot.load`` failpoint) is
    dropped *individually*; the rest still restores.
    """
    with np.load(Path(path), allow_pickle=True) as data:
        version = int(data["version"][0])
        if version not in (1, _FORMAT_VERSION):
            raise ReproError(
                f"cache snapshot {path} has format version {version}, "
                f"this build reads {_FORMAT_VERSION}"
            )
        count = int(data["count"][0])
        ndims = int(data["ndims"][0])
        if ndims != manager.schema.ndims:
            raise ReproError(
                f"cache snapshot {path} has {ndims} dimensions, the "
                f"schema has {manager.schema.ndims}"
            )
        # Version-1 snapshots predate generation stamping; they could
        # only have been written against a never-appended backend, so
        # treat them as generation 0 and let the same check below decide.
        snap_gen = int(data["generation"][0]) if version >= 2 else 0
        live_gen = int(getattr(manager.backend, "refresh_generation", 0))
        if snap_gen != live_gen:
            raise ReproError(
                f"cache snapshot {path} was taken at backend refresh "
                f"generation {snap_gen}, but the backend is now at "
                f"generation {live_gen}: the fact table changed since the "
                "snapshot and its chunks would silently serve stale "
                "aggregates — re-warm the cache instead of restoring"
            )
        wave: dict[Key, Chunk] = {}
        metadata = data["metadata"]
        for i in range(count):
            level_text, number, origin, benefit = metadata[i]
            level = tuple(int(x) for x in str(level_text).split(","))
            try:
                failpoint(
                    "snapshot.load", index=i, level=level, number=int(number)
                )
                chunk = _read_chunk(
                    data, i, ndims, level, number, origin, benefit
                )
            except CorruptChunkError:
                if manager.obs.enabled:
                    manager.obs.metrics.counter(
                        "snapshot.corrupt_chunks"
                    ).inc()
                    manager.obs.tracer.emit(
                        "snapshot.corrupt",
                        level=list(level),
                        number=int(number),
                    )
                continue
            if chunk.key in wave or manager.cache.contains(*chunk.key):
                continue
            wave[chunk.key] = chunk
    manager._admit_wave(list(wave.values()))
    return sum(manager.cache.contains(*key) for key in wave)


def _read_chunk(
    data, i: int, ndims: int, level, number, origin, benefit
) -> Chunk:
    """Deserialise chunk ``i``, validating that its arrays agree.  The
    saved benefit becomes the chunk's ``compute_cost``, the price the
    admission wave offers it at."""
    extras = []
    m = 0
    while f"chunk_{i}_extra_{m}" in data:
        extras.append(data[f"chunk_{i}_extra_{m}"])
        m += 1
    coords = tuple(data[f"chunk_{i}_coords_{d}"] for d in range(ndims))
    values = data[f"chunk_{i}_values"]
    counts = data[f"chunk_{i}_counts"]
    rows = len(values)
    if len(counts) != rows or any(len(axis) != rows for axis in coords) or any(
        len(extra) != rows for extra in extras
    ):
        raise CorruptChunkError(
            f"snapshot chunk {int(number)} of level {level} has "
            "mismatched array lengths"
        )
    return Chunk(
        level=level,
        number=int(number),
        coords=coords,
        values=values,
        counts=counts,
        origin=ChunkOrigin(str(origin)),
        compute_cost=float(benefit),
        extras=tuple(extras),
    )
