"""Concurrent serving over the aggregate cache.

The query pipeline — phase-split readers-writer lock, single-flight
backend fetch deduplication — lives in
:meth:`repro.core.manager.AggregateCache.query`;
:class:`ConcurrentAggregateCache` is the serving façade around it
(thread pool, adaptive hook, maintenance under the write lock).  The
lock and flight-table classes are re-exported here from ``repro.core``;
see ``docs/service.md`` for the design.
"""

from repro.core.rwlock import ReadWriteLock
from repro.core.singleflight import Flight, SingleFlightTable
from repro.service.concurrent import ConcurrentAggregateCache

__all__ = [
    "ConcurrentAggregateCache",
    "Flight",
    "ReadWriteLock",
    "SingleFlightTable",
]
