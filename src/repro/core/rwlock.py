"""A writer-preferring readers-writer lock.

The concurrent serving layer splits a query into a read side (lookup +
in-cache aggregation, which only *read* cache membership and count/cost
state) and a write side (admissions, evictions and count/cost
maintenance).  Many readers may proceed together; a writer excludes
everyone.

Writer preference: once a writer is waiting, new readers block until it
has run.  Admissions are short compared to aggregations, so letting
readers stream past a waiting writer would starve updates and let the
read side compute on ever-staler plans (more revalidation failures, not
more throughput).

The lock is NOT reentrant and does not support upgrading a read hold to
a write hold — the service layer never holds both at once.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.faults.registry import failpoint


class ReadWriteLock:
    """Shared/exclusive lock with writer preference."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    # ------------------------------------------------------------------ #
    # read side

    def acquire_read(self) -> None:
        # Failpoint before touching the condition: an injected fault or
        # delay never fires while holding the lock's own mutex.
        failpoint("service.lock", mode="read")
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            if self._readers <= 0:
                raise RuntimeError("release_read without a matching acquire")
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    @contextmanager
    def read_locked(self):
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    # ------------------------------------------------------------------ #
    # write side

    def acquire_write(self) -> None:
        failpoint("service.lock", mode="write")
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            if not self._writer_active:
                raise RuntimeError("release_write without a matching acquire")
            self._writer_active = False
            self._cond.notify_all()

    @contextmanager
    def write_locked(self):
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()

    # ------------------------------------------------------------------ #
    # introspection (tests)

    @property
    def readers(self) -> int:
        return self._readers

    @property
    def writer_active(self) -> bool:
        return self._writer_active

    def __repr__(self) -> str:
        return (
            f"ReadWriteLock(readers={self._readers}, "
            f"writer={self._writer_active}, "
            f"waiting={self._writers_waiting})"
        )
