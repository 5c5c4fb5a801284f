"""Single-flight deduplication of backend chunk fetches.

When several concurrent queries miss the same ``(level, chunk)`` the
backend should compute it once, not once per query.  The table tracks one
*flight* per in-progress key: the first claimant becomes the **leader**
and fetches; everyone else becomes a **follower** and waits on the
flight's event, sharing the fetched chunk object.

Lifecycle of a flight::

    claim()    — leader creates it (followers of the same key join)
    publish()  — leader stores the chunk and wakes followers; the entry
                 stays in the table so late claimants still share it
    release()  — leader removes it after its cache admission settled
    fail()     — leader propagates a fetch error and removes it

``release`` is deliberately separate from ``publish``: between the fetch
completing and the leader's write phase admitting the chunk, a fresh miss
on the same key should join the finished flight (and get the chunk
immediately) rather than start a duplicate fetch.
"""

from __future__ import annotations

import threading
from typing import Callable, Hashable

from repro.util.errors import ReproError


class Flight:
    """One in-progress (or just-completed) backend fetch of one key."""

    __slots__ = ("key", "event", "result", "error")

    def __init__(self, key: Hashable) -> None:
        self.key = key
        self.event = threading.Event()
        self.result = None
        self.error: BaseException | None = None

    @property
    def done(self) -> bool:
        return self.event.is_set()


class SingleFlightTable:
    """The in-progress flight per key, plus claim/publish bookkeeping."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[Hashable, Flight] = {}
        self.led = 0
        """Lifetime number of flights created (leader claims)."""
        self.joined = 0
        """Lifetime number of follower joins."""

    def claim(
        self, keys: list[Hashable]
    ) -> tuple[list[Hashable], dict[Hashable, Flight]]:
        """Partition ``keys`` into those this caller must fetch (it is now
        their leader) and the existing flights it joins as a follower.

        Atomic over the whole batch, so one query's missing set is claimed
        consistently against concurrent claimants.
        """
        led: list[Hashable] = []
        joined: dict[Hashable, Flight] = {}
        with self._lock:
            for key in keys:
                flight = self._flights.get(key)
                if flight is None:
                    self._flights[key] = Flight(key)
                    led.append(key)
                    self.led += 1
                else:
                    joined[key] = flight
                    self.joined += 1
        return led, joined

    def publish(self, key: Hashable, result) -> None:
        """Leader: deliver the fetched chunk and wake every follower."""
        with self._lock:
            flight = self._flights.get(key)
        if flight is None:  # pragma: no cover - leader misuse guard
            raise ReproError(f"publish for unclaimed flight {key!r}")
        flight.result = result
        flight.event.set()

    def fail(self, keys: list[Hashable], error: BaseException) -> None:
        """Leader: propagate a fetch failure and retire the flights."""
        with self._lock:
            flights = [self._flights.pop(key, None) for key in keys]
        for flight in flights:
            if flight is not None and not flight.done:
                flight.error = error
                flight.event.set()

    def release(self, keys: list[Hashable]) -> None:
        """Leader: retire finished flights (after its admissions landed)."""
        with self._lock:
            for key in keys:
                self._flights.pop(key, None)

    def abandon(self, keys: list[Hashable], error: BaseException) -> None:
        """Leader error path: retire ``keys`` no matter what state each
        flight is in.  Published flights are simply released; unpublished
        ones are failed with ``error`` so their waiters wake immediately
        instead of stranding until the liveness timeout.

        This is the leader's ``finally`` hammer: any exception between
        ``claim`` and the normal ``release`` (a failed fetch for *other*
        keys of the same query, a follower wait that raised, a fault
        injected during the admission phase) must not leave a flight in
        the table — a stranded published flight would serve a chunk that
        was never admitted to every future misser, forever.
        """
        with self._lock:
            flights = [self._flights.pop(key, None) for key in keys]
        for flight in flights:
            if flight is not None and not flight.done:
                flight.error = error
                flight.event.set()

    def wait(self, flight: Flight, timeout: float | None = None):
        """Follower: block until the leader publishes, then share the
        result.  Raises the leader's error if the fetch failed, and
        :class:`ReproError` on timeout (a liveness backstop — it should
        only fire if a leader thread was killed between claim and
        publish/fail)."""
        if not flight.event.wait(timeout):
            raise ReproError(
                f"single-flight wait timed out for {flight.key!r}"
            )
        if flight.error is not None:
            raise flight.error
        return flight.result

    def in_progress(self) -> int:
        with self._lock:
            return len(self._flights)

    def do(self, key: Hashable, fn: Callable[[], object], timeout=None):
        """Convenience single-key form: leaders run ``fn``, followers
        share its result.  The flight retires as soon as it completes."""
        led, joined = self.claim([key])
        if led:
            try:
                result = fn()
            except BaseException as exc:
                self.fail([key], exc)
                raise
            self.publish(key, result)
            self.release([key])
            return result
        return self.wait(joined[key], timeout)
