"""In-memory span recorder for the traced benchmark run.

``Tracer.wrap`` replaces one public callable (an instance method, a class
method or a module-level function) with a timing wrapper.  Each call
records a span ``(name, start, end, parent, query_id)``; the parent is
whichever span was open on the same thread when the call began.  Nothing
under ``src/`` knows about this module: the wrappers are installed by the
benchmark on the objects it constructed, after set-up and warm-up.

A layer's *self* time is its span minus the part its child spans cover,
so "what the manager adds on top of find/aggregate/fetch" is a
subtraction over the recorded spans, not an extra timer.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list] = []

    def _state(self):
        """This thread's ``[spans, open-span stack, query id, recording]``."""
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = [[], [], None, False]
            with self._lock:
                self._threads.append(state)
            return state

    def set_query(self, query_id, record: bool = True) -> None:
        """Tag the spans this thread records next with ``query_id``; with
        ``record`` false the wrappers call straight through, which gives
        the traced run its own untraced latencies to compare against."""
        state = self._state()
        state[2] = query_id
        state[3] = record

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Time every ``owner.attr(...)`` call as a span called ``name``.

        ``owner`` is an instance (the override shadows the class's
        method), a class or a module.  ``on_result`` sees each return
        value after the span has ended, for counts that exist only on it.
        """
        inner = getattr(owner, attr)
        state_of = self._state

        def traced(*args, **kwargs):
            state = state_of()
            if not state[3]:
                return inner(*args, **kwargs)
            spans, stack = state[0], state[1]
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, state[2])
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)

    def spans(self) -> list[dict]:
        """Every finished span, with ids unique across threads."""
        out = []
        for thread, (spans, *_) in enumerate(self._threads):
            for index, span in enumerate(spans):
                if span is None:  # still open: the run was cut short
                    continue
                name, start, end, parent, query_id = span
                out.append({
                    "id": f"{thread}.{index}",
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": f"{thread}.{parent}" if parent >= 0 else None,
                    "query_id": query_id,
                })
        return out


def summarize(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_ms`` and ``self_ms``.

    Spans of one thread nest and never overlap, so a span's self time is
    its duration minus the durations of its direct children.
    """
    child_ns: dict[str, int] = defaultdict(int)
    for span in spans:
        if span["parent"] is not None:
            child_ns[span["parent"]] += span["end"] - span["start"]
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
    )
    for span in spans:
        duration = span["end"] - span["start"]
        row = out[span["name"]]
        row["calls"] += 1
        row["total_ms"] += duration / 1e6
        row["self_ms"] += (duration - child_ns[span["id"]]) / 1e6
    return out


def write_jsonl(spans: list[dict], path) -> None:
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
