#!/usr/bin/env python3
"""The canonical end-to-end benchmark (see README.md).

One run of one workload — what the driver calls, printing one JSON object
as the last line of standard output::

    python3 bench/run.py --workload drill_manager --seed 3 --seconds 22 --trace 0

Every workload, repeated, each run in a fresh child process, with one
traced run per workload, every metric printed by name and unit and
written to ``bench/out/result.json``::

    python3 bench/run.py --seed 7 [--repetitions 3] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import repro.core.manager as manager_module  # noqa: E402
import repro.sharding.router as router_module  # noqa: E402
from repro.sharding.ownership import ShardMap  # noqa: E402
from repro.sharding.wire import decode_partial, encode_partial  # noqa: E402

from oracle import Oracle  # noqa: E402
from spans import Tracer, summarize, write_jsonl  # noqa: E402
from workloads import (  # noqa: E402
    NUM_SHARDS,
    WORKLOADS,
    AppendBatches,
    Stack,
    cycle_start,
    make_cycle,
)

SETUP_REPEATS = 3
"""Stacks built per untraced run; ``setup_s`` is the median build."""
ORACLE_EVERY = 10
"""Every this-many-th query of the cycle has its answer checked."""
UNTRACED_EVERY = 4
"""In a traced run every this-many-th query is served with the wrappers
switched off; those latencies are the base of ``trace.overhead_ratio``.
Interleaving cancels the drift of a cache that is still filling."""
SCALING_PROBE_QUERIES = 300
BATCHED_PROBE_QUERIES = 1000
WIRE_SAMPLE = 2000
"""Partials kept from the traced run for the offline codec timing."""


RESULT_COUNTS = (
    "complete_hit", "direct_hits", "aggregated", "from_backend",
    "tuples_aggregated", "lookup_visits", "state_updates",
)
"""``QueryResult`` fields copied onto each record; the result itself is
not kept, because it would pin every answer's chunks in memory."""


@dataclass
class Served:
    """What one ``Driver.run`` call did."""

    records: list
    waves: list
    wall_s: float


@dataclass(slots=True)
class QueryRecord:
    index: int
    latency_s: float
    ok: bool
    waves_seen: int
    traced: bool = False
    complete_hit: bool = False
    direct_hits: int = 0
    aggregated: int = 0
    from_backend: int = 0
    tuples_aggregated: int = 0
    lookup_visits: int = 0
    state_updates: int = 0
    query: object = None
    chunks: list | None = None
    """Kept on every ORACLE_EVERY-th answer for the check after the loop."""


@dataclass(slots=True)
class WaveRecord:
    seconds: float
    ok: bool
    patched: int
    evicted: int
    residents_before: int
    file_bytes_after: int


class Driver:
    """Closed-loop load generator: each client sends its next query only
    when the previous one has been answered.  All clients draw from one
    numbered walk round the workload's cycle, so the inputs do not depend
    on the client count."""

    def __init__(self, stack: Stack, seed: int, clients: int | None = None):
        self.stack = stack
        self.workload = stack.workload
        self.clients = clients or self.workload.clients
        self.cycle = make_cycle(self.workload, stack.schema)
        self.start = cycle_start(self.workload, seed)
        self.issued = 0
        self._lock = threading.Lock()
        self.batches = None
        if self.workload.append_every:
            self.batches = AppendBatches(self.workload, stack.schema)
        self.applied: list = []
        """Appended batches in wave order (the oracle replays them)."""
        self.tracer: Tracer | None = None

    def next_query(self, limit: int | None = None):
        """``(run index, cycle position, query)`` of the next query, or
        ``None`` once ``limit`` queries have been issued."""
        with self._lock:
            if limit is not None and self.issued >= limit:
                return None
            index = self.issued
            self.issued += 1
            position = (self.start + index) % len(self.cycle)
            return index, position, self.cycle[position]

    def run(self, *, seconds: float | None = None, count: int | None = None,
            keep_answers: bool = False):
        """Serve ``count`` queries or for ``seconds``, whichever ends
        first."""
        limit = None if count is None else self.issued + count
        records: list[list[QueryRecord]] = [[] for _ in range(self.clients)]
        waves: list[WaveRecord] = []
        errors: list[BaseException] = []

        def client(out) -> None:
            try:
                self._client(out, waves, limit, deadline, keep_answers)
            except BaseException as exc:  # re-raised below, after the join
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(out,)) for out in records
        ]
        started = time.perf_counter()
        deadline = math.inf if seconds is None else started + seconds
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        if errors:
            raise errors[0]
        merged = sorted(
            (r for out in records for r in out), key=lambda r: r.index
        )
        return Served(merged, waves, wall)

    def _client(self, out, waves, limit, deadline, keep_answers) -> None:
        query_fn = self.stack.target.query
        every = self.workload.append_every
        tracer = self.tracer
        while time.perf_counter() < deadline:
            item = self.next_query(limit)
            if item is None:
                break
            index, position, query = item
            record = QueryRecord(index, 0.0, False, len(self.applied))
            if tracer is not None:
                record.traced = index % UNTRACED_EVERY != UNTRACED_EVERY - 1
                tracer.set_query(index, record.traced)
            started = time.perf_counter()
            try:
                result = query_fn(query)
            except Exception as exc:  # a failed operation, not a crash
                record.latency_s = time.perf_counter() - started
                print(f"query {index} failed: {exc!r}", file=sys.stderr)
            else:
                record.latency_s = time.perf_counter() - started
                record.ok = not result.degraded and not result.unanswered
                for name in RESULT_COUNTS:
                    setattr(record, name, getattr(result, name))
                # What is kept, and below when a wave falls, go by cycle
                # position: the same queries and waves for every seed.
                if keep_answers and position % ORACLE_EVERY == 0:
                    record.query = query
                    record.chunks = result.chunks
            out.append(record)
            if every and (position + 1) % every == 0:
                waves.append(self._append_wave(position // every))

    def _append_wave(self, wave: int) -> WaveRecord:
        """One warehouse refresh.  Only single-client workloads append,
        so the wave runs between two queries of the one client."""
        stack = self.stack
        batch = self.batches.batch(wave)
        if self.tracer is not None:
            self.tracer.set_query(f"wave-{len(self.applied)}")
        residents = len(stack.manager.cache)
        patched = evicted = 0
        ok = True
        started = time.perf_counter()
        try:
            outcome = stack.target.refresh_from_backend(batch, mode="delta")
        except Exception as exc:
            ok = False
            print(f"refresh failed: {exc!r}", file=sys.stderr)
        else:
            patched, evicted = outcome.patched, outcome.evicted
        seconds = time.perf_counter() - started
        self.applied.append(batch)
        return WaveRecord(
            seconds, ok, patched, evicted, residents, stack.file_bytes()
        )


# ---------------------------------------------------------------------- #
# tracing: which callables of the constructed stack become spans


def install_wrappers(tracer: Tracer, stack: Stack, counters: dict) -> None:
    def note_fetch(out) -> None:
        counters["simulated_ms"] += out[1].simulated_ms

    def note_wire(wire) -> None:
        if len(counters["wires"]) < WIRE_SAMPLE:
            counters["wires"].append(wire)

    manager, service, router = stack.manager, stack.service, stack.router
    if manager is not None:
        backend = stack.backend
        tracer.wrap(manager, "query", "core.query")
        tracer.wrap(manager, "refresh_from_backend", "core.refresh")
        tracer.wrap(manager.strategy, "find", "core.find")
        tracer.wrap(manager.strategy, "on_insert_many", "core.state_update")
        tracer.wrap(manager.strategy, "on_evict_many", "core.state_update")
        tracer.wrap(manager.cache, "get", "cache.get")
        tracer.wrap(manager.cache, "insert_many", "cache.insert")
        tracer.wrap(manager.cache, "reinforce", "cache.reinforce")
        # The manager and the service reach the kernel through the names
        # the manager module imported; the backend's own roll-ups stay
        # inside backend.fetch.
        tracer.wrap(manager_module, "rollup_many", "aggregation.rollup")
        tracer.wrap(manager_module, "rollup_chunks", "aggregation.rollup")
        tracer.wrap(backend, "fetch", "backend.fetch", note_fetch)
        tracer.wrap(backend, "apply_append", "backend.append")
        # Appends swap in a new store object, so wrap the class.
        tracer.wrap(type(backend.store), "get", "backend.store_get")
    if service is not None:
        tracer.wrap(service, "query", "service.query")
        tracer.wrap(service, "refresh_from_backend", "service.refresh")
        tracer.wrap(service._rw, "acquire_read", "service.lock_wait")
        tracer.wrap(service._rw, "acquire_write", "service.lock_wait")
    if router is not None:
        tracer.wrap(router, "query", "sharding.query")
        tracer.wrap(ShardMap, "split", "sharding.split")
        tracer.wrap(router_module, "merge_partials", "sharding.merge")
        tracer.wrap(router_module, "decode_partial", "sharding.wire_decode")
        for shard in router.shards:
            tracer.wrap(shard, "request", "sharding.rpc", note_wire)


def stack_counters(stack: Stack) -> dict[str, float]:
    """Lifetime counters of the in-process layers (deltas are taken
    around the window)."""
    manager, service = stack.manager, stack.service
    out: dict[str, float] = {}
    if manager is not None:
        plans = manager.plan_cache.stats()
        out.update(
            plan_hits=plans["hits"], plan_lookups=plans["lookups"],
            evictions=manager.cache.stats.evictions,
            rejects=manager.cache.stats.rejects,
            tuples_scanned=stack.backend.totals.tuples_scanned,
        )
    if service is not None:
        out.update(replans=service.replans, joined=service.flights.joined)
    return out


# ---------------------------------------------------------------------- #
# probes: extra per-layer numbers that need a stack of their own


def scaling_probe(workload, seed: int, tmp: Path, scale: float) -> float:
    """2-client ÷ 1-client throughput on the same first measured queries,
    each on a fresh stack."""
    rates = []
    for clients in (1, workload.clients):
        stack = Stack(workload, tmp / f"probe-{clients}.col")
        try:
            driver = Driver(stack, seed, clients=clients)
            driver.run(count=scaled(workload.warmup, scale))
            served = driver.run(count=scaled(SCALING_PROBE_QUERIES, scale))
            rates.append(sum(r.ok for r in served.records) / served.wall_s)
        finally:
            stack.close()
    return rates[1] / rates[0]


def batched_probe(workload, seed: int, tmp: Path, scale: float) -> float:
    """Throughput of the same first window queries through the router's
    batched ``serve`` on a fresh fleet."""
    stack = Stack(workload, tmp / "probe-batched.col")
    try:
        driver = Driver(stack, seed)
        driver.run(count=scaled(workload.warmup, scale))
        queries = [
            driver.next_query()[2]
            for _ in range(scaled(BATCHED_PROBE_QUERIES, scale))
        ]
        started = time.perf_counter()
        results = stack.router.serve(queries, workers=workload.clients)
        wall = time.perf_counter() - started
        return sum(not r.degraded for r in results) / wall
    finally:
        stack.close()


def scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


# ---------------------------------------------------------------------- #
# one run


def peak_rss_mb(pids: list[int]) -> float:
    total_kb = 0
    for pid in pids:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024


def check_answers(stack: Stack, driver: Driver, records) -> int:
    """Oracle check of the kept answers; flips ``ok`` on a mismatch and
    returns how many answers were checked."""
    oracle = Oracle(stack.schema, stack.facts)
    for batch in driver.applied:
        oracle.append(batch)
    checked = 0
    for record in records:
        if record.chunks is None:
            continue
        checked += 1
        if not oracle.matches(record.query, record.chunks, record.waves_seen):
            record.ok = False
            print(f"query {record.index}: oracle mismatch", file=sys.stderr)
    return checked


def end_to_end(served: Served, setup_s, rss_mb) -> dict:
    records = served.records
    p50, p95, p99 = np.percentile(
        [r.latency_s * 1e3 for r in records], [50, 95, 99]
    )
    return {
        "setup_s": setup_s,
        "queries_per_s": sum(r.ok for r in records) / served.wall_s,
        "query_p50_ms": float(p50),
        "query_p95_ms": float(p95),
        "query_p99_ms": float(p99),
        "complete_hit_ratio": (
            sum(r.complete_hit for r in records) / len(records)
        ),
        "peak_rss_mb": rss_mb,
    }


def per_layer(stack, served: Served, spans, counters, before, after,
              probes) -> dict:
    """The traced run's numbers over its window; a layer the workload
    bypasses reads 0.  Span times are per traced query (every
    UNTRACED_EVERY-th is not), counts per query served."""
    records, waves = served.records, served.waves
    queries = len(records)
    traced = [r for r in records if r.traced]
    in_query = summarize(
        [s for s in spans if isinstance(s["query_id"], int)]
    )
    in_wave = summarize(
        [s for s in spans if not isinstance(s["query_id"], int)]
    )
    zero = {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}

    def per_query(name, field="total_ms"):
        return in_query.get(name, zero)[field] / len(traced)

    def per_wave(name, field="total_ms"):
        return in_wave.get(name, zero)[field] / len(waves) if waves else 0.0

    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    direct = sum(r.direct_hits for r in records)
    aggregated = sum(r.aggregated for r in records)
    from_backend = sum(r.from_backend for r in records)
    chunks = direct + aggregated + from_backend
    rollup_s = in_query.get("aggregation.rollup", zero)["total_ms"] / 1e3
    metrics = {
        "core.query_self_ms": per_query("core.query", "self_ms"),
        "core.find_ms": per_query("core.find"),
        "core.find_calls": per_query("core.find", "calls"),
        "core.lookup_visits": mean(r.lookup_visits for r in records),
        "core.plan_cache_hit_ratio": ratio(
            delta("plan_hits"), delta("plan_lookups")
        ),
        "core.state_update_ms": per_query("core.state_update"),
        "core.state_updates": mean(r.state_updates for r in records),
        "core.refresh_ms": per_wave("core.refresh"),
        "core.refresh_self_ms": per_wave("core.refresh", "self_ms"),
        "core.refresh_patched": mean(w.patched for w in waves),
        "core.refresh_evicted": mean(w.evicted for w in waves),
        "cache.get_ms": per_query("cache.get"),
        "cache.insert_ms": per_query("cache.insert"),
        "cache.reinforce_ms": per_query("cache.reinforce"),
        "cache.evictions": delta("evictions") / queries,
        "cache.rejects": delta("rejects") / queries,
        "cache.chunks_direct_ratio": ratio(direct, chunks),
        "cache.chunks_aggregated_ratio": ratio(aggregated, chunks),
        "cache.chunks_backend_ratio": ratio(from_backend, chunks),
        "cache.used_bytes_ratio": stack.cache_used_ratio(),
        "cache.resident_survival_ratio": mean(
            1.0 - ratio(w.evicted, w.residents_before) for w in waves
        ),
        "aggregation.rollup_ms": per_query("aggregation.rollup"),
        "aggregation.rollup_calls": per_query("aggregation.rollup", "calls"),
        "aggregation.tuples_aggregated": mean(
            r.tuples_aggregated for r in records
        ),
        "aggregation.rollup_mtuples_per_s": ratio(
            sum(r.tuples_aggregated for r in traced) / 1e6, rollup_s
        ),
        "backend.fetch_ms": per_query("backend.fetch"),
        "backend.fetch_calls": per_query("backend.fetch", "calls"),
        "backend.tuples_scanned": delta("tuples_scanned") / queries,
        "backend.simulated_ms": counters["simulated_ms"] / len(traced),
        "backend.store_get_ms": per_query("backend.store_get"),
        "backend.append_ms": per_wave("backend.append"),
        "backend.layout_s": stack.layout_s,
        "backend.file_bytes_per_wave": ratio(
            waves[-1].file_bytes_after - waves[0].file_bytes_after
            if waves else 0,
            max(len(waves) - 1, 0),
        ),
        "service.query_self_ms": per_query("service.query", "self_ms"),
        "service.lock_wait_ms": per_query("service.lock_wait"),
        "service.replans": delta("replans") / queries,
        "service.flights_joined": delta("joined") / queries,
        "service.scaling_2_over_1": probes.get("scaling", 0.0),
        "sharding.router_self_ms": per_query("sharding.query", "self_ms"),
        "sharding.split_ms": per_query("sharding.split"),
        "sharding.rpc_ms": per_query("sharding.rpc"),
        "sharding.rpc_calls": per_query("sharding.rpc", "calls"),
        "sharding.merge_ms": per_query("sharding.merge"),
        "sharding.wire_decode_ms": per_query("sharding.wire_decode"),
        "sharding.wire_encode_ms": 0.0,
        "sharding.wire_bytes": 0.0,
        "sharding.shard_imbalance": stack.shard_imbalance(),
        "sharding.spawn_s": stack.spawn_s,
        "sharding.serve_batched_qps": probes.get("batched", 0.0),
        "trace.overhead_ratio": ratio(
            mean(r.latency_s for r in traced),
            mean(r.latency_s for r in records if not r.traced),
        ),
        "trace.reconcile_ratio": ratio(
            sum(row["self_ms"] for row in in_query.values()),
            sum(r.latency_s for r in traced) * 1e3,
        ),
        "backend_chunks_per_query": mean(r.from_backend for r in records),
        "refresh_p50_ms": (
            statistics.median(w.seconds for w in waves) * 1e3 if waves else 0.0
        ),
        "store_bytes_per_user_byte": ratio(
            waves[-1].file_bytes_after if waves else 0,
            stack.facts.size_bytes,
        ),
    }
    wires = counters["wires"]
    if wires:
        # The worker-side encode cannot be seen from the router, so the
        # codec is timed here on the partials the traced run captured.
        partials = [decode_partial(wire) for wire in wires]
        started = time.perf_counter()
        for partial in partials:
            encode_partial(partial)
        encode_ms = (time.perf_counter() - started) * 1e3 / len(wires)
        wire_bytes = mean(
            len(pickle.dumps(wire, pickle.HIGHEST_PROTOCOL)) for wire in wires
        )
        rpc_calls = metrics["sharding.rpc_calls"]
        metrics["sharding.wire_encode_ms"] = encode_ms * rpc_calls
        metrics["sharding.wire_bytes"] = wire_bytes * rpc_calls
    return metrics


def run_one(spec: dict, name: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    workload = WORKLOADS[name]
    scale = 0.1 if smoke else 1.0
    window = scaled(workload.window, scale)
    tmp = OUT_DIR / "tmp" / f"{name}-{os.getpid()}"
    tmp.mkdir(parents=True)
    stack = None
    try:
        probes = {}
        if trace and workload.entry == "service" and workload.clients > 1:
            probes["scaling"] = scaling_probe(workload, seed, tmp, scale)
        if trace and workload.entry == "router":
            probes["batched"] = batched_probe(workload, seed, tmp, scale)

        builds = []
        for attempt in range(1 if trace or smoke else SETUP_REPEATS):
            if stack is not None:
                stack.close()
            stack = Stack(workload, tmp / f"warehouse-{attempt}.col")
            builds.append(stack.build_s)

        driver = Driver(stack, seed)
        driver.run(count=scaled(workload.warmup, scale))
        if trace:
            tracer = driver.tracer = Tracer()
            counters = {"simulated_ms": 0.0, "wires": []}
            before = stack_counters(stack)
            install_wrappers(tracer, stack, counters)
        # The window: one pass over the cycle.  Every reported metric is
        # taken over it, so runs are compared on the same work.
        served = driver.run(count=window, seconds=seconds, keep_answers=True)
        records, waves = served.records, served.waves
        if trace:
            after = stack_counters(stack)
            driver.tracer = None
        else:
            rss_mb = peak_rss_mb([os.getpid(), *stack.worker_pids()])
        if len(records) < window:
            print(
                f"{name}: only {len(records)} of the window's {window} "
                f"queries fit into {seconds} s; metrics cover those",
                file=sys.stderr,
            )
        # Keep serving until the time is up; the tail is checked and
        # counted like the window but feeds no metric.
        tail = driver.run(seconds=seconds - served.wall_s, keep_answers=True)
        checked = check_answers(stack, driver, records + tail.records)
        if trace:
            spans = tracer.spans()
            write_jsonl(spans, OUT_DIR / f"trace_{name}.jsonl")
            values = per_layer(
                stack, served, spans, counters, before, after, probes
            )
            names = spec["per_layer"]
        else:
            values = end_to_end(served, statistics.median(builds), rss_mb)
            names = spec["end_to_end"]
        operations = records + tail.records + waves + tail.waves
        failed = sum(not op.ok for op in operations)
        result = {
            "correct": failed == 0,
            "attempted": len(operations),
            "failed": failed,
            "metrics": {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in names
            },
        }
        detail = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "window_queries": len(records),
            "window_waves": len(waves),
            "window_wall_s": served.wall_s,
            "tail_queries": len(tail.records),
            "oracle_checked": checked,
            "setup_builds_s": builds,
            "values": values,
        }
        (OUT_DIR / f"run_{name}_trace{int(trace)}.json").write_text(
            json.dumps(detail, indent=1)
        )
        return result
    finally:
        if stack is not None:
            stack.close()
        shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------- #
# every workload, repeated


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def child_run(name, seed, seconds, trace, smoke) -> dict:
    """One run in a fresh process, so no run inherits another's heap,
    caches or patched callables."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, check=True
    )
    sys.stderr.write(done.stderr)
    return json.loads(done.stdout.splitlines()[-1])


def run_all(spec: dict, seed: int, repetitions: int, smoke: bool) -> int:
    seconds = spec["run_seconds"] * (0.1 if smoke else 1.0)
    cores = len(os.sched_getaffinity(0))
    report = {
        "environment": {
            "git_commit": git_commit(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "usable_cores": cores,
            "load_average_at_start": os.getloadavg(),
            "seed": seed,
            "repetitions": repetitions,
            "seconds_per_run": seconds,
            "smoke": smoke,
        },
        "workloads": {},
    }
    failed_any = False
    for name, workload in WORKLOADS.items():
        runs = [
            child_run(name, seed, seconds, False, smoke)
            for _ in range(repetitions)
        ]
        traced = child_run(name, seed, seconds, True, smoke)
        detail = json.loads((OUT_DIR / f"run_{name}_trace0.json").read_text())
        processes = workload.clients + (
            NUM_SHARDS if workload.entry == "router" else 0
        )
        attempted = sum(r["attempted"] for r in runs + [traced])
        failed = sum(r["failed"] for r in runs + [traced])
        failed_any |= failed > 0
        entry = {
            "underprovisioned": processes > cores,
            "attempted": attempted,
            "failed": failed,
            "failed_fraction": failed / attempted,
            "end_to_end": {},
            "per_layer": traced["metrics"],
            "query_p99_ms_last_run": detail["values"]["query_p99_ms"],
        }
        print(f"\n== {name}  (failed {failed} of {attempted} operations"
              f"{', underprovisioned' if entry['underprovisioned'] else ''})")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            entry["end_to_end"][metric["name"]] = {
                "median": statistics.median(values),
                "unit": metric["unit"],
                "runs": values,
            }
            print(f"  {metric['name']:<28} {statistics.median(values):>14.4f}"
                  f" {metric['unit']:<10} runs: "
                  + " ".join(f"{v:.4f}" for v in values))
        for metric_name, cell in traced["metrics"].items():
            print(f"  {metric_name:<36} {cell['value']:>14.4f} {cell['unit']}")
        report["workloads"][name] = entry
    (OUT_DIR / "result.json").write_text(json.dumps(report, indent=1))
    print(f"\nwrote {OUT_DIR / 'result.json'}")
    return 1 if failed_any else 0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument(
        "--smoke", action="store_true",
        help="a tenth of the seconds, window, warm-up and probe counts, "
        "one set-up, one repetition",
    )
    args = parser.parse_args()
    OUT_DIR.mkdir(exist_ok=True)
    # Let a terminated run unwind, so workers stop and temp files go.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload is None:
        return run_all(
            spec, args.seed, 1 if args.smoke else args.repetitions,
            args.smoke,
        )
    result = run_one(
        spec, args.workload, args.seed, args.seconds, bool(args.trace),
        args.smoke,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
