"""Served-discovery benchmark: drives a real ``DiscoveryServer`` over HTTP.

Usage (from the repository root)::

    python3 perfbench/run.py --workload union-warm --seed 1 --seconds 12 --trace 0

The server runs in a child process (``perfbench/launcher.py``) that indexes
the seeded lake and serves it; this process is the load generator.  It
builds every request before the server starts, stays idle while the server
sets up, then sends each request in one write over at most
:data:`~workloads.CONNECTIONS` keep-alive connections with ``TCP_NODELAY``.

A run:

1. times ``setups`` set-ups (lake hand-over → first answered request);
2. sends a fixed warm-up;
3. with ``--trace 0`` measures an open-loop phase (latency from each
   request's due time) and, except on ``churn``, a closed-loop phase
   (throughput); with ``--trace 1`` measures the same open loop twice,
   untraced then traced, and derives the per-layer metrics from the spans;
4. outside the timed window, re-answers the served requests in-process over
   a freshly indexed engine and compares bytes — any mismatch fails the
   run — and scores the served answers against the generated ground truth.

The last stdout line is the JSON result; earlier lines are the report
(every metric by name and unit, the recorded facts, the trace breakdown).
The exit code is 0 only when every checked answer was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import queue
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from repro.core.api import QueryResponse  # noqa: E402
from repro.evaluation.coverage import target_coverage_with_joins  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import TOP_K, TRAFFIC, Request, WorkloadPlan  # noqa: E402

#: A run that has not finished by then is killed and fails.
RUN_DEADLINE_S = 170
#: Socket timeout of one request; a request that exceeds it fails.
REQUEST_TIMEOUT_S = 30.0
#: A ``churn`` mutation not finished this long after it was due fails.
MUTATION_DEADLINE_S = 2.0
#: Where traced runs leave their spans (one JSON line per span).
OUTPUT_DIR = ROOT / ".perfbench"

#: The end-to-end metrics a ``--trace 0`` run reports (BENCHMARK.json).
END_TO_END = (
    "setup_s",
    "query_p50_ms",
    "query_tail_ms",
    "throughput_qps",
    "precision_at_10",
    "recall_at_10",
    "server_rss_mb",
)

#: The per-layer metrics a ``--trace 1`` run reports, with their units.
PER_LAYER_UNITS = {
    "profiles.ms_per_req": "ms",
    "profiles.setup_s": "s",
    "lsh.sign_ms_per_req": "ms",
    "lsh.sign_setup_s": "s",
    "lsh.forest_ms_per_req": "ms",
    "lsh.forest_items_per_req": "count",
    "indexes.lookup_self_ms_per_req": "ms",
    "indexes.distance_ms_per_req": "ms",
    "indexes.distance_pairs_per_req": "count",
    "indexes.mutate_ms": "ms",
    "indexes.insert_setup_s": "s",
    "stats.ks_ms_per_req": "ms",
    "stats.ks_extents_per_req": "count",
    "stats.ccdf_ms_per_req": "ms",
    "discovery.collect_self_ms_per_req": "ms",
    "discovery.useful_ratio": "ratio",
    "api.submit_self_ms_per_req": "ms",
    "api.cache_hit_ratio": "ratio",
    "api.wire_ms_per_req": "ms",
    "joins.paths_ms_per_req": "ms",
    "joins.graph_builds": "count",
    "joins.graph_build_ms": "ms",
    "execution.read_wait_ms_per_req": "ms",
    "execution.write_wait_ms": "ms",
    "server.pool_wait_ms_per_req": "ms",
    "server.edge_self_ms_per_req": "ms",
    "server.transport_ms_per_req": "ms",
    "trace.mean_latency_ms": "ms",
    "trace.overhead_pct": "%",
    "loadgen.late_ms": "ms",
}

#: Per-request self times that together account for the traced mean latency.
BREAKDOWN = (
    "server.transport_ms_per_req",
    "server.edge_self_ms_per_req",
    "api.wire_ms_per_req",
    "server.pool_wait_ms_per_req",
    "execution.read_wait_ms_per_req",
    "api.submit_self_ms_per_req",
    "profiles.ms_per_req",
    "lsh.sign_ms_per_req",
    "discovery.collect_self_ms_per_req",
    "indexes.lookup_self_ms_per_req",
    "lsh.forest_ms_per_req",
    "indexes.distance_ms_per_req",
    "stats.ks_ms_per_req",
    "stats.ccdf_ms_per_req",
    "joins.paths_ms_per_req",
)


# --------------------------------------------------------------------------- #
# HTTP client
# --------------------------------------------------------------------------- #


class Connection:
    """One keep-alive HTTP/1.1 connection; each request goes out in one write."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._socket: Optional[socket.socket] = None
        self._buffer = b""

    def _connect(self) -> socket.socket:
        if self._socket is None:
            sock = socket.create_connection(("127.0.0.1", self.port), REQUEST_TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(REQUEST_TIMEOUT_S)
            self._socket = sock
            self._buffer = b""
        return self._socket

    def roundtrip(self, data: bytes) -> Tuple[int, bytes]:
        """Send one request and read its response: ``(status, body)``."""
        sock = self._connect()
        try:
            sock.sendall(data)
            while b"\r\n\r\n" not in self._buffer:
                self._buffer += self._recv(sock)
            head, self._buffer = self._buffer.split(b"\r\n\r\n", 1)
            lines = head.split(b"\r\n")
            status = int(lines[0].split()[1])
            length = 0
            for line in lines[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            while len(self._buffer) < length:
                self._buffer += self._recv(sock)
            body, self._buffer = self._buffer[:length], self._buffer[length:]
            return status, body
        except (OSError, ValueError, IndexError):
            self.close()
            raise

    @staticmethod
    def _recv(sock: socket.socket) -> bytes:
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk

    def close(self) -> None:
        if self._socket is not None:
            self._socket.close()
            self._socket = None


class Record:
    """One sent request: its schedule, timings and outcome."""

    __slots__ = ("request", "due", "sent", "done", "status")

    def __init__(self, request: Request, due: float) -> None:
        self.request = request
        self.due = due
        self.sent = self.done = 0.0
        self.status = 0


class Answers:
    """Digest of every served answer per key, plus the first body per key."""

    def __init__(self) -> None:
        self.digests: Dict[str, set] = {}
        self.bodies: Dict[str, bytes] = {}
        self.requests: Dict[str, Request] = {}
        self._lock = threading.Lock()

    def add(self, request: Request, body: bytes) -> None:
        digest = hashlib.sha256(body).hexdigest()
        with self._lock:
            self.digests.setdefault(request.key, set()).add(digest)
            self.bodies.setdefault(request.key, body)
            self.requests.setdefault(request.key, request)


def send(connection: Connection, record: Record, answers: Answers) -> None:
    record.sent = time.monotonic()
    try:
        status, body = connection.roundtrip(record.request.http)
    except (OSError, ValueError, IndexError):
        status, body = 0, b""
    record.done = time.monotonic()
    record.status = status
    if status == 200:
        answers.add(record.request, body)


def run_phase(
    port: int,
    requests: Sequence[Request],
    answers: Answers,
    start: float,
    rate: Optional[float] = None,
    until: Optional[float] = None,
    stream=None,
) -> List[Record]:
    """Send ``requests`` over :data:`CONNECTIONS` connections.

    With ``rate`` the phase is open loop: request ``i`` is due at
    ``start + i / rate`` and goes out on the first free connection once due.
    Without it the phase is closed loop: each connection sends its next
    request as soon as the previous answer arrived — through ``requests``
    once, or, with ``until``, from ``stream(i)`` until that deadline.
    """
    records: List[Record] = []
    lock = threading.Lock()
    counter = iter(range(1 << 30))

    def take() -> Optional[Record]:
        with lock:
            index = next(counter)
            if until is None and index >= len(requests):
                return None
            now = time.monotonic()
            if until is not None and now >= until:
                return None
            request = requests[index] if until is None else stream(index)
            due = start + index / rate if rate else now
            record = Record(request, due)
            records.append(record)
            return record

    def client() -> None:
        connection = Connection(port)
        try:
            while True:
                record = take()
                if record is None:
                    return
                delay = record.due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                send(connection, record, answers)
        finally:
            connection.close()

    # Daemon threads: a run that overruns its deadline must still exit.
    threads = [
        threading.Thread(target=client, name=f"loadgen-{index}", daemon=True)
        for index in range(workloads.CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


# --------------------------------------------------------------------------- #
# launcher control
# --------------------------------------------------------------------------- #


class Launcher:
    """The server child process and its line-oriented control channel."""

    def __init__(self, argv: List[str]) -> None:
        self.process = subprocess.Popen(
            argv,
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        self._lines: "queue.Queue" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self._lines.put(json.loads(line))
        self._lines.put(None)

    def expect(self, timeout: float = 120.0) -> dict:
        try:
            message = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError("launcher did not answer in time") from None
        if message is None:
            raise RuntimeError(f"launcher exited ({self.process.wait()})")
        return message

    def command(self, message: dict, reply: bool = True) -> Optional[dict]:
        self.process.stdin.write(json.dumps(message) + "\n")
        self.process.stdin.flush()
        return self.expect() if reply else None

    def stop(self) -> None:
        """Stop the server and wait for the process to end (kill as backstop)."""
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
            except OSError:
                pass
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=5)


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #


def ms(values: Sequence[float]) -> np.ndarray:
    return np.asarray(values, dtype=np.float64) * 1000.0


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def machine_facts() -> Dict[str, object]:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def effectiveness(
    answers: Answers, keys: Sequence[str], explain: bool
) -> Dict[str, float]:
    """Precision/recall at k (and target coverage) of the served answers."""
    precisions, recalls, coverages = [], [], []
    for key in keys:
        request = answers.requests[key]
        payload = json.loads(answers.bodies[key])
        returned = [entry["table"] for entry in payload["results"][:TOP_K]]
        hits = sum(1 for name in returned if name in request.relevant)
        precisions.append(hits / len(returned) if returned else 0.0)
        recalls.append(hits / len(request.relevant) if request.relevant else 0.0)
        if explain:
            response = QueryResponse.from_dict(payload)
            joined: Dict[str, set] = {}
            for path in response.join_paths.paths if response.join_paths else []:
                joined.setdefault(path.start, set()).update(path.reached)
            coverages.append(
                target_coverage_with_joins(response, joined, request.target, TOP_K)
            )
    result = {
        "precision_at_10": float(np.mean(precisions)),
        "recall_at_10": float(np.mean(recalls)),
        "scored_targets": len(keys),
    }
    if explain:
        result["target_coverage"] = float(np.mean(coverages))
    return result


# --------------------------------------------------------------------------- #
# the run
# --------------------------------------------------------------------------- #


def plan_phases(traffic, seconds: float, traced: bool) -> List[Tuple[str, float, Optional[int]]]:
    """``(name, seconds, open-loop request count or None for closed loop)``.

    A traced run repeats one traffic model untraced, then traced: the closed
    loop where the workload has one (back-to-back requests are where the
    serving edge's costs show), else the open loop.
    """
    if traced:
        closed = traffic.open_share < 1.0
        lengths = [("untraced", seconds / 2, closed), ("traced", seconds / 2, closed)]
    elif traffic.open_share < 1.0:
        lengths = [
            ("open", seconds * traffic.open_share, False),
            ("closed", seconds * (1.0 - traffic.open_share), True),
        ]
    else:
        lengths = [("open", seconds, False)]
    return [
        (name, length, None if closed else max(1, round(traffic.open_rate * length)))
        for name, length, closed in lengths
    ]


def checked_requests(plan: WorkloadPlan, phases, params, seed: int) -> List[Request]:
    """The requests whose served answers the correctness gate compares.

    For the warm workloads, every distinct request of the warm-up and the
    open loop (the warm-up covers every target, so closed-loop requests
    repeat checked ones); for ``join-cold`` a seeded sample of them.
    """
    planned = sum(count for _, _, count in phases if count)
    pool = plan.warmup + [plan.stream(index) for index in range(planned)]
    if not plan.traffic.cold:
        return list({request.key: request for request in pool}.values())
    rng = np.random.default_rng([seed, 19])
    chosen = rng.choice(len(pool), size=min(params.checked_cold, len(pool)), replace=False)
    return [pool[index] for index in sorted(chosen.tolist())]


def drive(args, plan: WorkloadPlan, phases, checked: List[Request]) -> dict:
    """Start the server, time its set-ups, send the traffic, collect reports."""
    params = workloads.SCALE_PARAMS[args.scale]
    traffic = plan.traffic
    argv = [
        sys.executable,
        str(HERE / "launcher.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--scale", args.scale,
        "--trace", str(args.trace),
    ]
    if args.trace:
        OUTPUT_DIR.mkdir(exist_ok=True)
        argv += ["--spans", str(spans_path(args))]
    if args.inject_wrong_answer:
        rng = np.random.default_rng([args.seed, 17])
        argv += ["--corrupt-target", checked[int(rng.integers(len(checked)))].target.name]

    answers = Answers()
    out: dict = {"answers": answers, "results": {}, "windows": {}, "cache": {}}
    stages = out["stage_seconds"] = {}
    began = time.monotonic()
    launcher = Launcher(argv)
    try:
        # The client stays idle until each set-up round reports ready, then
        # times the round from the lake hand-over to its first answer.
        setup_times = []
        for round_index in range(params.setups):
            ready = launcher.expect()
            connection = Connection(ready["port"])
            record = Record(plan.warmup[0], time.monotonic())
            send(connection, record, answers)
            connection.close()
            if record.status != 200:
                raise RuntimeError(f"set-up request failed with status {record.status}")
            setup_times.append(record.done - ready["handed_over"])
            if round_index == 0:
                stamp = time.monotonic()
                reply = launcher.command(
                    {"cmd": "reference", "bodies": [r.body.decode() for r in checked]}
                )
                out["reference"] = dict(zip((r.key for r in checked), reply["digests"]))
                stages["reference"] = time.monotonic() - stamp
            launcher.command({"cmd": "answered"}, reply=False)
        out["setup_times"] = setup_times
        port = ready["port"]
        stages["start_and_setups"] = time.monotonic() - began - stages["reference"]

        stamp = time.monotonic()
        out["warmup"] = run_phase(port, plan.warmup, answers, time.monotonic())
        stages["warmup"] = time.monotonic() - stamp
        out["cache_before"] = launcher.command({"cmd": "cache"})
        start = time.monotonic() + 0.05
        out["churn_windows"] = []
        offset = 0
        for name, length, count in phases:
            if name == "traced":
                launcher.command({"cmd": "trace", "on": True})
            if traffic.mutations:
                # Each phase gets the same write schedule, relative to its start.
                launcher.command({"cmd": "churn", "start": start, "end": start + length})
                out["churn_windows"].append((start, start + length))
            if count is None:
                records = run_phase(
                    port, [], answers, start, until=start + length,
                    stream=lambda index, base=offset: plan.stream(base + index),
                )
            else:
                requests = [plan.stream(offset + index) for index in range(count)]
                records = run_phase(port, requests, answers, start, rate=traffic.open_rate)
            offset += len(records)
            out["windows"][name] = (start, start + length)
            out["results"][name] = records
            if name == "traced":
                launcher.command({"cmd": "trace", "on": False})
            out["cache"][name] = launcher.command({"cmd": "cache"})
            # Mutations keep their own schedule; reads resume on the next slot.
            start = max(time.monotonic(), start + length)
        out["report"] = launcher.command({"cmd": "report"})
        stamp = time.monotonic()
        launcher.command({"cmd": "stop"}, reply=False)
        launcher.expect()
    finally:
        launcher.stop()
    stages["stop"] = time.monotonic() - stamp
    return out


def spans_path(args) -> Path:
    return OUTPUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"


def run(args) -> int:
    params = workloads.SCALE_PARAMS[args.scale]
    traffic = TRAFFIC[args.workload]
    benchmark = workloads.build_benchmark(args.workload, args.scale)
    plan = WorkloadPlan(args.workload, args.seed, args.scale, benchmark)
    seconds = float(args.seconds)
    phases = plan_phases(traffic, seconds, bool(args.trace))
    checked = checked_requests(plan, phases, params, args.seed)
    # Build every request the phases can send before the server starts.
    planned = sum(count for _, _, count in phases if count)
    plan.prepare(planned + int(traffic.open_rate * 4 * seconds) + 10)

    out = drive(args, plan, phases, checked)
    answers: Answers = out["answers"]
    results: Dict[str, List[Record]] = out["results"]
    warmup: List[Record] = out["warmup"]
    report = out["report"]

    # ------------------------------------------------------------------ #
    # correctness: every served answer of a key is identical, and equal to
    # the fresh engine's answer wherever the key was checked
    # ------------------------------------------------------------------ #
    timed = [record for records in results.values() for record in records]
    errors = [record for record in warmup + timed if record.status != 200]
    mismatched = sorted(
        key
        for key, digests in answers.digests.items()
        if len(digests) != 1
        or (key in out["reference"] and digests != {out["reference"][key]})
    )
    checked_served = sum(1 for key in out["reference"] if key in answers.digests)
    correct = not mismatched and not errors and checked_served > 0

    mutations = report["mutations"]
    scheduled = sum(
        len(workloads.mutation_schedule(plan, *window)) for window in out["churn_windows"]
    )
    late = [m for m in mutations if m["done"] - m["due"] > MUTATION_DEADLINE_S]
    failed = sum(1 for record in timed if record.status != 200)
    failed += len(late) + (scheduled - len(mutations))
    attempted = len(timed) + scheduled

    # Scored once per target over a fixed set of answers (warm-up plus open
    # loop), so the scores do not depend on how many closed-loop requests
    # completed or which modes a target was asked in.
    scored = warmup + [r for name, _, count in phases if count for r in results[name]]
    first_key = {}
    for record in scored:
        if record.request.key in answers.bodies:
            first_key.setdefault(record.request.target.name, record.request.key)
    quality = effectiveness(answers, list(first_key.values()), traffic.explain)

    # Latency from each request's due time (its send time in a closed loop).
    latency_phase = "traced" if args.trace else "open"
    latency_ok = [r for r in results[latency_phase] if r.status == 200]
    latencies = ms([r.done - r.due for r in latency_ok])
    counts = {name: count for name, _, count in phases}
    tail_q = workloads.tail_percentile(counts[latency_phase] or len(latency_ok))
    p50 = percentile(latencies, 50)
    tail = percentile(latencies, tail_q)
    loop = "closed loop" if counts[latency_phase] is None else (
        f"open loop at {traffic.open_rate} req/s"
    )
    closed = [r for r in results.get("closed", []) if r.status == 200]
    if closed:
        throughput = len(closed) / (max(r.done for r in closed) - out["windows"]["closed"][0])
        throughput_note = "closed loop"
    else:
        # No closed loop: answers per second from the phase's start to its
        # last answer, so a server that falls behind the schedule reads lower.
        begin = out["windows"][latency_phase][0]
        throughput = len(latency_ok) / (max(r.done for r in latency_ok) - begin)
        throughput_note = f"{latency_phase} phase, start to last answer"
    mutation_ms = ms([m["done"] - m["due"] for m in mutations])
    mutation_q = workloads.tail_percentile(len(mutations))

    lines = {
        "setup_s": (statistics.median(out["setup_times"]), "s",
                    f"median of {len(out['setup_times'])} set-ups"),
        "query_p50_ms": (p50, "ms", loop),
        "query_tail_ms": (tail, "ms", f"p{tail_q} of {len(latencies)} samples, "
                          f"{int(np.sum(latencies > tail))} beyond"),
        "throughput_qps": (throughput, "1/s", throughput_note),
        "failed_frac": (failed / attempted if attempted else 0.0, "ratio",
                        f"{failed} of {attempted}"),
        "precision_at_10": (quality["precision_at_10"], "ratio",
                            f"over {quality['scored_targets']} targets"),
        "recall_at_10": (quality["recall_at_10"], "ratio",
                         f"over {quality['scored_targets']} targets"),
        "server_rss_mb": (report["rss_mb"], "MB", "peak"),
    }
    if closed:
        lines["closed_p50_ms"] = (percentile(ms([r.done - r.sent for r in closed]), 50),
                                  "ms", f"closed loop, {len(closed)} requests")
    if "target_coverage" in quality:
        lines["target_coverage"] = (quality["target_coverage"], "ratio",
                                    "Eq. 5 over the served top-k")
    if traffic.mutations:
        lines["mutate_p50_ms"] = (percentile(mutation_ms, 50), "ms",
                                  f"{len(mutation_ms)} mutations")
        lines["mutate_tail_ms"] = (percentile(mutation_ms, mutation_q), "ms",
                                   f"p{mutation_q} of {len(mutation_ms)} samples")

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": seconds,
        "trace": args.trace,
        **machine_facts(),
        "server_workers": os.cpu_count(),
        "connections": workloads.CONNECTIONS,
        "lake": plan.lake_facts(),
        "open_rate_qps": traffic.open_rate,
        "setup_rounds_s": out["setup_times"],
        "warmup_requests": len(warmup),
        "phase_requests": {name: len(records) for name, records in results.items()},
        "cache_hit_ratio": cache_ratios(out["cache_before"], out["cache"], list(results)),
        "joins_share": ratio(sum(1 for r in timed if r.request.joins), len(timed)),
        "mutations": {"scheduled": scheduled, "done": len(mutations), "late": len(late),
                      "deadline_s": MUTATION_DEADLINE_S},
        "checked_keys": {"checked": len(out["reference"]), "served": checked_served,
                         "distinct_served": len(answers.digests)},
        "mismatched_keys": mismatched[:5],
        "non_200": len(errors),
        "loadgen_late_ms_p50": percentile(ms([r.sent - r.due for r in latency_ok]), 50),
        "stage_seconds": out["stage_seconds"],
    }

    if args.trace:
        spans = tracing.read_spans(spans_path(args))
        traced_ok = [r for r in results["traced"] if r.status == 200]
        mean_ms = float(np.mean(ms([r.done - r.sent for r in traced_ok])))
        # The server-side spans of exactly these requests: every root that
        # started between the phase's first send and its last answer.
        window = (min(r.sent for r in traced_ok), max(r.done for r in traced_ok))
        layer, bases = tracing.layer_metrics(spans, window, mean_ms, TOP_K)
        layer.update(tracing.setup_metrics(spans))
        untraced = [r for r in results["untraced"] if r.status == 200]
        untraced_p50 = percentile(ms([r.done - r.due for r in untraced]), 50)
        layer["api.cache_hit_ratio"] = facts["cache_hit_ratio"]["traced"]["ratio"]
        layer["trace.mean_latency_ms"] = mean_ms
        layer["loadgen.late_ms"] = percentile(ms([r.sent - r.due for r in traced_ok]), 50)
        layer["trace.overhead_pct"] = 100.0 * (p50 - untraced_p50) / untraced_p50
        facts["trace_bases"] = bases
        facts["trace_p50_ms"] = {"untraced": untraced_p50, "traced": p50}
        print_breakdown(layer, bases, mean_ms)
        metrics = {
            name: {"value": float(layer[name]), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
    else:
        metrics = {
            name: {"value": float(lines[name][0]), "unit": lines[name][1]}
            for name in END_TO_END
        }
    for name, (value, unit, note) in lines.items():
        print(f"{name:<20} {value:>14.4f} {unit:<6} ({note})")
    print("facts " + json.dumps(facts, sort_keys=True))
    if not correct:
        print(
            f"correctness gate failed: {len(mismatched)} mismatched keys, "
            f"{len(errors)} non-200 answers, {checked_served} checked keys served"
        )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def ratio(numerator: int, denominator: int) -> Dict[str, object]:
    return {"ratio": numerator / denominator if denominator else 0.0, "base": denominator}


def cache_ratios(before: dict, after: Dict[str, dict], names: Sequence[str]) -> Dict[str, dict]:
    """Session-cache hit ratio of each phase, from the servers' counters."""
    ratios = {}
    previous = before
    for name in names:
        hits = after[name]["hits"] - previous["hits"]
        misses = after[name]["misses"] - previous["misses"]
        ratios[name] = ratio(hits, hits + misses)
        previous = after[name]
    return ratios


def print_breakdown(layer: Dict[str, float], bases: Dict[str, object], mean_ms: float) -> None:
    """Each layer's self time per request against the traced mean latency."""
    rows = [(name, layer[name]) for name in BREAKDOWN]
    rows.append(("joins.graph_build (self)", bases["graph_build_self_ms_per_req"]))
    rows.append(("(unattributed)", mean_ms - sum(value for _, value in rows)))
    print(f"traced mean latency {mean_ms:.3f} ms; self time per request by layer:")
    for name, value in rows:
        print(f"  {name:<36} {value:>10.3f} ms  {100.0 * value / mean_ms:6.2f}%")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="lake size; 'tiny' is for the benchmark's self-tests")
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="self-test: the server corrupts one checked target's answers")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    def expire(signum, frame):  # noqa: ARG001
        raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(RUN_DEADLINE_S)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
