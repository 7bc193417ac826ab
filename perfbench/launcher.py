"""Server side of the benchmark: index, serve, mutate, trace.

Started by ``run.py`` as a child process.  It regenerates the workload's
lake from the seed, and for each of ``setups`` rounds hands the lake to a
fresh ``D3L.index_lake`` and starts a ``DiscoveryServer`` (thread backend,
one session per CPU) — the client times each round from the hand-over
stamp to its first answered request.  The last round's server then takes
the workload's traffic.  For ``churn`` a mutator thread re-indexes target
tables, with identical content, on a fixed schedule.

Protocol: one JSON object per line.  Commands arrive on stdin, replies and
events leave on the original stdout (everything else the process prints is
sent to stderr).  EOF on stdin shuts the server down.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core.api import DiscoverySession, query_request_from_wire  # noqa: E402
from repro.core.discovery import D3L  # noqa: E402
from repro.core.server import DiscoveryServer  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _peak_rss_mb() -> float:
    """Peak resident set size of this process (``VmHWM``), in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Mutator(threading.Thread):
    """Runs ``churn``'s write schedule: ``D3L.index_table`` at fixed due times."""

    def __init__(self, engine: D3L, schedule) -> None:
        super().__init__(name="perfbench-mutator", daemon=True)
        self.engine = engine
        self.schedule = schedule
        self.records = []

    def run(self) -> None:
        for due, table in self.schedule:
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            self.engine.index_table(table)
            self.records.append({"due": due, "done": time.monotonic()})


def reference_digests(engine: D3L, bodies) -> list:
    """SHA-256 of the payload a fresh session over ``engine`` answers per body.

    The payload is the one the server promises for ``POST /query``:
    ``DiscoverySession.submit(request).truncated().to_dict()``, JSON-encoded.
    """
    digests = []
    with DiscoverySession(engine) as session:
        for body in bodies:
            request = query_request_from_wire(json.loads(body))
            payload = json.dumps(session.submit(request).truncated().to_dict())
            digests.append(hashlib.sha256(payload.encode("utf-8")).hexdigest())
    return digests


def _corrupting(submit, target_name: str):
    """``DiscoveryServer.submit`` that serves one target a wrong distance."""

    def wrong(self, request):
        payload = submit(self, request)
        if request.target_name == target_name and payload.get("results"):
            payload["results"][0]["distance"] += 1e-6
        return payload

    return wrong


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--corrupt-target", default=None)
    args = parser.parse_args()

    # Keep the protocol channel clean of anything the program prints.
    channel = os.fdopen(os.dup(1), "w", buffering=1, encoding="utf-8")
    os.dup2(2, 1)

    def send(message) -> None:
        channel.write(json.dumps(message) + "\n")

    def receive():
        line = sys.stdin.readline()
        return json.loads(line) if line else {"cmd": "stop"}

    if args.corrupt_target:
        DiscoveryServer.submit = _corrupting(DiscoveryServer.submit, args.corrupt_target)
    benchmark = workloads.build_benchmark(args.workload, args.scale)
    plan = workloads.WorkloadPlan(args.workload, args.seed, args.scale, benchmark)
    workers = os.cpu_count() or 1
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    server = engine = None
    setups = workloads.SCALE_PARAMS[args.scale].setups
    for round_index in range(setups):
        if server is not None:
            server.close()
            server = engine = None
            gc.collect()
        handed_over = time.monotonic()
        engine = D3L()
        engine.index_lake(benchmark.lake)
        server = DiscoveryServer(engine, workers=workers).start()
        send({"event": "ready", "round": round_index, "handed_over": handed_over,
              "port": server.port})
        while True:
            command = receive()
            if command.get("cmd") != "reference":
                break
            # The correctness reference: a freshly indexed engine that served
            # only the set-up request, answered in-process between rounds.
            if tracer is not None:
                tracer.uninstall()
            send({"digests": reference_digests(engine, command["bodies"])})
            if tracer is not None:
                tracer.install()
        if command.get("cmd") != "answered":
            server.close()
            return 1
    if tracer is not None:
        tracer.uninstall()

    mutators = []
    try:
        while True:
            command = receive()
            kind = command.get("cmd")
            if kind == "stop":
                break
            if kind == "cache":
                send(server.status_payload()["cache"])
            elif kind == "trace":
                if command["on"]:
                    tracer.install()
                else:
                    tracer.uninstall()
                send({"ok": True})
            elif kind == "churn":
                mutators.append(
                    Mutator(
                        engine,
                        workloads.mutation_schedule(plan, command["start"], command["end"]),
                    )
                )
                mutators[-1].start()
                send({"ok": True})
            elif kind == "report":
                for mutator in mutators:
                    mutator.join()
                records = [record for mutator in mutators for record in mutator.records]
                send({"mutations": records, "rss_mb": _peak_rss_mb(),
                      "cache": server.status_payload()["cache"]})
            else:
                send({"error": f"unknown command {kind!r}"})
    finally:
        for mutator in mutators:
            mutator.join()
        server.close()
        if tracer is not None:
            tracer.uninstall()
            if args.spans:
                tracer.write(args.spans)
        send({"event": "stopped"})
    return 0


if __name__ == "__main__":
    sys.exit(main())
