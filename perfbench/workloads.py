"""Workload definitions shared by the load generator and the server launcher.

Both processes derive everything from ``(workload, seed, scale)``: the
launcher regenerates the lake it indexes and serves, and the load generator
regenerates the same lake for its targets and ground truth.  Nothing but
HTTP requests crosses from the client to the program.

The inputs that set a request's cost are fixed: the lake comes from
:data:`LAKE_SEED`, the warm targets and ``join-cold``'s sources and column
projections, the targets' Zipf popularity ranking and the tables ``churn``
re-indexes from the same seed.  The run's ``--seed`` draws the request
stream and ``join-cold``'s row samples.  Lakes from different seeds differ
several-fold in query cost (``join-cold`` closed-loop throughput ranged
9.7-19.3 req/s over five seeds), and join-path counts of one source differ
~10x between projections, which would bury any change a run is meant to
show.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.core.api import QueryRequest, query_request_to_wire
from repro.datagen import (
    Benchmark,
    RealBenchmarkConfig,
    SyntheticBenchmarkConfig,
    generate_real_benchmark,
    generate_synthetic_benchmark,
)
from repro.tables.table import Table

WORKLOADS = ("union-warm", "join-cold", "churn")
SCALES = ("full", "tiny")

#: Answer size of every request (the paper's precision/recall cut-off).
TOP_K = 10
#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Scale:
    """Lake size and fixed per-run counts of one benchmark scale.

    ``full`` is what the benchmark reports.  ``tiny`` exists for the
    benchmark's own self-tests: the same code path over a lake that indexes
    in well under a second.
    """

    synthetic_bases: int
    synthetic_per_base: int
    real_families: int
    real_per_family: int
    setups: int
    warmup_passes: int
    cold_warmup: int
    checked_cold: int
    mutation_period_s: float


SCALE_PARAMS = {
    "full": Scale(32, 12, 24, 10, 3, 2, 8, 12, 16.0),
    "tiny": Scale(4, 4, 3, 4, 2, 2, 3, 3, 1.0),
}


@dataclass(frozen=True)
class Traffic:
    """Traffic model of one workload.

    ``open_rate`` is the fixed open-loop arrival rate (requests/s), about
    half the closed-loop throughput measured on a 2-CPU Xeon at the commit
    that introduced the benchmark; it is part of the workload definition and
    never derived from the machine running it.  ``open_share`` is the part
    of ``--seconds`` spent in the open-loop phase; the rest is closed loop.
    Every ``joins_every``-th request asks for joins (0: none).
    """

    lake: str
    open_rate: float
    open_share: float
    joins_every: int
    explain: bool
    cold: bool
    mutations: bool


TRAFFIC = {
    "union-warm": Traffic("synthetic", 6.0, 0.6, 0, False, False, False),
    "join-cold": Traffic("real", 3.5, 0.75, 1, True, True, False),
    # A quarter, not half, of churn's reads ask for joins: joins reads cost
    # ~4x plain ones and the write's join-graph rebuild slows ~6 more, so
    # the median and the tail each need a clear majority to stand in.
    "churn": Traffic("synthetic", 3.0, 1.0, 4, False, False, True),
}

#: Generator seed of every workload's lake.
LAKE_SEED = 0
#: Zipf exponent of the warm workloads' target popularity: skewed, yet mild
#: enough that the median latency does not hinge on one or two targets.
ZIPF_EXPONENT = 0.5
#: Connections the load generator opens (the server's CPU count, 2 on the
#: reference box); the open-loop schedule never has more requests in flight.
CONNECTIONS = 2


def build_benchmark(workload: str, scale: str) -> Benchmark:
    """The generated lake plus ground truth of a workload."""
    params = SCALE_PARAMS[scale]
    if TRAFFIC[workload].lake == "synthetic":
        return generate_synthetic_benchmark(
            SyntheticBenchmarkConfig(
                num_base_tables=params.synthetic_bases,
                tables_per_base=params.synthetic_per_base,
                seed=LAKE_SEED,
            )
        )
    return generate_real_benchmark(
        RealBenchmarkConfig(
            num_families=params.real_families,
            tables_per_family=params.real_per_family,
            seed=LAKE_SEED,
        )
    )


def families(benchmark: Benchmark) -> Dict[str, List[Table]]:
    """Lake tables grouped by the base table or family they were derived from."""
    grouped: Dict[str, List[Table]] = {}
    for table in sorted(benchmark.lake.tables, key=lambda table: table.name):
        grouped.setdefault(table.name.rsplit("_", 1)[0], []).append(table)
    return grouped


def fixed_tables(benchmark: Benchmark) -> List[Table]:
    """One lake table per base table (or family), chosen by :data:`LAKE_SEED`.

    These are the warm workloads' targets and ``join-cold``'s sources: every
    run asks about every schema of the lake, and the same tables, so runs
    with different seeds measure the same mix.
    """
    rng = np.random.default_rng(LAKE_SEED)
    return [members[int(rng.integers(len(members)))] for members in families(benchmark).values()]


def cold_columns(source: Table, position: int) -> List[str]:
    """The fixed projection of a ``join-cold`` source: half its columns, at least two.

    The number of join paths a projection leads to — and with it the
    request's cost, 10-200 ms — depends on which columns it keeps, so the
    projection is fixed per source rather than drawn per request.
    """
    names = source.column_names
    width = min(len(names), max(2, (len(names) + 1) // 2))
    rng = np.random.default_rng([LAKE_SEED, position])
    return [names[i] for i in sorted(rng.choice(len(names), size=width, replace=False).tolist())]


def cold_target(source: Table, columns: List[str], seed: int, index: int) -> Table:
    """Fresh target ``index`` of ``join-cold``: a seeded half-size row sample.

    Named so that no lake table or earlier target shares its name or
    content, so every request misses the session profile cache.
    """
    rng = np.random.default_rng([seed, 7, index])
    rows = min(source.cardinality, max(10, source.cardinality // 2))
    picked = sorted(rng.choice(source.cardinality, size=rows, replace=False).tolist())
    name = f"cold_{seed}_{index:05d}"
    return source.select_columns(columns, name=name).take_rows(picked, name=name)


@dataclass
class Request:
    """One prepared request: its answer key, wire bytes, and target."""

    key: str
    http: bytes
    body: bytes
    target: Table
    joins: bool
    relevant: Set[str]


def encode_request(target: Table, joins: bool, explain: bool) -> Tuple[bytes, bytes]:
    """The ``POST /query`` body and the whole HTTP request, as one buffer."""
    body = json.dumps(
        query_request_to_wire(
            QueryRequest(target=target, k=TOP_K, joins=joins, explain=explain)
        )
    ).encode("utf-8")
    head = (
        "POST /query HTTP/1.1\r\nHost: localhost\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    return body, head + body


def tail_percentile(samples: int) -> int:
    """Highest whole percentile that leaves :data:`TAIL_BEYOND` samples beyond it."""
    if samples <= TAIL_BEYOND:
        return 50
    return max(50, min(99, math.floor(100.0 * (1.0 - TAIL_BEYOND / samples))))


class WorkloadPlan:
    """Every request a run can send, in the order it sends them.

    ``warmup`` precedes any timed phase; ``stream(i)`` is the ``i``-th timed
    request (open loop first, then closed loop).  Warm workloads draw the
    stream Zipf-skewed over their fixed targets; ``join-cold`` hands out a
    fresh target per request.
    """

    def __init__(self, workload: str, seed: int, scale: str, benchmark: Benchmark):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.traffic = TRAFFIC[workload]
        self.benchmark = benchmark
        self._rng = np.random.default_rng([seed, 11])
        self._cache: Dict[Tuple[str, bool], Request] = {}
        params = SCALE_PARAMS[scale]
        if self.traffic.cold:
            self.targets: List[Table] = []
            self._sources = [
                (source, cold_columns(source, position))
                for position, source in enumerate(fixed_tables(benchmark))
            ]
            self.warmup = [self._cold(index) for index in range(params.cold_warmup)]
            self._next_cold = params.cold_warmup
        else:
            self.targets = fixed_tables(benchmark)
            # Which targets are popular is fixed too: per-target costs differ
            # ~2x, and a seeded ranking moved the median by as much.
            order = np.random.default_rng(LAKE_SEED).permutation(len(self.targets))
            weights = 1.0 / np.arange(1, len(self.targets) + 1) ** ZIPF_EXPONENT
            self.popularity = np.empty(len(self.targets))
            self.popularity[order] = weights / weights.sum()
            # The profile cache is shared by both modes, so a joins workload
            # warms up in one pass; its first request builds the join graph.
            passes = 1 if self.traffic.joins_every else params.warmup_passes
            self.warmup = [
                self._warm(target, self._joins(index))
                for index, target in enumerate(self.targets * passes)
            ]
        self._stream: List[Request] = []

    def _joins(self, index: int) -> bool:
        every = self.traffic.joins_every
        return bool(every) and index % every == 0

    def _warm(self, target: Table, joins: bool) -> Request:
        cache_key = (target.name, joins)
        request = self._cache.get(cache_key)
        if request is None:
            body, http = encode_request(target, joins, self.traffic.explain)
            request = Request(
                key=f"{target.name}|joins={int(joins)}",
                http=http,
                body=body,
                target=target,
                joins=joins,
                relevant=self.benchmark.ground_truth.related_to(target.name),
            )
            self._cache[cache_key] = request
        return request

    def _cold(self, index: int) -> Request:
        source, columns = self._sources[index % len(self._sources)]
        target = cold_target(source, columns, self.seed, index)
        body, http = encode_request(target, True, self.traffic.explain)
        relevant = self.benchmark.ground_truth.related_to(source.name) | {source.name}
        return Request(target.name, http, body, target, True, relevant)

    def stream(self, index: int) -> Request:
        """The ``index``-th timed request (generated on first use, then kept)."""
        while len(self._stream) <= index:
            if self.traffic.cold:
                self._stream.append(self._cold(self._next_cold))
                self._next_cold += 1
            elif self._joins(len(self._stream)):
                # Joins requests go round the targets: their cost varies
                # ~10x with the target's join paths, and a Zipf draw would
                # let a run's tail hinge on which targets came out popular.
                turn = len(self._stream) // self.traffic.joins_every
                self._stream.append(self._warm(self.targets[turn % len(self.targets)], True))
            else:
                target = int(self._rng.choice(len(self.targets), p=self.popularity))
                self._stream.append(self._warm(self.targets[target], False))
        return self._stream[index]

    def prepare(self, count: int) -> None:
        """Generate the first ``count`` timed requests ahead of the timed phases."""
        self.stream(count - 1)

    def lake_facts(self) -> Dict[str, object]:
        """Lake size facts recorded with every run."""
        tables = self.benchmark.lake.tables
        attributes = sum(table.arity for table in tables)
        numeric = sum(
            1 for table in tables for column in table.columns if column.is_numeric
        )
        return {
            "tables": len(tables),
            "attributes": attributes,
            "numeric_attributes": numeric,
            "numeric_share": numeric / attributes if attributes else 0.0,
            "targets": len(self.targets) if self.targets else None,
        }


def mutation_schedule(
    plan: WorkloadPlan, start: float, end: float
) -> List[Tuple[float, Table]]:
    """``churn``'s writes in one phase: identical-content re-indexes of targets.

    One per :attr:`Scale.mutation_period_s` of phase (at least one), evenly
    spaced with the first half a slot in, re-indexing the targets from the
    most popular down.  The order is fixed, not seeded: the join-graph
    rebuild a write triggers, and so the reads it delays, depend on the table.
    """
    count = max(1, round((end - start) / SCALE_PARAMS[plan.scale].mutation_period_s))
    slot = (end - start) / count
    ranked = np.argsort(-plan.popularity, kind="stable")
    return [
        (start + (index + 0.5) * slot, plan.targets[int(ranked[index % len(ranked)])])
        for index in range(count)
    ]
