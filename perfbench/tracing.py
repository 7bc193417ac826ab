"""Span tracing around the program's public entry points, and its summary.

The launcher installs a :class:`Tracer` in the server process: every entry
point in :data:`ENTRY_POINTS` is replaced (in its defining module or class,
and in every ``repro`` module that imported it by name) with a wrapper that
records ``(name, thread, span id, parent id, start, end, items)``.  Spans
nest per thread, so each span's parent is the innermost traced call still
open on the same thread.  Spans stay in memory and are written out as JSON
lines when the run ends; :func:`layer_metrics` turns them into the
per-layer metrics.

Nothing here touches the program's source: tracing is installed and removed
at run time, so the untraced runs execute the program exactly as shipped.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[str, int, int, int, float, float, int]


def _forest_items(args, kwargs, result) -> int:
    return sum(len(entry) for entry in result)


def _query_items(args, kwargs, result) -> int:
    return len(result)


def _distance_pairs(args, kwargs, result) -> int:
    return sum(len(column) for column in result)


def _ks_extents(args, kwargs, result) -> int:
    return len(result)


def _candidate_tables(args, kwargs, result) -> int:
    return len({ref.table for _, refs, _ in result for ref in refs})


#: ``(span name, module, attribute path, items counter)`` for every traced
#: entry point.  Span names are the ones :func:`layer_metrics` aggregates.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("http.request", "repro.core.server", "_DiscoveryRequestHandler.do_POST", None),
    ("server.submit", "repro.core.server", "DiscoveryServer.submit", None),
    ("api.from_wire", "repro.core.api", "query_request_from_wire", None),
    ("api.truncated", "repro.core.api", "QueryResponse.truncated", None),
    ("api.to_dict", "repro.core.api", "QueryResponse.to_dict", None),
    ("api.submit", "repro.core.api", "DiscoverySession.submit", None),
    ("profiles.profile_table", "repro.core.indexes", "D3LIndexes.profile_table", None),
    ("lsh.sign", "repro.core.indexes", "D3LIndexes.batch_signatures", None),
    ("lsh.multi_query", "repro.lsh.lsh_forest", "LSHForest.multi_query", _forest_items),
    ("lsh.query", "repro.lsh.lsh_forest", "LSHForest.query", _query_items),
    ("indexes.multi_lookup", "repro.core.indexes", "D3LIndexes.multi_lookup", None),
    (
        "indexes.distances",
        "repro.core.indexes",
        "D3LIndexes.multi_batch_attribute_distances",
        _distance_pairs,
    ),
    ("indexes.add_table", "repro.core.indexes", "D3LIndexes.add_table", None),
    ("indexes.insert", "repro.core.indexes", "D3LIndexes.add_profiled_table", None),
    ("stats.ks", "repro.stats.ks", "ks_statistic_sorted_many", _ks_extents),
    ("stats.ccdf", "repro.stats.distributions", "ccdf_weights_many", None),
    (
        "discovery.collect",
        "repro.core.discovery",
        "collect_attribute_candidate_distances",
        _candidate_tables,
    ),
    ("joins.augment", "repro.core.discovery", "D3L.augment_with_joins", None),
    ("joins.find_paths", "repro.core.joins", "find_join_paths", None),
    ("joins.graph_build", "repro.core.joins", "SAJoinGraph.build", None),
    ("engine.index_table", "repro.core.discovery", "D3L.index_table", None),
    ("engine.index_lake", "repro.core.discovery", "D3L.index_lake", None),
)

#: Span names of the index lock's acquire waits (leaf spans).
READ_WAIT = "execution.read_wait"
WRITE_WAIT = "execution.write_wait"


class Tracer:
    """Records spans from wrapped entry points; install/uninstall at will."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function: Callable, items: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            count = items(args, kwargs, result) if items is not None else 0
            tracer.spans.append(
                (name, threading.get_ident(), span_id, parent, start, end, count)
            )
            return result

        return traced

    def wait_span(self, name: str, acquire) -> Callable:
        """Wrap a lock's context-manager method, timing only the acquire."""
        tracer = self

        @contextmanager
        def traced(lock):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            start = time.perf_counter()
            with acquire(lock):
                end = time.perf_counter()
                tracer.spans.append(
                    (name, threading.get_ident(), next(tracer._ids), parent, start, end, 0)
                )
                yield

        return traced

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every entry point (idempotent while installed)."""
        if self._patches:
            return
        import importlib

        from repro.core.execution import IndexReadWriteLock

        for name, module_name, path, items in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attribute = path.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
                if isinstance(original, classmethod):
                    replacement = classmethod(self.wrap(name, original.__func__, items))
                else:
                    replacement = self.wrap(name, original, items)
                self._patch(owner, attribute, replacement)
                continue
            original = getattr(module, path)
            replacement = self.wrap(name, original, items)
            # Callers that imported the function by name hold their own
            # reference; rebind it in every loaded module of the program.
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and (
                    loaded.__dict__.get(path) is original
                ):
                    self._patch(loaded, path, replacement)
        for attribute, span in (("read", READ_WAIT), ("write", WRITE_WAIT)):
            acquire = IndexReadWriteLock.__dict__[attribute]
            self._patch(IndexReadWriteLock, attribute, self.wait_span(span, acquire))

    def uninstall(self) -> None:
        """Restore every wrapped entry point (spans are kept)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in list(self.spans):
                handle.write(json.dumps(span) + "\n")


def read_spans(path) -> List[Span]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle if line.strip()]


# --------------------------------------------------------------------------- #
# summary
# --------------------------------------------------------------------------- #


class _Tree:
    """Spans indexed by id with their children and self times."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans = {span[2]: span for span in spans}
        self.children: Dict[int, List[int]] = defaultdict(list)
        for span in self.spans.values():
            self.children[span[3]].append(span[2])

    def duration(self, span_id: int) -> float:
        span = self.spans[span_id]
        return span[5] - span[4]

    def self_time(self, span_id: int) -> float:
        return self.duration(span_id) - sum(
            self.duration(child) for child in self.children.get(span_id, ())
        )

    def roots(self, name: str, start: float, end: float) -> List[int]:
        return sorted(
            span_id
            for span_id, span in self.spans.items()
            if span[0] == name and span[3] == 0 and start <= span[4] < end
        )

    def totals(self, roots: Sequence[int]) -> "_Totals":
        totals = _Totals()
        pending = list(roots)
        while pending:
            span_id = pending.pop()
            span = self.spans[span_id]
            parent = self.spans.get(span[3])
            totals.add(
                span[0],
                self.duration(span_id),
                self.self_time(span_id),
                span[6],
                parent[0] if parent else None,
            )
            pending.extend(self.children.get(span_id, ()))
        return totals


class _Totals:
    """Per span name: call count, total and self seconds, items."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self: Dict[str, float] = defaultdict(float)
        self.items: Dict[str, int] = defaultdict(int)

    def add(self, name, duration, self_time, items, parent_name) -> None:
        self.calls[name] += 1
        self.total[name] += duration
        self.self[name] += self_time
        # A scalar forest descent inside multi_query is part of its items.
        if not (name == "lsh.query" and parent_name == "lsh.multi_query"):
            self.items[name] += items


def setup_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Median, over the traced set-ups, of the set-up work per layer."""
    tree = _Tree(spans)
    per_setup = {"profiles.setup_s": [], "lsh.sign_setup_s": [], "indexes.insert_setup_s": []}
    for root in tree.roots("engine.index_lake", float("-inf"), float("inf")):
        totals = tree.totals([root])
        per_setup["profiles.setup_s"].append(totals.total["profiles.profile_table"])
        per_setup["lsh.sign_setup_s"].append(totals.total["lsh.sign"])
        per_setup["indexes.insert_setup_s"].append(totals.self["indexes.insert"])
    return {
        name: statistics.median(values) if values else 0.0
        for name, values in per_setup.items()
    }


def layer_metrics(
    spans: Sequence[Span],
    window: Tuple[float, float],
    client_latency_ms: float,
    k: int,
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Per-layer metrics over the requests and mutations started in ``window``.

    ``client_latency_ms`` is the client's mean send-to-response latency of
    the same requests; everything the server-side spans do not cover is the
    transport.  Returns ``(metrics, bases)``: the bases are the counts each
    ratio and per-request figure was divided by.
    """
    tree = _Tree(spans)
    start, end = window
    requests = tree.roots("http.request", start, end)
    mutations = tree.roots("engine.index_table", start, end)
    served = tree.totals(requests)
    written = tree.totals(mutations)
    n = max(1, len(requests))
    m = len(mutations)

    def per_req(seconds: float) -> float:
        return 1000.0 * seconds / n

    builds = served.calls["joins.graph_build"]
    collects = served.calls["discovery.collect"]
    scored = served.items["discovery.collect"]
    edge = served.total["http.request"]
    metrics = {
        "profiles.ms_per_req": per_req(served.total["profiles.profile_table"]),
        "lsh.sign_ms_per_req": per_req(served.total["lsh.sign"]),
        "lsh.forest_ms_per_req": per_req(
            served.self["lsh.multi_query"] + served.self["lsh.query"]
        ),
        "lsh.forest_items_per_req": (
            served.items["lsh.multi_query"] + served.items["lsh.query"]
        ) / n,
        "indexes.lookup_self_ms_per_req": per_req(served.self["indexes.multi_lookup"]),
        "indexes.distance_ms_per_req": per_req(served.total["indexes.distances"]),
        "indexes.distance_pairs_per_req": served.items["indexes.distances"] / n,
        "indexes.mutate_ms": (
            1000.0 * (written.self["indexes.add_table"] + written.self["indexes.insert"]) / m
            if m
            else 0.0
        ),
        "stats.ks_ms_per_req": per_req(served.total["stats.ks"]),
        "stats.ks_extents_per_req": served.items["stats.ks"] / n,
        "stats.ccdf_ms_per_req": per_req(served.total["stats.ccdf"]),
        "discovery.collect_self_ms_per_req": per_req(served.self["discovery.collect"]),
        "discovery.useful_ratio": (k * collects / scored) if scored else 0.0,
        "api.submit_self_ms_per_req": per_req(served.self["api.submit"]),
        "api.wire_ms_per_req": per_req(
            served.total["api.from_wire"]
            + served.total["api.truncated"]
            + served.total["api.to_dict"]
        ),
        "joins.paths_ms_per_req": per_req(
            served.self["joins.augment"] + served.self["joins.find_paths"]
        ),
        "joins.graph_builds": float(builds),
        "joins.graph_build_ms": (
            1000.0 * served.total["joins.graph_build"] / builds if builds else 0.0
        ),
        "execution.read_wait_ms_per_req": per_req(served.total[READ_WAIT]),
        "execution.write_wait_ms": (
            1000.0 * written.total[WRITE_WAIT] / m if m else 0.0
        ),
        "server.pool_wait_ms_per_req": per_req(served.self["server.submit"]),
        "server.transport_ms_per_req": client_latency_ms - per_req(edge),
        "server.edge_self_ms_per_req": per_req(served.self["http.request"]),
    }
    bases = {
        "requests": len(requests),
        "mutations": m,
        "candidate_collections": collects,
        "candidate_tables_scored": scored,
        "graph_builds": builds,
        "server_side_ms_per_req": per_req(edge),
        "graph_build_self_ms_per_req": per_req(served.self["joins.graph_build"]),
    }
    return metrics, bases
