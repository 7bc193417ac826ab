"""Self-heal paths of the two process worker fleets.

Both fleets — a ``workers=2`` process fan-out backend and a
``backend="process"`` :class:`~repro.core.server.DiscoveryServer` — keep
their workers current through one :class:`~repro.core.execution.SnapshotReplica`.
When no delta can describe the gap (more than ``_DELTA_MAX_TABLES`` tables
moved, or the base version fell out of the mutation journal) the fleet must
re-export a fresh snapshot and respawn; a serving worker that dies must be
replaced.  Either way answers stay equal to an engine built from scratch,
the old segment is unlinked, and no old worker process survives (the
suite-wide autouse fixture additionally audits segments and children).
"""

import dataclasses
import multiprocessing
import os
import signal
import time

import pytest

from repro.core.api import (
    DiscoverySession,
    QueryRequest,
    execute,
    query_request_to_wire,
)
from repro.core.discovery import D3L
from repro.core.execution import _DELTA_MAX_TABLES
from repro.core.indexes import _MUTATION_LOG_LIMIT
from repro.core.server import DiscoveryServer
from repro.lake.datalake import DataLake

from tests.core.test_batched_query import assert_identical_answers
from tests.core.test_server import _request


def _engine(config, tables):
    engine = D3L(config=config)
    engine.index_lake(DataLake("self-heal", list(tables)))
    return engine


def _overflow_delta(engine, donor):
    """Index more distinct tables than one delta may carry."""
    added = [
        donor.with_name(f"overflow_{index:02d}")
        for index in range(_DELTA_MAX_TABLES + 1)
    ]
    for table in added:
        engine.index_table(table)
    return added


def _overflow_journal(engine, donor):
    """Re-index one table until the base falls out of the journal window."""
    table = donor.with_name("journal_churn")
    for _ in range(_MUTATION_LOG_LIMIT + 1):
        engine.index_table(table)
    return [table]


MUTATIONS = {"delta-overflow": _overflow_delta, "journal-overflow": _overflow_journal}


def _segment_path(descriptor):
    kind, locator = descriptor
    return f"/dev/shm/{locator}" if kind == "shm" else locator


def _children():
    return {process.pid for process in multiprocessing.active_children()}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_fanout_backend_reexports_past_the_delta_window(
    small_synthetic_benchmark, fast_config, mutation
):
    base = small_synthetic_benchmark.lake.tables[:6]
    donor = small_synthetic_benchmark.lake.tables[10]
    engine = _engine(fast_config, base)
    try:
        execute(engine, QueryRequest(target=base[0], k=4, workers=2))
        backend = engine._backends[("process", 2)]
        old_snapshot = backend.snapshot
        old_path = _segment_path(old_snapshot.descriptor)
        old_pids = backend.worker_pids()
        assert old_pids

        added = MUTATIONS[mutation](engine, donor)
        assert not backend._replica.sync()
        request = QueryRequest(target=added[-1], k=4, exclude_self=False, workers=2)
        fanned = execute(engine, request).legacy

        assert backend.snapshot is not old_snapshot
        assert old_snapshot.closed
        assert not os.path.exists(old_path)
        assert backend._replica.base_version == engine.indexes.version
        assert backend._replica.delta is None
        assert not (backend.worker_pids() & old_pids)
        assert not (_children() & old_pids)
        oracle = _engine(fast_config, list(base) + added)
        try:
            assert_identical_answers(
                execute(oracle, dataclasses.replace(request, workers=1)).legacy, fanned
            )
        finally:
            oracle.close()
    finally:
        engine.close()


def _oracle_payload(engine, request):
    with DiscoverySession(engine) as session:
        return session.submit(request).truncated().to_dict()


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_process_server_respawns_past_the_delta_window(
    small_synthetic_benchmark, fast_config, mutation
):
    base = small_synthetic_benchmark.lake.tables[:6]
    donor = small_synthetic_benchmark.lake.tables[10]
    engine = _engine(fast_config, base)
    with DiscoveryServer(engine, port=0, workers=2, backend="process") as server:
        server.submit(QueryRequest(target=base[0], k=4))
        old_snapshot = server._replica.snapshot
        old_path = _segment_path(old_snapshot.descriptor)
        old_pids = server.worker_pids()
        assert len(old_pids) == 2

        added = MUTATIONS[mutation](engine, donor)
        request = QueryRequest(target=added[-1], k=4, exclude_self=False)
        payload = server.submit(request)

        assert old_snapshot.closed
        assert not os.path.exists(old_path)
        assert server._replica.base_version == engine.indexes.version
        new_pids = server.worker_pids()
        assert len(new_pids) == 2
        assert not (new_pids & old_pids)
        assert not (_children() & old_pids)
        assert payload == _oracle_payload(engine, request)
        oracle = _engine(fast_config, list(base) + added)
        try:
            assert payload == _oracle_payload(oracle, request)
        finally:
            oracle.close()


def test_killed_serving_worker_is_replaced(small_synthetic_benchmark, fast_config):
    tables = small_synthetic_benchmark.lake.tables[:6]
    engine = _engine(fast_config, tables)
    requests = [QueryRequest(target=table, k=4) for table in tables[:4]]
    expected = [_oracle_payload(engine, request) for request in requests]
    with DiscoveryServer(engine, port=0, workers=2, backend="process") as server:
        server.start()
        victim = min(server.worker_pids())
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while victim in server.worker_pids() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert victim not in server.worker_pids()

        statuses = []
        for _ in range(2):
            for request, oracle in zip(requests, expected):
                status, payload = _request(
                    server, "POST", "/query", query_request_to_wire(request)
                )
                statuses.append(status)
                if status == 200:
                    assert payload == oracle
        assert statuses.count(500) <= 1
        assert set(statuses) <= {200, 500}
        pids = server.worker_pids()
        assert len(pids) == 2
        assert victim not in pids
    assert victim not in _children()
