"""Pluggable execution backends: the one fleet layer behind every fan-out.

Index builds, query sweeps, SA-join verification and process serving all
run work on worker fleets.  This module owns the one abstraction they share
— *run a pure shard function over a list of payloads against one logical
view of the indexes* — plus the one replica state every process fleet keeps
current.  :class:`ExecutionBackend` is the contract, with three
implementations:

``serial``
    :class:`SerialBackend` — a list comprehension in the calling thread.
    The oracle every other backend is equivalence-tested against.

``thread``
    :class:`ThreadBackend` — a lazily created
    :class:`~concurrent.futures.ThreadPoolExecutor` over the live, shared
    indexes.  No serialization cost, but CPU-bound shard work serialises on
    the GIL.

``process``
    :class:`ProcessBackend` — worker processes attached read-only to a
    :class:`~repro.core.shared.SharedIndexSnapshot` (descriptor shipping,
    ~50 bytes per worker), refreshed after lake mutations by net deltas
    riding on task payloads.  True parallelism; the default for fan-out.

:class:`SnapshotReplica` is the host side of a process fleet's copy of the
indexes: the exported snapshot and its descriptor, the base version it was
exported at, the net delta cached per index version, and the choice between
shipping that delta and re-exporting.  :class:`ProcessBackend` pools and the
process serving tier (:class:`~repro.core.server.DiscoveryServer`) both hold
one; their workers apply shipped deltas through :func:`refresh_replica`.

A shard function is a module-level callable ``fn(indexes, payload)`` — pure
in both arguments.  Backends differ only in *which object* arrives as
``indexes`` (the live object, or a worker-resident attached reconstruction)
and in scheduling; since the function is pure and every caller merges by
key, every backend returns the identical result list for identical
payloads.  Sharding itself (:func:`partition_tables`) is a pure function of
the requested worker count, so ``workers=N`` yields the same shards under
every backend.  ``tests/core/test_execution.py`` sweeps that equivalence.

Lifecycle: every backend is a context manager, ``close()`` is idempotent,
and pooled backends carry a ``weakref.finalize`` backstop so abandoning one
without closing leaks neither worker processes nor ``/dev/shm`` segments.
Process-owning backends (and the process-backend serving tier) register in a
weak set so the leak-audit helper :func:`live_worker_pids` can distinguish
owned workers from strays.
"""

from __future__ import annotations

import os
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.indexes import D3LIndexes
    from repro.core.shared import Descriptor, IndexDelta, SharedIndexSnapshot
    from repro.lake.datalake import AttributeRef

#: The recognised backend kinds, in oracle-first order.
BACKENDS = ("serial", "thread", "process")

#: Largest mutated-table count a worker fleet refreshes via a delta; beyond
#: this, respawning the fleet over a fresh snapshot is cheaper than shipping
#: per-table profiles and signatures with every task or request.
_DELTA_MAX_TABLES = 32

#: Every live owner of worker *processes* in this process (pooled backends
#: and process-backend servers), for the leak-audit helpers
#: (:func:`live_worker_pids`).  Weak so dropped owners vanish from the audit
#: once their finalizer has run.  Owners expose ``worker_pids() -> Set[int]``.
_LIVE_WORKER_OWNERS: "weakref.WeakSet" = weakref.WeakSet()


def register_worker_owner(owner) -> None:
    """Track ``owner`` (weakly) as a holder of worker processes.

    ``owner`` must expose ``worker_pids() -> Set[int]``; the leak audit in
    ``tests/conftest.py`` treats those PIDs as accounted for.
    """
    _LIVE_WORKER_OWNERS.add(owner)


def live_worker_pids() -> Set[int]:
    """PIDs of worker processes owned by live pools and servers."""
    pids: Set[int] = set()
    for owner in list(_LIVE_WORKER_OWNERS):
        pids.update(owner.worker_pids())
    return pids


class IndexReadWriteLock:
    """Many concurrent readers (queries) or one exclusive writer (mutations).

    The thread-serving path answers queries off the engine's *live* indexes,
    so an ``index_table``/``remove_table`` that swaps signature matrices
    mid-query would hand a reader inconsistent array shapes.  Queries enter
    through :func:`repro.core.api.execute` on the read side; the engine's
    mutators take the write side, which waits for in-flight readers to
    drain.  Readers are never parked behind a *waiting* writer, so nested
    read acquisitions on one thread cannot deadlock; mutations are rare and
    bounded, so writer starvation is not a practical serving concern.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writing = False

    def __getstate__(self) -> dict:
        # Lock state never travels: an engine copied across a process
        # boundary (or pickled into a legacy container) starts unlocked.
        return {}

    def __setstate__(self, state: dict) -> None:
        self.__init__()

    @contextmanager
    def read(self):
        with self._condition:
            while self._writing:
                self._condition.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._condition:
                self._readers -= 1
                if not self._readers:
                    self._condition.notify_all()

    @contextmanager
    def write(self):
        with self._condition:
            while self._writing or self._readers:
                self._condition.wait()
            self._writing = True
        try:
            yield
        finally:
            with self._condition:
                self._writing = False
                self._condition.notify_all()


def partition_tables(table_names: Sequence[str], shards: int) -> List[List[str]]:
    """Deal the sorted names round-robin into ``shards`` groups.

    Sorting first makes the partition a pure function of the name set, so
    sharding the same lake (or target) — regardless of the order its tables
    or attributes were added in — always yields the same shards.
    """
    if shards <= 0:
        raise ValueError("shards must be positive")
    ordered = sorted(table_names)
    return [ordered[index::shards] for index in range(shards)]


def _pool_size(requested: int) -> int:
    """Worker count for a pool: the request clamped to the host CPUs.

    Only the *pool* is clamped — shard partitioning stays a pure function of
    the requested worker count, so ``workers=N`` produces identical shards
    (and therefore identical merged results) on any host size.
    """
    return max(1, min(requested, os.cpu_count() or 1))


def _snapshot_descriptor(
    indexes: "D3LIndexes",
) -> Tuple["Descriptor", Optional["SharedIndexSnapshot"]]:
    """A shared snapshot of ``indexes`` plus the descriptor workers attach.

    Falls back to the degraded ``("pickle", indexes)`` descriptor — the old
    ship-a-copy-per-worker behavior — when no shared backing can be created,
    so fan-out keeps working (at the old cost) on hosts without ``/dev/shm``
    or a writable temp directory.
    """
    from repro.core.shared import SharedIndexSnapshot, SharedSnapshotError

    try:
        snapshot = SharedIndexSnapshot.create(indexes)
    except SharedSnapshotError:
        return ("pickle", indexes), None
    return snapshot.descriptor, snapshot


class SnapshotReplica:
    """The host side of one worker fleet's replica of the indexes.

    Owns the exported :class:`~repro.core.shared.SharedIndexSnapshot` and the
    :attr:`descriptor` workers attach, the :attr:`base_version` the snapshot
    was exported at, and the pending :attr:`delta` bringing a worker at that
    base up to the live indexes.  Every delta is computed against the fixed
    base, so one delta is valid for a worker at *any* state between the base
    and the live version — shipping it with every task or request needs no
    barrier across the fleet.  The delta is cached per index version.

    The owner (a :class:`ProcessBackend` pool or a process
    :class:`~repro.core.server.DiscoveryServer`) serialises calls, calls
    :meth:`sync` before shipping work, and re-exports and respawns its
    workers when :meth:`sync` reports that no delta can describe the gap.
    """

    def __init__(self, indexes: "D3LIndexes") -> None:
        self.indexes = indexes
        self.snapshot: Optional["SharedIndexSnapshot"] = None
        self.descriptor: Optional["Descriptor"] = None
        self.base_version: Optional[int] = None
        self.delta: Optional["IndexDelta"] = None

    def export(self) -> "Descriptor":
        """Export the live indexes (releasing any previous snapshot) and
        return the descriptor a fresh fleet attaches."""
        self.close()
        self.descriptor, self.snapshot = _snapshot_descriptor(self.indexes)
        self.base_version = self.indexes.version
        return self.descriptor

    def sync(self) -> bool:
        """Bring :attr:`delta` up to the live index version.

        Returns False when the gap cannot ship as a delta — the base fell
        out of the mutation journal, or more than :data:`_DELTA_MAX_TABLES`
        tables moved — and the fleet must re-export instead.
        """
        version = self.indexes.version
        if version == self.base_version:
            self.delta = None
        elif self.delta is None or self.delta[0] != version:
            from repro.core.shared import build_index_delta

            self.delta = build_index_delta(
                self.indexes, self.base_version, max_tables=_DELTA_MAX_TABLES
            )
            return self.delta is not None
        return True

    def close(self) -> None:
        """Unlink the snapshot and forget the replica state (idempotent)."""
        if self.snapshot is not None:
            self.snapshot.close()
        self.snapshot = self.descriptor = self.base_version = self.delta = None


# --------------------------------------------------------------------------- #
# worker residency
# --------------------------------------------------------------------------- #

#: The pool worker process's resident view of the indexes, attached once by
#: the pool initializer.  Over the shared-memory path this is a read-only
#: reconstruction whose arrays are views into the host's one segment; only
#: under the degraded ``("pickle", ...)`` descriptor is it a private copy.
_WORKER_INDEXES: Optional["D3LIndexes"] = None


def _init_process_worker(descriptor: "Descriptor") -> None:
    """Pool initializer: attach this worker process to the shipped view."""
    global _WORKER_INDEXES
    from repro.core.shared import SharedIndexSnapshot

    _WORKER_INDEXES = SharedIndexSnapshot.attach(descriptor)


def refresh_replica(
    indexes: "D3LIndexes",
    delta: Optional["IndexDelta"],
    on_table: Optional[Callable[[str], None]] = None,
) -> None:
    """Bring a worker-resident replica up to the host's version.

    ``delta`` is a :attr:`SnapshotReplica.delta` (None when the fleet is
    current).  It rides on every task or request rather than being
    broadcast, so each worker applies it once, on its next unit of work;
    a worker already at the target version skips it.  ``on_table`` is
    called with each mutated table's name after the apply — the serving
    worker replays the engine's per-table cache eviction through it.
    """
    if delta is None or indexes.version >= delta[0]:
        return
    from repro.core.shared import apply_index_delta

    apply_index_delta(indexes, delta)
    if on_table is not None:
        for op in delta[1]:
            on_table(op[1])


def _run_process_shard(task):
    """Trampoline for pooled shards: refresh, then run the pure shard fn."""
    fn, delta, payload = task
    refresh_replica(_WORKER_INDEXES, delta)
    return fn(_WORKER_INDEXES, payload)


def value_overlaps(
    indexes: "D3LIndexes", pairs: Sequence[Tuple["AttributeRef", "AttributeRef"]]
) -> Dict[Tuple["AttributeRef", "AttributeRef"], float]:
    """Exact value overlaps of candidate pairs over ``indexes``.

    Also the SA-join verification shard function: the value samples are
    resolved from the indexes' profiles — over the process backend the
    worker-resident attached snapshot — so payloads are bare pair lists.
    """
    from repro.core.profiles import sample_overlap

    profiles = indexes.profiles
    return {
        (left, right): sample_overlap(
            profiles[left].value_sample, profiles[right].value_sample
        )
        for left, right in pairs
    }


def _finalize_pool(pool, snapshot) -> None:
    """Backstop for backends dropped without ``close()``: reap pool, unlink
    segment (worker mappings stay valid through their own exit)."""
    pool.shutdown(wait=False)
    if snapshot is not None:
        snapshot.close()


# --------------------------------------------------------------------------- #
# the backends
# --------------------------------------------------------------------------- #


class ExecutionBackend:
    """One logical view of the indexes plus a way to map shards over it.

    The contract every fan-out call site programs against:

    * :meth:`map_shards` — run a pure module-level ``fn(indexes, payload)``
      over payloads, preserving payload order in the result list;
    * :meth:`verify_overlaps` — the SA-join verification kernel, sharded
      round-robin with the same single-shard short-circuit every backend
      shares (so routing never changes the answer);
    * :attr:`snapshot` — the live shared snapshot backing worker processes
      (None for in-process backends);
    * ``close()`` / context manager — release pools and snapshots
      (idempotent; the backend is reusable afterwards).
    """

    #: The registry name of this backend (overridden per subclass).
    kind = "serial"

    def __init__(self, indexes: "D3LIndexes", workers: int) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.indexes = indexes
        self.workers = workers

    # -- the protocol ---------------------------------------------------- #
    def map_shards(self, fn: Callable, payloads: Sequence) -> List:
        """Run ``fn(indexes, payload)`` for every payload, in payload order."""
        raise NotImplementedError

    def verify_overlaps(
        self, pairs: Sequence[Tuple["AttributeRef", "AttributeRef"]]
    ) -> Dict[Tuple["AttributeRef", "AttributeRef"], float]:
        """Exact value overlaps of candidate pairs over this backend's view.

        Deals the deduplicated pairs round-robin across ``workers``; each
        worker resolves value samples from its view of the indexes, so
        payloads are bare pair lists.  Single-pair (or single-worker) calls
        run :func:`value_overlaps` in-process over the live profiles — the
        result is routing- and backend-independent either way.
        """
        ordered = list(dict.fromkeys(pairs))
        if self.workers <= 1 or len(ordered) <= 1:
            return value_overlaps(self.indexes, ordered)
        shards = [ordered[index :: self.workers] for index in range(self.workers)]
        overlaps: Dict[Tuple["AttributeRef", "AttributeRef"], float] = {}
        for result in self.map_shards(value_overlaps, [shard for shard in shards if shard]):
            overlaps.update(result)
        return overlaps

    @property
    def snapshot(self) -> Optional["SharedIndexSnapshot"]:
        """The live shared snapshot backing workers (None when in-process)."""
        return None

    def close(self) -> None:
        """Release pools and snapshots (idempotent; backend stays usable)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """The oracle: every shard runs inline, in the calling thread."""

    kind = "serial"

    def map_shards(self, fn: Callable, payloads: Sequence) -> List:
        return [fn(self.indexes, payload) for payload in payloads]


class ThreadBackend(ExecutionBackend):
    """Shards scheduled on a lazily created thread pool over the live indexes.

    Today's serving-tier concurrency model made explicit: no serialization,
    no snapshot, shard functions read the one live index object — and
    CPU-bound work serialises on the GIL, which is exactly the ceiling the
    process backend lifts.
    """

    kind = "thread"

    def __init__(self, indexes: "D3LIndexes", workers: int) -> None:
        super().__init__(indexes, workers)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._finalizer: Optional[weakref.finalize] = None

    def map_shards(self, fn: Callable, payloads: Sequence) -> List:
        payloads = list(payloads)
        if len(payloads) <= 1:
            return [fn(self.indexes, payload) for payload in payloads]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=_pool_size(self.workers))
            self._finalizer = weakref.finalize(
                self, ThreadPoolExecutor.shutdown, self._pool, wait=False
            )
        indexes = self.indexes
        return list(self._pool.map(lambda payload: fn(indexes, payload), payloads))

    def close(self) -> None:
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


class ProcessBackend(ExecutionBackend):
    """Shards on worker processes attached to a shared index snapshot.

    The worker pool is created lazily on the first multi-shard map and kept
    alive for the backend's lifetime.  Pool spin-up exports the backend's
    :class:`SnapshotReplica` and ships each worker only the segment
    descriptor (~50 bytes); workers attach read-only array views over the
    one host-resident segment, so N workers cost neither N× index memory nor
    per-pool pickling.  When the index version moves past the snapshot, the
    replica's pending delta rides on every task payload; when no delta can
    describe the gap, the pool and snapshot are recreated.

    ``share_index=False`` skips the replica and ships the given view (a
    profiling clone) to each worker verbatim through the degraded pickle
    descriptor — the mode sharded index builds use, where workers need the
    configuration but not the (still empty) index contents.
    """

    kind = "process"

    def __init__(
        self, indexes: "D3LIndexes", workers: int, share_index: bool = True
    ) -> None:
        super().__init__(indexes, workers)
        self._replica = SnapshotReplica(indexes) if share_index else None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._finalizer: Optional[weakref.finalize] = None
        register_worker_owner(self)

    @property
    def snapshot(self) -> Optional["SharedIndexSnapshot"]:
        """The live shared snapshot backing the pool (None before spin-up or
        under the degraded pickle descriptor)."""
        return self._replica.snapshot if self._replica is not None else None

    def worker_pids(self) -> Set[int]:
        """PIDs of this backend's live worker processes (leak audit)."""
        processes = getattr(self._pool, "_processes", None) if self._pool else None
        return set(processes.keys()) if processes else set()

    def close(self) -> None:
        """Shut the pool down and unlink its snapshot (the backend can be
        reused afterwards — the next fan-out re-creates both)."""
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._replica is not None:
            self._replica.close()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if (
            self._pool is not None
            and self._replica is not None
            and not self._replica.sync()
        ):
            self.close()
        if self._pool is None:
            if self._replica is not None:
                descriptor = self._replica.export()
            else:
                descriptor = ("pickle", self.indexes)
            self._pool = ProcessPoolExecutor(
                max_workers=_pool_size(self.workers),
                initializer=_init_process_worker,
                initargs=(descriptor,),
            )
            # Reap the pool and unlink the segment when the backend is
            # dropped without an explicit close(), so abandoned engines leak
            # neither worker processes nor /dev/shm segments (and do not
            # trip the interpreter-exit wakeup of concurrent.futures on an
            # already-collected pipe).
            self._finalizer = weakref.finalize(
                self, _finalize_pool, self._pool, self.snapshot
            )
        return self._pool

    def map_shards(self, fn: Callable, payloads: Sequence) -> List:
        payloads = list(payloads)
        if len(payloads) <= 1:
            # Single-shard maps run inline against the live view, so
            # one-shard work never pays for pool spin-up.
            return [fn(self.indexes, payload) for payload in payloads]
        pool = self._ensure_pool()
        delta = self._replica.delta if self._replica is not None else None
        tasks = [(fn, delta, payload) for payload in payloads]
        return list(pool.map(_run_process_shard, tasks))


def create_backend(
    kind: str,
    indexes: "D3LIndexes",
    workers: int,
    share_index: bool = True,
) -> ExecutionBackend:
    """The backend factory every dispatching layer funnels through.

    ``kind`` must name a member of :data:`BACKENDS`.  Ownership transfers to
    the caller — close the backend (or use it as a context manager) when the
    fan-out scope ends.
    """
    if kind not in BACKENDS:
        raise ValueError(
            f"unknown backend {kind!r}; valid backends: {', '.join(BACKENDS)}"
        )
    if kind == "serial":
        return SerialBackend(indexes, workers)
    if kind == "thread":
        return ThreadBackend(indexes, workers)
    return ProcessBackend(indexes, workers, share_index=share_index)
