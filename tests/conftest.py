"""Shared fixtures: small deterministic corpora and indexed engines.

Expensive fixtures (generated corpora, indexed engines) are session-scoped so
that the many tests touching them pay the construction cost once.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.core.config import D3LConfig
from repro.core.discovery import D3L
from repro.datagen.real_benchmark import RealBenchmarkConfig, generate_real_benchmark
from repro.datagen.synthetic_benchmark import (
    SyntheticBenchmarkConfig,
    generate_synthetic_benchmark,
)
from repro.lake.datalake import DataLake
from repro.tables.table import Table


def _untracked_children() -> set:
    """PIDs of live child processes not owned by a tracked executor pool."""
    from repro.core.execution import live_worker_pids

    tracked = live_worker_pids()
    return {
        process.pid
        for process in multiprocessing.active_children()
        if process.pid not in tracked
    }


@pytest.fixture(autouse=True)
def no_fanout_leaks():
    """Fail any test that leaks shared-memory segments or child processes.

    Suite-wide leak audit over the zero-copy fan-out machinery (grown out of
    ``tests/core`` once the CLI and the serving tier started owning the same
    resources): leaks in the snapshot or pool lifecycle fail tier-1
    immediately instead of accumulating in ``/dev/shm`` across runs.

    Both checks diff against the state before the test, so pre-existing
    debris (other processes' segments, module-scoped engines holding live
    pools — whose workers are tracked via ``live_worker_pids``) never
    produces false positives.  Child-process teardown is given a short grace
    period: garbage-collection finalizers reap pools with ``wait=False``.
    """
    from repro.core.shared import stray_segments

    segments_before = set(stray_segments())
    children_before = _untracked_children()
    yield
    leaked_segments = set(stray_segments()) - segments_before
    assert not leaked_segments, (
        f"test leaked shared-memory segments: {sorted(leaked_segments)}"
    )
    deadline = time.monotonic() + 5.0
    leaked_children = _untracked_children() - children_before
    while leaked_children and time.monotonic() < deadline:
        time.sleep(0.05)
        leaked_children = _untracked_children() - children_before
    assert not leaked_children, (
        f"test leaked child processes: {sorted(leaked_children)}"
    )


@pytest.fixture(scope="session")
def fast_config() -> D3LConfig:
    """A configuration small enough for unit tests but structurally faithful."""
    return D3LConfig(num_hashes=128, num_trees=8, min_candidates=25, embedding_dimension=32)


@pytest.fixture(scope="session")
def figure1_tables() -> dict:
    """The tables of Figure 1 in the paper (the GP-practices running example)."""
    source_1 = Table.from_dict(
        "gp_practices_s1",
        {
            "Practice Name": ["Dr E Cullen", "Blackfriars", "Radclife Care", "Bolton Medical"],
            "Address": ["51 Botanic Av", "1a Chapel St", "9 Mirabel St", "21 Rupert St"],
            "City": ["Belfast", "Salford", "Manchester", "Bolton"],
            "Postcode": ["BT7 1JL", "M3 6AF", "M3 1NN", "BL3 6PY"],
            "Patients": ["1202", "3572", "2209", "1840"],
        },
    )
    source_2 = Table.from_dict(
        "gp_funding_s2",
        {
            "Practice": ["The London Clinic", "Blackfriars", "Radclife Care", "Bolton Medical"],
            "City": ["London", "Salford", "Manchester", "Bolton"],
            "Postcode": ["W1G 6BW", "M3 6AF", "M26 2SP", "BL3 6PY"],
            "Payment": ["73648", "15530", "20981", "17764"],
        },
    )
    source_3 = Table.from_dict(
        "local_gps_s3",
        {
            "GP": ["Blackfriars", "Radclife Care", "Bolton Medical"],
            "Location": ["Salford", "-", "Bolton"],
            "Opening hours": ["08:00-18:00", "07:00-20:00", "08:00-16:00"],
        },
    )
    target = Table.from_dict(
        "gps_target",
        {
            "Practice": ["Radclife", "Bolton Medical", "Blackfriars"],
            "Street": ["69 Church St", "21 Rupert St", "1a Chapel St"],
            "City": ["Manchester", "Bolton", "Salford"],
            "Postcode": ["M26 2SP", "BL3 6PY", "M3 6AF"],
            "Hours": ["07:00-20:00", "08:00-16:00", "08:00-18:00"],
        },
    )
    return {
        "target": target,
        "sources": [source_1, source_2, source_3],
        "lake": DataLake("figure1", [source_1, source_2, source_3]),
    }


@pytest.fixture(scope="session")
def small_synthetic_benchmark():
    """A small Synthetic corpus (6 base tables x 5 derived tables)."""
    config = SyntheticBenchmarkConfig(
        num_base_tables=6,
        tables_per_base=5,
        base_rows=80,
        min_rows=20,
        max_rows=60,
        seed=7,
    )
    return generate_synthetic_benchmark(config)


@pytest.fixture(scope="session")
def small_real_benchmark():
    """A small real-world-style corpus (6 families x 5 tables)."""
    config = RealBenchmarkConfig(
        num_families=6,
        tables_per_family=5,
        min_rows=20,
        max_rows=50,
        dirtiness=0.35,
        seed=11,
    )
    return generate_real_benchmark(config)


@pytest.fixture(scope="session")
def indexed_d3l(small_synthetic_benchmark, fast_config):
    """A D3L engine indexed over the small Synthetic corpus."""
    engine = D3L(config=fast_config)
    engine.index_lake(small_synthetic_benchmark.lake)
    return engine


@pytest.fixture(scope="session")
def indexed_d3l_real(small_real_benchmark, fast_config):
    """A D3L engine indexed over the small real-world-style corpus."""
    engine = D3L(config=fast_config)
    engine.index_lake(small_real_benchmark.lake)
    return engine


@pytest.fixture(scope="session")
def figure1_engine(figure1_tables, fast_config):
    """A D3L engine indexed over the Figure 1 lake."""
    engine = D3L(config=fast_config)
    engine.index_lake(figure1_tables["lake"])
    return engine
