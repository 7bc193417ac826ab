"""Self-tests of the served-discovery benchmark.

Each test runs ``perfbench/run.py`` in a subprocess on the ``tiny`` scale
(a lake that indexes in well under a second) and checks the result line
against ``BENCHMARK.json``.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*arguments: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *arguments],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_line(completed: subprocess.CompletedProcess) -> dict:
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def units(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in CONTRACT[section]}


@pytest.mark.parametrize("workload", ["union-warm", "join-cold", "churn"])
def test_tiny_lake_pass(workload):
    completed = bench("--workload", workload, "--seed", "3", "--seconds", "2",
                      "--trace", "0", "--scale", "tiny")
    assert completed.returncode == 0, completed.stderr
    result = result_line(completed)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == units(
        "end_to_end"
    )
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_tiny_traced_pass():
    completed = bench("--workload", "churn", "--seed", "4", "--seconds", "2",
                      "--trace", "1", "--scale", "tiny")
    assert completed.returncode == 0, completed.stderr
    result = result_line(completed)
    assert result["correct"] is True
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == units(
        "per_layer"
    )
    metrics = result["metrics"]
    # Churn writes during the traced phase, so the write path was traced.
    assert metrics["indexes.mutate_ms"]["value"] > 0
    assert metrics["trace.mean_latency_ms"]["value"] > 0
    assert "(unattributed)" in completed.stdout


def test_wrong_answer_is_rejected():
    completed = bench("--workload", "union-warm", "--seed", "5", "--seconds", "2",
                      "--trace", "0", "--scale", "tiny", "--inject-wrong-answer")
    assert completed.returncode != 0
    assert result_line(completed)["correct"] is False
    assert "correctness gate failed: 1 mismatched keys" in completed.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("--workload", "union-warm", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
