"""Tier-1 wiring of the benchmark smoke checks (``benchmarks/bench_smoke.py``).

Benchmark regressions — a refactor dropping a tracked series from
``BENCH_hot_paths.json``, a floor constant vanishing, the batched query
engine diverging from its oracle — should fail the test suite, not wait for
the next manual benchmark run.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SMOKE_PATH = REPO_ROOT / "benchmarks" / "bench_smoke.py"


@pytest.fixture(scope="module")
def bench_smoke():
    spec = importlib.util.spec_from_file_location("bench_smoke", SMOKE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestQuickMode:
    def test_quick_mode_passes(self, bench_smoke):
        assert bench_smoke.run_quick() == []

    def test_cli_entry_point_passes(self):
        result = subprocess.run(
            [sys.executable, str(SMOKE_PATH), "--quick"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            timeout=300,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "passed" in result.stdout


class TestSchemaValidation:
    def test_recorded_payload_is_valid(self, bench_smoke):
        payload = json.loads(
            (REPO_ROOT / "BENCH_hot_paths.json").read_text(encoding="utf-8")
        )
        assert bench_smoke.validate_hot_paths_payload(payload) == []

    def test_missing_tracked_series_is_detected(self, bench_smoke):
        payload = json.loads(
            (REPO_ROOT / "BENCH_hot_paths.json").read_text(encoding="utf-8")
        )
        del payload["results"][-1]["batched_query"]
        problems = bench_smoke.validate_hot_paths_payload(payload)
        assert any("batched_query" in problem for problem in problems)

    def test_empty_results_are_detected(self, bench_smoke):
        problems = bench_smoke.validate_hot_paths_payload(
            {key: None for key in bench_smoke.TOP_LEVEL_KEYS} | {"results": []}
        )
        assert problems

    def test_floors_are_tracked(self, bench_smoke):
        assert bench_smoke._check_floors() == []


class TestServingRecord:
    @pytest.fixture()
    def payload(self):
        return json.loads(
            (REPO_ROOT / "BENCH_hot_paths.json").read_text(encoding="utf-8")
        )

    def test_missing_serving_section_is_detected(self, bench_smoke, payload):
        del payload["serving"]
        problems = bench_smoke.validate_hot_paths_payload(payload)
        assert any("serving" in problem for problem in problems)

    def test_missing_latency_percentile_is_detected(self, bench_smoke, payload):
        del payload["serving"]["closed_loop"]["latency_ms"]["p99"]
        problems = bench_smoke.validate_serving_section(payload)
        assert any("p99" in problem for problem in problems)

    def test_recorded_run_clears_the_throughput_floor(self, bench_smoke, payload):
        assert bench_smoke._check_recorded_serving_floor(payload) == []

    def test_throughput_regression_is_detected(self, bench_smoke, payload):
        payload["serving"]["closed_loop"]["qps"] = 0.01
        problems = bench_smoke._check_recorded_serving_floor(payload)
        assert any("floor" in problem for problem in problems)

    def test_unverified_responses_are_detected(self, bench_smoke, payload):
        payload["serving"]["responses_identical"] = False
        problems = bench_smoke._check_recorded_serving_floor(payload)
        assert any("identical" in problem for problem in problems)

class TestStaticAnalysisGate:
    def test_shipped_tree_is_clean(self, bench_smoke):
        assert bench_smoke._check_static_analysis() == []

    def test_seeded_rule_violation_fails_the_smoke(
        self, bench_smoke, tmp_path, monkeypatch
    ):
        bad = tmp_path / "src" / "core" / "execution.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "def shard(tables):\n    return [name for name in set(tables)]\n"
        )
        monkeypatch.setattr(bench_smoke, "REPO_ROOT", tmp_path)
        problems = bench_smoke._check_static_analysis()
        assert any("R2" in problem for problem in problems)

    def test_seeded_lint_problem_fails_the_smoke(
        self, bench_smoke, tmp_path, monkeypatch
    ):
        bad = tmp_path / "src" / "mod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import os\n\nVALUE = 1\n")
        monkeypatch.setattr(bench_smoke, "REPO_ROOT", tmp_path)
        problems = bench_smoke._check_static_analysis()
        assert any("imported but unused" in problem for problem in problems)


class TestIncrementalMutationRecord:
    @pytest.fixture()
    def payload(self):
        return json.loads(
            (REPO_ROOT / "BENCH_hot_paths.json").read_text(encoding="utf-8")
        )

    def test_missing_mutation_section_is_detected(self, bench_smoke, payload):
        del payload["incremental_mutation"]
        problems = bench_smoke.validate_hot_paths_payload(payload)
        assert any("incremental_mutation" in problem for problem in problems)

    def test_missing_speedup_key_is_detected(self, bench_smoke, payload):
        del payload["incremental_mutation"]["speedup"]
        problems = bench_smoke.validate_incremental_mutation_section(payload)
        assert any("speedup" in problem for problem in problems)

    def test_recorded_run_clears_the_add_floor(self, bench_smoke, payload):
        assert bench_smoke._check_recorded_mutation_floor(payload) == []

    def test_speedup_regression_is_detected(self, bench_smoke, payload):
        payload["incremental_mutation"]["speedup"] = 1.5
        problems = bench_smoke._check_recorded_mutation_floor(payload)
        assert any("floor" in problem for problem in problems)

    def test_unverified_state_is_detected(self, bench_smoke, payload):
        payload["incremental_mutation"]["state_identical"] = False
        problems = bench_smoke._check_recorded_mutation_floor(payload)
        assert any("identical" in problem for problem in problems)
