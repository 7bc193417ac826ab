"""Driver/CLI behavior of ``repro check``: exit codes, output, wiring.

The crucial acceptance test lives here: the shipped tree is clean under
``--strict`` (exit 0), and a seeded violation in an otherwise identical
tree flips the exit code to 1 — which is exactly how tier-1 (through
``bench_smoke --quick``) turns red on a regression.
"""

import textwrap
from pathlib import Path

from repro.analysis.checker import iter_python_files, main, run_check
from repro.cli import main as cli_main

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def write_tree(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


_VIOLATING = {
    "core/execution.py": """
    def shard(tables):
        return [name for name in set(tables)]
    """
}

_CLEAN = {
    "core/execution.py": """
    def shard(tables):
        return [name for name in sorted(set(tables))]
    """
}


class TestExitCodes:
    def test_shipped_tree_is_strict_clean(self):
        assert main(["--strict", "--lint", str(REPO_SRC)]) == 0

    def test_seeded_violation_turns_strict_red(self, tmp_path, capsys):
        root = write_tree(tmp_path, _VIOLATING)
        assert main(["--strict", str(root)]) == 1
        out = capsys.readouterr()
        assert "R2" in out.out
        assert "1 problem(s)" in out.err

    def test_violations_report_without_strict_exits_zero(self, tmp_path, capsys):
        root = write_tree(tmp_path, _VIOLATING)
        assert main([str(root)]) == 0
        assert "R2" in capsys.readouterr().out

    def test_clean_tree_exits_zero_silently(self, tmp_path, capsys):
        root = write_tree(tmp_path, _CLEAN)
        assert main(["--strict", str(root)]) == 0
        assert capsys.readouterr().out == ""

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nowhere")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_select_limits_rules(self, tmp_path):
        root = write_tree(tmp_path, _VIOLATING)
        assert main(["--strict", "--select", "R3,R4", str(root)]) == 0
        assert main(["--strict", "--select", "r2", str(root)]) == 1

    def test_list_rules_prints_the_table(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("R1", "R2", "R3", "R4", "R5"):
            assert code in out
        assert "scope:" in out


class TestCliWiring:
    def test_repro_check_subcommand(self, tmp_path, capsys):
        root = write_tree(tmp_path, _VIOLATING)
        assert cli_main(["check", "--strict", str(root)]) == 1
        assert "R2" in capsys.readouterr().out
        assert cli_main(["check", "--strict", str(write_tree(tmp_path / "ok", _CLEAN))]) == 0

    def test_repro_check_list_rules(self, capsys):
        assert cli_main(["check", "--list-rules"]) == 0
        assert "determinism" in capsys.readouterr().out


class TestFileWalking:
    def test_iter_python_files_dedups_and_sorts(self, tmp_path):
        root = write_tree(
            tmp_path,
            {"pkg/b.py": "x = 1\n", "pkg/a.py": "y = 2\n", "pkg/data.txt": "no\n"},
        )
        files = iter_python_files([root, root / "pkg" / "a.py"])
        names = [path.name for path in files]
        assert names == ["a.py", "b.py"]

    def test_unparseable_files_are_skipped(self, tmp_path):
        root = write_tree(tmp_path, _CLEAN)
        (root / "core" / "broken.py").write_text("def nope(:\n")
        assert run_check([root]) == []
