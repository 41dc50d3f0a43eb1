"""End-to-end tests for the ``python -m repro.verify`` umbrella CLI."""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
from pathlib import Path

import pytest

from repro.verify.cli import (
    ALL_CODES,
    EFFECT_CODES,
    FLOW_CODES,
    INTERLEAVE_CODES,
    LINT_CODES,
    diff_scope,
    main,
    rule_index,
)
from repro.verify.flow.project import Project

REPO_ROOT = Path(__file__).resolve().parents[2]

MIXED_SOURCE = (
    "import time\n"
    "\n"
    "\n"
    "def stamp():\n"
    "    return time.time()\n"
    "\n"
    "\n"
    "def walk(node):\n"
    "    return walk(node)\n"
)


def run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse error path
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestCodeRouting:
    def test_the_passes_partition_the_codes(self) -> None:
        assert LINT_CODES == {f"REPRO00{i}" for i in range(1, 7)}
        assert FLOW_CODES == {f"REPRO0{i:02d}" for i in range(7, 13)}
        assert EFFECT_CODES == {"REPRO013", "REPRO014", "REPRO015", "REPRO017"}
        assert INTERLEAVE_CODES == {f"REPRO0{i:02d}" for i in range(18, 24)}
        assert not (LINT_CODES & FLOW_CODES)
        assert not (FLOW_CODES & EFFECT_CODES)
        assert not (EFFECT_CODES & INTERLEAVE_CODES)
        assert rule_index().keys() == ALL_CODES

    def test_unknown_select_is_a_usage_error(self, tmp_path) -> None:
        (tmp_path / "m.py").write_text("X = 1\n", encoding="utf-8")
        code, _, _ = run_cli([str(tmp_path), "--select", "REPRO999"])
        assert code == 2


class TestExitContract:
    def test_clean_tree_exits_zero(self, tmp_path) -> None:
        (tmp_path / "clean.py").write_text("X = 1\n", encoding="utf-8")
        code, out, _ = run_cli([str(tmp_path)])
        assert code == 0
        assert "0 finding(s)" in out

    def test_findings_exit_one(self, tmp_path) -> None:
        (tmp_path / "mixed.py").write_text(MIXED_SOURCE, encoding="utf-8")
        code, out, _ = run_cli([str(tmp_path)])
        assert code == 1
        # lint, flow, and effects findings all appear in one report:
        assert "REPRO003" in out  # lint: wall clock
        assert "REPRO007" in out  # flow: recursion
        assert "REPRO014" in out  # effects: seam bypass

    def test_missing_path_is_a_usage_error(self, tmp_path) -> None:
        code, _, _ = run_cli([str(tmp_path / "absent")])
        assert code == 2

    def test_select_restricts_to_one_pass(self, tmp_path) -> None:
        (tmp_path / "mixed.py").write_text(MIXED_SOURCE, encoding="utf-8")
        code, out, _ = run_cli([str(tmp_path), "--select", "REPRO014"])
        assert code == 1
        assert "REPRO014" in out
        assert "REPRO003" not in out and "REPRO007" not in out

    def test_json_format_is_machine_readable(self, tmp_path) -> None:
        (tmp_path / "mixed.py").write_text(MIXED_SOURCE, encoding="utf-8")
        _, out, _ = run_cli([str(tmp_path), "--format", "json"])
        rules = {entry["rule"] for entry in json.loads(out)}
        assert {"REPRO003", "REPRO007", "REPRO014"} <= rules

    def test_output_file(self, tmp_path) -> None:
        (tmp_path / "clean.py").write_text("X = 1\n", encoding="utf-8")
        report = tmp_path / "report.txt"
        code, _, _ = run_cli([str(tmp_path), "--output", str(report)])
        assert code == 0
        assert "0 finding(s)" in report.read_text(encoding="utf-8")

    def test_list_rules_covers_all_passes(self) -> None:
        code, out, _ = run_cli(["--list-rules"])
        assert code == 0
        for probe in ("REPRO001", "REPRO007", "REPRO013", "REPRO017", "REPRO018", "REPRO023"):
            assert probe in out


class TestRepoGates:
    def test_repo_default_run_is_clean(self, monkeypatch) -> None:
        """The umbrella gate CI runs: default roots, zero findings."""
        monkeypatch.chdir(REPO_ROOT)
        code, out, _ = run_cli([])
        assert code == 0, out
        assert "0 finding(s)" in out

    def test_per_pass_entry_points_stay_available(self) -> None:
        import os
        import sys

        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        for module in (
            "repro.verify.lint",
            "repro.verify.flow",
            "repro.verify.effects",
            "repro.verify.interleave",
        ):
            proc = subprocess.run(
                [sys.executable, "-m", module, "--list-rules"],
                capture_output=True,
                text=True,
                cwd=REPO_ROOT,
                env=env,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert "REPRO" in proc.stdout


class TestDiffScope:
    @pytest.fixture()
    def project(self, tmp_path) -> tuple[Project, Path]:
        (tmp_path / "base.py").write_text("X = 1\n", encoding="utf-8")
        (tmp_path / "mid.py").write_text("from base import X\n", encoding="utf-8")
        (tmp_path / "top.py").write_text("import mid\n", encoding="utf-8")
        (tmp_path / "island.py").write_text("Y = 2\n", encoding="utf-8")
        return Project.load([tmp_path]), tmp_path

    def test_scope_includes_transitive_importers(self, project) -> None:
        proj, root = project
        scope = diff_scope(proj, root, {"base.py"})
        assert scope == {"base.py", "mid.py", "top.py"}

    def test_unrelated_modules_stay_out(self, project) -> None:
        proj, root = project
        scope = diff_scope(proj, root, {"island.py"})
        assert scope == {"island.py"}

    def test_non_python_changes_pass_through(self, project) -> None:
        proj, root = project
        scope = diff_scope(proj, root, {"README.md"})
        assert scope == {"README.md"}

    def test_diff_mode_filters_the_report(self, tmp_path) -> None:
        # A repo with two findings; only the changed file's one survives.
        root = tmp_path
        (root / "pyproject.toml").write_text("[project]\nname='t'\n", encoding="utf-8")
        subprocess.run(["git", "init", "-q"], cwd=root, check=True, timeout=60)
        dirty = root / "dirty.py"
        other = root / "other.py"
        dirty.write_text("import time\n\n\ndef a():\n    return time.time()\n", encoding="utf-8")
        other.write_text("import time\n\n\ndef b():\n    return time.time()\n", encoding="utf-8")
        git_env = {
            "PATH": "/usr/bin:/bin:/usr/local/bin",
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@t",
        }
        subprocess.run(["git", "add", "-A"], cwd=root, check=True, env=git_env, timeout=60)
        subprocess.run(
            ["git", "commit", "-qm", "seed"], cwd=root, check=True, env=git_env, timeout=60
        )
        dirty.write_text(
            "import time\n\n\ndef a():\n    x = time.time()\n    return x\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(
            [str(dirty), str(other), "--diff", "HEAD", "--select", "REPRO003"]
        )
        assert code == 1
        assert "dirty.py" in out
        assert "other.py" not in out
        assert "diff mode" in err


class TestWriteBaseline:
    def test_write_baseline_records_all_files(self, tmp_path, monkeypatch) -> None:
        (tmp_path / "pyproject.toml").write_text("[project]\nname='t'\n", encoding="utf-8")
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        # Mutual recursion: a flow-only finding (lint's REPRO004 fast
        # path can't see it), so the rerun exercises baseline subtraction
        # without lint noise (lint has no baseline by design).
        (pkg / "mod.py").write_text(
            "def ping(n):\n"
            "    return pong(n)\n"
            "\n"
            "\n"
            "def pong(n):\n"
            "    return ping(n)\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli([str(pkg), "--write-baseline"])
        assert code == 0
        flow_payload = json.loads(
            (tmp_path / ".flow-baseline.json").read_text(encoding="utf-8")
        )
        effects_payload = json.loads(
            (tmp_path / ".effects-baseline.json").read_text(encoding="utf-8")
        )
        interleave_payload = json.loads(
            (tmp_path / ".interleave-baseline.json").read_text(encoding="utf-8")
        )
        assert len(flow_payload["fingerprints"]) == 1  # the REPRO007 cycle
        assert effects_payload["fingerprints"] == {}
        assert interleave_payload["fingerprints"] == {}
        # A rerun now subtracts the recorded finding and exits clean.
        code, out, _ = run_cli([str(pkg)])
        assert code == 0, out

    def test_write_baseline_records_interleave_findings(self, tmp_path) -> None:
        (tmp_path / "pyproject.toml").write_text(
            "[project]\nname='t'\n", encoding="utf-8"
        )
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "spawny.py").write_text(
            "import asyncio\n"
            "\n"
            "\n"
            "async def work():\n"
            "    await asyncio.sleep(0)\n"
            "\n"
            "\n"
            "async def fires_and_forgets():\n"
            "    asyncio.create_task(work())\n"
            "    await asyncio.sleep(0)\n",
            encoding="utf-8",
        )
        code, _, _ = run_cli([str(pkg), "--select", "REPRO019"])
        assert code == 1
        code, out, _ = run_cli([str(pkg), "--write-baseline"])
        assert code == 0
        payload = json.loads(
            (tmp_path / ".interleave-baseline.json").read_text(encoding="utf-8")
        )
        assert len(payload["fingerprints"]) == 1  # the REPRO019 spawn
        code, out, _ = run_cli([str(pkg), "--select", "REPRO019"])
        assert code == 0, out
