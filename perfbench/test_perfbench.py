"""Tests of the benchmark itself: every path runs, and checks do fire.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import inputs
import pytest
import run
import serve_mix

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")


@pytest.fixture(autouse=True)
def _at_root(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.chdir(ROOT)


def test_quick_mode_runs_every_workload_traced_and_untraced(
    capsys: pytest.CaptureFixture[str],
) -> None:
    assert run.main(["--all", "--quick", "--seconds", "3"]) == 0
    out = capsys.readouterr().out
    for name in run.WORKLOADS:
        assert f"tracing overhead on {name}" in out
    for metric in run.END_TO_END:
        assert metric in out


def _declared(kind: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"] for metric in json.load(handle)[kind]}


def test_result_lines_carry_exactly_the_declared_metrics(
    capsys: pytest.CaptureFixture[str],
) -> None:
    argv = ["--workload", "lint_cli", "--seed", "3", "--seconds", "1", "--quick"]
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        assert run.main([*argv, "--trace", trace]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == _declared(kind)
    layers = result["metrics"]
    assert layers["lint.diagnose_calls"]["value"] > 0
    assert layers["lp.compact_calls"]["value"] == 0


@pytest.mark.parametrize(
    "workload,owner,attr,wrong,label",
    [
        ("lint_cli", inputs, "PUBLISHED_TC",
         {"example1": 111.0, "gaas": 4.4}, "lint example1"),
        ("design_cli", inputs, "PUBLISHED_TC",
         {"example1": 110.0, "gaas": 4.5}, "minimize gaas"),
        ("serve_mix", serve_mix, "example1_nrip_tc",
         lambda delta: max(100.0, 40.0 + delta) + 1.0, "baseline nrip"),
    ],
)
def test_wrong_reference_is_reported_as_failure(
    monkeypatch: pytest.MonkeyPatch, workload: str, owner: object, attr: str,
    wrong: object, label: str,
) -> None:
    monkeypatch.setattr(owner, attr, wrong)
    outcome = run.run_workload(workload, seed=5, seconds=2, trace=False, quick=True)
    assert outcome.failed >= 1
    assert all(error.startswith(label) for error in outcome.errors)
    result = run.report(workload, 5, 2, False, outcome)
    assert result["correct"] is False
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_refuses_to_run_without_the_program(tmp_path: os.PathLike[str]) -> None:
    shutil.copytree(HERE, os.path.join(tmp_path, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design_cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
