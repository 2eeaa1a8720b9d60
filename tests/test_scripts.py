"""Smoke tests: the example scripts run end to end and report no failure."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/demo_z15.py"],
        ["scripts/run_sweeps.py", "--tpp", "3,5", "--singer", "2:2", "--srds", "2,3"],
    ],
    ids=lambda argv: Path(argv[0]).stem,
)
def test_script_runs_without_failures(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert "FAIL" not in done.stdout


def test_demo_prints_the_same_under_python_O():
    # -O strips assert statements; the exact checks and their output must not change
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    runs = [
        subprocess.run([sys.executable, *flags, "scripts/demo_z15.py"], cwd=ROOT, env=env,
                       capture_output=True, text=True, timeout=300)
        for flags in ([], ["-O"])
    ]
    assert [r.returncode for r in runs] == [0, 0], runs[1].stderr
    assert runs[1].stdout == runs[0].stdout


def test_ladder_runs_a_small_rung_in_a_fresh_process():
    done = subprocess.run(
        [sys.executable, "scripts/ladder.py", "--src", str(ROOT), "--rung", "singer_2_2_gram_json",
         "--timeout", "120"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    rung, = json.loads(done.stdout.splitlines()[-1])["rungs"]
    assert rung["rung"] == "singer_2_2_gram_json" and rung["outcome"] == "ok"
    assert rung["wall_s"] > 0 and rung["maxrss_mb"] > 0
