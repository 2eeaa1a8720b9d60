"""Smoke tests: the example scripts run end to end and report no failure."""

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
