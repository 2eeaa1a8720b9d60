#!/usr/bin/env python3
"""Size ladder of the CLI's matrix files, one fresh process per rung.

    python3 scripts/ladder.py --src . [--timeout 120] [--rung singer_2_2_gram_json]

Each rung runs ``python -m etfkit.cli frame SET --emit KIND --format FMT``
with etfkit imported from ``<src>/src``, the checkout that ``--src`` names,
in a process of its own, on a set file that ``construct`` wrote before
(untimed).  Per rung it records the wall time, the child's peak resident
memory (``ru_maxrss`` from ``os.wait4``) and the outcome: ok, timeout
(killed at ``--timeout`` seconds), MemoryError or error.  The last line of
stdout is one JSON object with the rungs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

# name -> (construct arguments, set file, frame --emit, --format)
RUNGS = {
    "singer_2_5_gram_json": (["singer", "--q", "2", "--j", "5"], "singer_q2_j5.json", "gram", "json"),
    "singer_2_5_gram_csv": (["singer", "--q", "2", "--j", "5"], "singer_q2_j5.json", "gram", "csv"),
    "tpp_29_synthesis_json": (["tpp", "--q", "29"], "tpp_q29.json", "synthesis", "json"),
    "tpp_29_synthesis_csv": (["tpp", "--q", "29"], "tpp_q29.json", "synthesis", "csv"),
    "singer_2_2_gram_json": (["singer", "--q", "2", "--j", "2"], "singer_q2_j2.json", "gram", "json"),
}


def measure(src: Path, argv: list[str], timeout: float, cwd: Path) -> dict:
    """Run ``etfkit.cli argv`` in a fresh process: wall time, peak RSS, outcome."""
    env = {**os.environ, "PYTHONPATH": str(src / "src")}
    killed = threading.Event()
    with tempfile.TemporaryFile("w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "etfkit.cli", *argv], cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    if killed.is_set():
        outcome = "timeout"
    elif code == 0:
        outcome = "ok"
    elif "MemoryError" in stderr:
        outcome = "MemoryError"
    else:
        outcome = "error"
    return {"wall_s": round(wall, 3), "maxrss_mb": round(usage.ru_maxrss / 1024, 1),
            "outcome": outcome, "exit_code": code}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path, help="checkout whose src/ is imported")
    parser.add_argument("--timeout", type=float, default=120.0, help="seconds per rung")
    parser.add_argument("--rung", action="append", choices=tuple(RUNGS),
                        help="run only this rung (repeatable); default every rung")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    rungs = []
    with tempfile.TemporaryDirectory(prefix="ladder-") as tmp:
        work = Path(tmp)
        for name in args.rung or RUNGS:
            construct, set_file, emit, fmt = RUNGS[name]
            if not (work / set_file).exists():
                made = measure(src, ["construct", *construct, "--out-dir", str(work)], args.timeout, work)
                if made["outcome"] != "ok":
                    rungs.append({"rung": name, "setup": made, "outcome": "error"})
                    continue
            out_dir = work / name
            argv = ["frame", str(work / set_file), "--emit", emit, "--format", fmt,
                    "--out-dir", str(out_dir)]
            result = measure(src, argv, args.timeout, work)
            rungs.append({"rung": name, **result})
            print(f"{name}: {result['outcome']} in {result['wall_s']} s, "
                  f"{result['maxrss_mb']} MB", file=sys.stderr)
            for path in out_dir.glob("*"):
                path.unlink()
    print(json.dumps({"src": str(src), "python": platform.python_version(), "nproc": os.cpu_count(),
                      "timeout_s": args.timeout, "rungs": rungs}))
    return 0 if all(r["outcome"] == "ok" for r in rungs) else 1


if __name__ == "__main__":
    sys.exit(main())
