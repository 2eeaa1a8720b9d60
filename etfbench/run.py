#!/usr/bin/env python3
"""etfkit benchmark: one workload, one seed, one run.

    python3 etfbench/run.py --workload certify-large --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout and imports etfkit from its ``src/``.  Each
run starts fresh worker processes (``worker.py``) pinned to one BLAS/OpenMP
thread: a closed loop with one client, one op at a time.

--trace 0  prints the end-to-end metrics: setup_s (median of three fresh
           set-ups), ops_per_s, op_p50_s, op_tail_s and peak_rss_mb, plus
           error_rate in the summary lines.
--trace 1  runs the same ops alternately untraced and traced, and prints the
           per-layer metrics, the tracing overhead and the baseline-case
           timings; the spans and per-function table go to
           ``.etfbench/trace-<workload>-seed<seed>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every op's verdict is checked
against the family theory; a raise, a wrong verdict, an exact/float
disagreement or an op over its time limit counts as a failed op.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import MIN_PASSES, OP_TIME_LIMIT_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("certify-large", "exact-conference", "noncyclic-search", "cli-frames")
SETUP_REPEATS = 3
SETUP_ALLOWANCE_S = 20.0  # per worker, for importing etfkit and generating inputs
PINNED_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "PYTHONHASHSEED": "0",
}


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by the modified Lentz
    evaluation of its continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(10_000):
        m = i // 2
        if i == 0:
            term = 1.0
        elif i % 2 == 0:
            term = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            term = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + term * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + term / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-14:
            return front * (f - 1.0)
    raise ArithmeticError("incomplete beta did not converge")


def percentile(sorted_values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile: a Beta-weighted mean
    of all order statistics.  Op times come in blocks, one per op, and a
    single order statistic (the textbook percentile) jumps with whichever
    sample of one op sits at its rank; the weighted mean moves less."""
    n = len(sorted_values)
    a, b = (n + 1) * p / 100.0, (n + 1) * (1 - p / 100.0)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], sorted_values))


def tail_percentile(ops_per_pass: int) -> float:
    """The highest percentile with at least ten ops beyond it in MIN_PASSES
    passes.  It depends only on the workload's ops per pass, and every run
    makes at least MIN_PASSES passes, so at least ten ops lie beyond its rank
    however fast the code is."""
    return 100.0 * max(0.5, 1.0 - 10.0 / (ops_per_pass * MIN_PASSES))


class Runner:
    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        # every worker's set-up, the measured loop, and its last pass or op
        self.deadline_s = (SETUP_REPEATS * SETUP_ALLOWANCE_S + 2 * args.seconds
                           + OP_TIME_LIMIT_S)
        self.env = {**os.environ, **PINNED_ENV}
        self.env.pop("ETFKIT_CAP", None)
        self.workdir = ROOT / ".etfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"

    def worker(self, mode: str) -> dict:
        a = self.args
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--mode", mode,
               "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--workdir", str(self.workdir)]
        left = self.deadline_s - (time.monotonic() - self.start)
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            raise SystemExit(f"etfbench: {mode} worker exceeded the "
                             f"{self.deadline_s:.0f} s deadline")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"etfbench: {mode} worker exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def record(args, out: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "python": out["python"], "numpy": out["numpy"],
        "etfkit": out["etfkit"], "passes": out["passes"], "ops_per_pass": out["ops_per_pass"],
        "failures": out["failures"],
    }


def end_to_end(runner: Runner):
    args = runner.args
    out = runner.worker("measure")
    setups = [out["setup_s"]] + [runner.worker("setup")["setup_s"]
                                 for _ in range(SETUP_REPEATS - 1)]
    times = sorted(t for pass_times in out["op_times"] for t in pass_times)
    tail_p = tail_percentile(out["ops_per_pass"])
    tail_s = percentile(times, tail_p)
    beyond = sum(t > tail_s for t in times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (out["attempted"] / out["loop_s"], "1/s"),
        "op_p50_s": (percentile(times, 50.0), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }
    error_rate = out["failed"] / out["attempted"]
    rec = record(args, out)
    rec.update({
        "setup_runs_s": setups, "loop_s": out["loop_s"], "pass_s": out["pass_s"],
        "op_tail": {"percentile": tail_p, "ops": len(times), "ops_beyond": beyond},
        "op_median_s": dict(zip(out["ops"], map(statistics.median, zip(*out["op_times"])))),
        "error_rate": error_rate,
    })
    print(f"etfbench {args.workload} seed={args.seed} nproc={rec['nproc']} "
          f"python={rec['python']} numpy={rec['numpy']}")
    notes = {
        "setup_s": f"median of {len(setups)} fresh set-ups",
        "ops_per_s": f"{out['attempted']} ops in {out['loop_s']:.2f} s, {out['passes']} passes",
        "op_tail_s": f"p{tail_p:g} of {len(times)} ops, {beyond} beyond it",
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:12.6g} {unit:<6} {notes.get(name, '')}")
    print(f"  {'error_rate':<12} {error_rate:12.6g} {'ratio':<6} "
          f"{out['failed']} failed of {out['attempted']} attempted")
    return out, rec, metrics


def traced(runner: Runner):
    args = runner.args
    out = runner.worker("trace")
    rec = record(args, out)
    rec.update({
        "untraced_pass_s": out["untraced_pass_s"], "traced_pass_s": out["traced_pass_s"],
        "verdict_mismatches": out["verdict_mismatches"],
    })
    metrics = {k: (v["value"], v["unit"]) for k, v in out["per_layer"].items()}
    print(f"etfbench {args.workload} seed={args.seed} trace=1 nproc={rec['nproc']} "
          f"python={rec['python']} numpy={rec['numpy']} "
          f"(one set-up plus one pass of {out['ops_per_pass']} ops, "
          f"averaged over {out['passes']} traced passes)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:14.6g} {unit}")
    path = ROOT / ".etfbench" / f"trace-{args.workload}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    spans = [{"name": n, "start": s, "end": e, "parent": p, "op": out["ops"][o]}
             for n, s, e, p, o in out["case_spans"]]
    path.write_text(json.dumps({"record": rec, "per_layer": out["per_layer"],
                                "by_name": out["by_name"], "case_spans": spans}, indent=1))
    print(f"  spans and per-function table: {path.relative_to(ROOT)}")
    return out, rec, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "etfkit" / "__init__.py").is_file():
        print(f"etfbench: no etfkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args)
    try:
        out, rec, metrics = (traced if args.trace else end_to_end)(runner)
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    correct = out["failed"] == 0 and rec.get("verdict_mismatches", 0) == 0
    print(json.dumps({"record": rec}))
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
