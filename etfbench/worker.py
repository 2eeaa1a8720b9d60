"""One workload process: set-up, then a closed loop of ops, one at a time.

Started by ``run.py`` with a fresh interpreter for every run, so the
process-level caches, ``peak_rss_mb`` and the set-up time belong to this
workload alone.  Prints one JSON object as its last line of stdout.

Modes:
  setup    import etfkit and generate the inputs, report the time, exit
  measure  set-up, then whole passes over the ops until --seconds elapsed
           and at least MIN_PASSES are done
  trace    set-up under a tracer that also traces the leaf arithmetic, then
           alternate untraced and traced passes until --seconds elapsed,
           and report per-layer metrics
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up starts before etfkit is imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

# an op that runs longer than this fails and the run moves on
OP_TIME_LIMIT_S = 30.0
# a measured run makes at least this many passes, however long they take;
# op_tail_s is the percentile with ten ops beyond it in this many passes,
# which is 10 / 4 = 2.5 ops from the top of a pass: the middle of the third
# slowest op's times, away from the edges where one op's times meet the next
MIN_PASSES = 4


class OpTimeout(BaseException):
    """Raised inside an op that exceeds OP_TIME_LIMIT_S (not an Exception,
    so no handler in the library can swallow it)."""


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIME_LIMIT_S} s")


def _import_etfkit():
    """Import etfkit from this checkout's src/ and nowhere else."""
    if not (SRC_DIR / "etfkit" / "__init__.py").is_file():
        raise SystemExit(f"etfbench: no etfkit sources under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import etfkit

    if Path(etfkit.__file__).resolve().parent != (SRC_DIR / "etfkit").resolve():
        raise SystemExit(f"etfbench: imported etfkit from {etfkit.__file__}, not {SRC_DIR}")
    return etfkit


def run_op(op, call=None, pass_no: int = 0):
    """Time one op of pass ``pass_no`` and check its verdict:
    (seconds, signature, failure)."""
    if op.prepare is not None:
        op.prepare(pass_no)
    signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT_S)
    start = time.perf_counter()
    try:
        signature = call(op.run) if call is not None else op.run()
        failure = None
    except (Exception, OpTimeout) as exc:  # a raise is a failed op, not a crash
        signature, failure = None, f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    if failure is None:
        if op.collect is not None:
            signature = op.collect(signature)
        failure = op.check(signature)
    return elapsed, signature, failure


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, op, failure):
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"{op.name}: {failure}")

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures[:10]}


def measure(ops, seconds: float) -> dict:
    """Whole passes until ``seconds`` have elapsed and at least MIN_PASSES
    are done; op times per pass."""
    tally, pass_s, op_times = Tally(), [], []
    start = time.perf_counter()
    while len(pass_s) < MIN_PASSES or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        times = []
        for op in ops:
            elapsed, _, failure = run_op(op, pass_no=len(pass_s))
            times.append(elapsed)
            tally.add(op, failure)
        pass_s.append(time.perf_counter() - t)
        op_times.append(times)
    return {"passes": len(pass_s), "ops": [op.name for op in ops],
            "ops_per_pass": len(ops), "loop_s": time.perf_counter() - start,
            "pass_s": pass_s, "op_times": op_times, **tally.as_dict()}


def trace(workload, seed, workdir, seconds: float) -> dict:
    from tracer import Tracer, combine, traced_run_metrics
    from workloads import generate

    setup_tracer = Tracer(hot=True)  # runs once, so it can afford the leaf arithmetic
    with setup_tracer:
        ops = setup_tracer.run_op("setup", lambda: generate(workload, seed, workdir))
    tracer = Tracer()
    tally = Tally()
    plain_s, traced_s, mismatches = [], [], 0
    case_s: dict[str, float] = {}
    kept_cases: set[str] = set()
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < seconds:
        pass_no = len(traced_s)
        t = time.perf_counter()
        plain = [run_op(op, pass_no=pass_no) for op in ops]
        plain_s.append(time.perf_counter() - t)
        t = time.perf_counter()
        traced = []
        with tracer:
            for i, op in enumerate(ops):
                keep = op.case is not None and op.case not in kept_cases
                traced.append(run_op(op, lambda fn, i=i, keep=keep: tracer.run_op(i, fn, keep),
                                     pass_no))
        traced_s.append(time.perf_counter() - t)
        kept_cases.update(op.case for op in ops if op.case)
        for op, (p_elapsed, p_sig, p_fail), (elapsed, sig, fail) in zip(ops, plain, traced):
            tally.add(op, fail)
            tally.add(op, p_fail)
            if p_sig != sig:
                mismatches += 1
                tally.failures.append(f"{op.name}: traced verdict {sig} != untraced {p_sig}")
            if op.case:
                case_s[op.case] = case_s.get(op.case, 0.0) + elapsed
    n = len(traced_s)
    stats, counts = combine(setup_tracer, tracer, n)
    metrics = traced_run_metrics(stats, counts, plain_s, traced_s, case_s, n)
    return {
        "passes": n, "ops_per_pass": len(ops),
        "untraced_pass_s": plain_s, "traced_pass_s": traced_s,
        "verdict_mismatches": mismatches,
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "by_name": {k: {"calls": v[0], "self_s": v[1], "raised": v[2]}
                    for k, v in sorted(stats.items())},
        "case_spans": tracer.spans,
        "ops": [op.name for op in ops],
        **tally.as_dict(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    etfkit = _import_etfkit()
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import generate

    workdir = Path(args.workdir)
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.mode == "trace":
        out = trace(args.workload, args.seed, workdir, args.seconds)
    else:
        ops = generate(args.workload, args.seed, workdir)
        out = {"setup_s": time.perf_counter() - _T0}
        if args.mode == "measure":
            out.update(measure(ops, args.seconds))
    import numpy

    out.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "etfkit": etfkit.__version__,
    })
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
