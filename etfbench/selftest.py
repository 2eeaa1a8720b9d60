#!/usr/bin/env python3
"""Self-test of the benchmark's tracing and result contract.

    python3 etfbench/selftest.py

Checks, for the set-up and one pass of every workload (seed ``SEED``):

1. no call escapes a wrapper: with the tracer installed, no module namespace
   or class still binds an original traced function, and a profiler count of
   calls to each original equals the tracer's span count for it.  The set-up
   is checked under ``Tracer(hot=True)`` and the pass under ``Tracer()``, as
   the worker traces them;
2. the traced and untraced passes give identical verdicts, all correct;
3. within every op, the self times the tracer adds up per function (the
   numbers the per-layer metrics come from) sum to the op's traced wall
   time, and every span lies inside its parent's;
4. uninstalling restores every original;
5. the workload and metric names match BENCHMARK.json;

and that ``run.py`` exits non-zero, printing no result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.  Exits 1 on any
failure.
"""

from __future__ import annotations

import inspect
import json
import shutil
import signal
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from worker import _import_etfkit, _on_alarm, run_op  # noqa: E402

_import_etfkit()
import run  # noqa: E402
from tracer import Tracer, discover, traced_run_metrics  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SEED = 7
FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        FAILURES.append(what)


def _bound_functions():
    """Every function reachable as a module attribute or class member of the
    etfkit package, with where it was found."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "etfkit" or mod_name.startswith("etfkit.")):
            continue
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj):
                yield f"{mod_name}.{attr}", obj
            elif inspect.isclass(obj) and obj.__module__.startswith("etfkit"):
                for name, member in vars(obj).items():
                    fn = getattr(member, "func", None) or getattr(member, "__func__", None) \
                        or (member if inspect.isfunction(member) else None)
                    if fn is not None:
                        yield f"{mod_name}.{attr}.{name}", fn


def escape_bindings(originals: set) -> list[str]:
    return [where for where, fn in _bound_functions() if fn in originals]


def nesting_errors(spans) -> int:
    """Spans that do not lie inside their parent span."""
    return sum(1 for _, start, end, parent, _ in spans
               if parent >= 0 and not spans[parent][1] <= start <= end <= spans[parent][2])


class Coverage:
    """Install ``tracer`` and profile the calls to the originals of its
    targets, to compare with its span counts."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.targets = discover(tracer.hot)
        self.originals = {fn for _, _, _, _, fn in self.targets}
        # one function can be bound under two names (``__radd__ = __add__``)
        self.quals: dict = {}
        for qual, _, _, _, fn in self.targets:
            self.quals.setdefault(fn.__code__, set()).add(qual)
        self.profiled: Counter = Counter()
        self.residuals: list[float] = []  # per op: self-time sum - op wall time

    def run_op(self, op_id, fn):
        stats = self.tracer.stats
        before = sum(s[1] for s in stats.values())
        root = len(self.tracer.spans)
        try:
            return self.tracer.run_op(op_id, fn, keep_spans=True)
        finally:
            _, start, end, _, _ = self.tracer.spans[root]
            self.residuals.append(sum(s[1] for s in stats.values()) - before - (end - start))

    def _profile(self, frame, event, arg):
        if event == "call" and frame.f_code in self.quals:
            self.profiled[frame.f_code] += 1

    def __enter__(self):
        self.tracer.install()
        self.escaped = escape_bindings(self.originals)
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        self.tracer.uninstall()

    def missed(self) -> dict:
        out = {}
        for code, quals in self.quals.items():
            spans = sum(self.tracer.stats[q][0] for q in quals if q in self.tracer.stats)
            if self.profiled[code] != spans:
                out["/".join(sorted(quals))] = (self.profiled[code], spans)
        return out


def coverage_checks(what: str, cov: Coverage) -> None:
    check(not cov.escaped,
          f"{what}: no namespace binds an unwrapped original {cov.escaped[:5]}")
    restored = {fn for _, fn in _bound_functions() if hasattr(fn, "__wrapped__")
                and fn.__wrapped__ in cov.originals}
    check(not restored, f"{what}: uninstall restores every original")
    missed = cov.missed()
    check(not missed, f"{what}: every call to a traced function went through its "
                      f"wrapper (profiler vs span counts) {dict(list(missed.items())[:5])}")
    worst = max(map(abs, cov.residuals))
    check(worst < 1e-6, f"{what}: self times add up to each op's wall time "
                        f"(worst {worst:.2e} s)")
    bad = nesting_errors(cov.tracer.spans)
    check(not bad, f"{what}: every span lies inside its parent ({bad} do not)")


def workload_checks(name: str, workdir: Path) -> None:
    setup = Coverage(Tracer(hot=True))
    with setup:
        ops = setup.run_op("setup", lambda: generate(name, SEED, workdir))
    coverage_checks(f"{name} set-up", setup)

    plain = [run_op(op) for op in ops]
    check(all(f is None for _, _, f in plain),
          f"{name}: untraced verdicts correct "
          f"{[op.name for op, (_, _, f) in zip(ops, plain) if f][:3]}")

    passes = Coverage(Tracer())
    with passes:
        traced = [run_op(op, lambda fn, i=i: passes.run_op(i, fn)) for i, op in enumerate(ops)]
    coverage_checks(f"{name} pass", passes)
    check([s for _, s, _ in plain] == [s for _, s, _ in traced],
          f"{name}: traced and untraced verdicts identical")
    check(all(f is None for _, _, f in traced), f"{name}: traced verdicts correct")


def names_match_spec() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(list(run.WORKLOADS) == list(WORKLOADS)
          == [w["name"] for w in spec["workloads"]],
          "workload names match BENCHMARK.json")
    layer = traced_run_metrics(defaultdict(lambda: [0, 0, 0]), {}, [1.0], [1.0], {}, 1)
    check(list(layer) == [m["name"] for m in spec["per_layer"]],
          "per-layer metric names match BENCHMARK.json")
    check([m["name"] for m in spec["end_to_end"]]
          == ["setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb"],
          "end-to-end metric names match BENCHMARK.json")


def bare_directory() -> None:
    bare = ROOT / ".etfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "etfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "etfbench/run.py", "--workload", "certify-large",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"run.py fails without etfkit sources (exit {proc.returncode})")


def main() -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = ROOT / ".etfbench" / "selftest"
    try:
        for name in WORKLOADS:
            workload_checks(name, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    names_match_spec()
    bare_directory()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
