"""Outside-in tracing of the etfkit layers, from the benchmark's own files.

``Tracer.install()`` replaces every traced function of the layer modules
with a wrapper that records a span, at *every* module namespace that binds
it (``designs.convolve`` as well as ``groups.convolve``, ``cli.classify_set``
as well as ``classify.classify``), and ``uninstall()`` puts the originals
back.  Nothing under ``src/`` changes.

A span is (name, start, end, parent, op id).  Spans are aggregated as they
close: calls, self time (duration minus the time covered by child spans) and
raised exceptions per traced name, plus a few counts taken from arguments
and results at the same boundary.  Full span records are kept for the ops
selected with ``keep_spans``.  Because every span's self time is its
duration minus its children's durations, the self times inside an op add up
to the op's own span.

Traced: the public functions and methods of each layer, the dunders written
in the layer's own source (``Cyclotomic.__mul__``/``__add__``/``__init__``,
where the Fraction arithmetic happens, ``Subgroup.__post_init__``, ...)
except ``__repr__`` and ``__hash__``, and the private helpers in ``EXTRA``.
The leaf arithmetic in ``HOT`` (field and group element operations, root of
unity products) is traced only by a ``Tracer(hot=True)``, which the worker
uses for the one-off set-up: there it is where ``fields`` and ``groups``
spend their time, while in the timed passes it is called hundreds of
thousands of times and spans would cost more than the work.  In a pass its
time is its caller's self time: field arithmetic in ``cli construct``
counts to ``designs.family.self_s``, not ``fields.self_s``.

Not traced, on purpose: other private helpers (their time is their
caller's self time), generator functions (they return before doing any
work) and dataclass-generated methods.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("groups", "cyclotomic", "fields", "designs", "classify",
          "matrices", "frames", "conference", "cli")

# leaf arithmetic: traced only by a Tracer(hot=True), else part of its caller
HOT = {
    "groups.AbelianGroup.add", "groups.AbelianGroup.neg", "groups.AbelianGroup.sub",
    "groups.AbelianGroup.scale", "groups.AbelianGroup.element_order",
    "groups.AbelianGroup.char_exponent", "groups.AbelianGroup.char_value",
    "groups.AbelianGroup.contains", "groups.AbelianGroup.index_of",
    "groups.Subgroup.contains", "groups.IntVector.indicator",
    "groups.IntVector.delta", "groups.IntVector.ones", "groups.IntVector.dense",
    "groups.IntVector.__getitem__", "groups.IntVector.__post_init__",
    "fields.FiniteField.add", "fields.FiniteField.sub", "fields.FiniteField.neg",
    "fields.FiniteField.mul", "fields.FiniteField.pow", "fields.FiniteField.inv",
    "fields.FiniteField.from_int", "fields.FiniteField.encode",
    "cyclotomic.Cyclotomic.zero", "cyclotomic.Cyclotomic.from_rational",
    "cyclotomic.Cyclotomic.root", "cyclotomic.Cyclotomic.rescale",
    "cyclotomic.Cyclotomic.conjugate",
    "cyclotomic.RootOfUnity.conjugate", "cyclotomic.RootOfUnity.rescale",
    "cyclotomic.RootOfUnity.is_one", "cyclotomic.RootOfUnity.as_cyclotomic",
    "cyclotomic.RootOfUnity.__mul__", "cyclotomic.RootOfUnity.__post_init__",
    "cyclotomic.RootOfUnity.__complex__",
    "designs.GroupSubset.indicator", "designs.GroupSubset.contains",
    "matrices.ComplexMatrix.row_index", "matrices.ComplexMatrix.col_index",
    "matrices.ComplexMatrix.entry",
}

# dunders that do no layer work
SKIPPED_DUNDERS = {"__repr__", "__hash__"}

# non-public attributes that carry layer work the metrics need
EXTRA = {
    "groups.AbelianGroup._sub_table", "groups.AbelianGroup._index",
    "fields.FiniteField._dlog_table", "cli._emit_report",
}


def _modules():
    return {layer: importlib.import_module(f"etfkit.{layer}") for layer in LAYERS}


def _wanted(qualname: str, attr: str, fn, module, hot: bool) -> bool:
    if qualname in HOT:
        return hot
    if qualname in EXTRA:
        return True
    if attr.startswith("__") and attr.endswith("__"):
        # written in the layer's source, not generated by @dataclass
        return (attr not in SKIPPED_DUNDERS
                and fn.__code__.co_filename == module.__file__)
    return not attr.startswith("_")


def discover(hot: bool = False):
    """Traced targets as (qualname, owner, attr, kind, function); owner is a
    module or a class and kind says how the function is stored there.
    ``hot`` adds the leaf arithmetic in ``HOT``."""
    targets = []
    for layer, mod in _modules().items():
        for attr, obj in vars(mod).items():
            qual = f"{layer}.{attr}"
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                if _wanted(qual, attr, obj, mod, hot) and not inspect.isgeneratorfunction(obj):
                    targets.append((qual, mod, attr, "function", obj))
            elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                  and not attr.startswith("_")):
                for name, member in vars(obj).items():
                    cqual = f"{qual}.{name}"
                    if isinstance(member, functools.cached_property):
                        kind, fn = "cached_property", member.func
                    elif isinstance(member, (classmethod, staticmethod)):
                        kind, fn = type(member).__name__, member.__func__
                    elif inspect.isfunction(member) and not inspect.isgeneratorfunction(member):
                        kind, fn = "function", member
                    else:
                        continue
                    if _wanted(cqual, name, fn, mod, hot):
                        targets.append((cqual, obj, name, kind, fn))
    return targets


def _rewrap(kind, fn, owner, attr):
    if kind == "cached_property":
        prop = functools.cached_property(fn)
        prop.__set_name__(owner, attr)
        return prop
    if kind == "classmethod":
        return classmethod(fn)
    if kind == "staticmethod":
        return staticmethod(fn)
    return fn


# ---------------------------------------------------------------------------
# counts taken at the boundary (called with the positional args and the result)


def _count_convolve(tr, args, result):
    x, y = args[0], args[1]
    tr.counts["groups.convolve.pairs"] += len(x.values) * len(y.values)


def _count_table(tr, args, result):
    tr.counts["groups.table_bytes"] += result.nbytes


def _count_from_cells(tr, args, result):
    cells = result.shape[0] * result.shape[1]
    tr.counts["matrices.cells_built"] += cells
    if result.exact is None:
        tr.counts["matrices.cells_dropped"] += cells


def _count_matmul(tr, args, result):
    if result.exact is not None:
        tr.counts["matrices.matmul.exact_calls"] += 1


def _count_written(tr, args, result):
    tr.counts["cli.bytes_written"] += len(args[1].encode())


def _count_subgroups(tr, args, result):
    if tr.inside("classify.is_fine"):
        tr.counts["classify.is_fine.subgroups"] += len(result)


def _count_certify(tr, args, result):
    if tr.inside("classify.classify"):
        tr.counts["classify.classify.certify_calls"] += 1


HOOKS = {
    "groups.convolve": _count_convolve,
    "groups.AbelianGroup.character_table": _count_table,
    "groups.AbelianGroup._sub_table": _count_table,
    "matrices.from_cells": _count_from_cells,
    "matrices.ComplexMatrix.__matmul__": _count_matmul,
    "cli.write_atomic": _count_written,
    "groups.subgroups_of_order": _count_subgroups,
    "designs.certify_difference_set": _count_certify,
}


# ---------------------------------------------------------------------------


class Tracer:
    def __init__(self, hot: bool = False):
        self.hot = hot
        self.stats = defaultdict(lambda: [0, 0.0, 0])  # name -> [calls, self_s, raised]
        self.counts = defaultdict(int)
        self.spans: list[tuple] = []  # (name, start, end, parent, op id)
        self._stack: list[list] = []  # [name, child time, span index]
        self._keep = False
        self._op = None
        self._installed: list[tuple] = []

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        mods = list(_modules().values()) + [sys.modules["etfkit"]]
        for qual, owner, attr, kind, fn in discover(self.hot):
            original_member = vars(owner)[attr]
            wrapper = self._wrap(qual, fn)
            setattr(owner, attr, _rewrap(kind, wrapper, owner, attr))
            self._installed.append((owner, attr, original_member))
            if kind == "function" and inspect.ismodule(owner):
                # every other module namespace that imported the same object
                for mod in mods:
                    for name, val in list(vars(mod).items()):
                        if val is fn and (mod, name) != (owner, attr):
                            setattr(mod, name, wrapper)
                            self._installed.append((mod, name, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans ---------------------------------------------------------------
    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack
        stats = self.stats[name]
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0, tracer._open(name) if tracer._keep else -1]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, result)
            except BaseException:
                stats[2] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if frame[2] >= 0:
                    tracer._close(frame[2], start, end)
            return result

        return wrapper

    def _open(self, name) -> int:
        parent = self._stack[-1][2] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self._op))
        return len(self.spans) - 1

    def _close(self, index, start, end) -> None:
        name, _, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, end, parent, op)

    def run_op(self, op_id, fn, keep_spans: bool = False):
        """Run ``fn`` as one op under a root span ``bench.op``."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        self._op, self._keep = op_id, keep_spans
        frame = ["bench.op", 0.0, self._open("bench.op") if keep_spans else -1]
        self._stack.append(frame)
        stats = self.stats["bench.op"]
        start = time.perf_counter()
        try:
            return fn()
        except BaseException:
            stats[2] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            stats[0] += 1
            stats[1] += duration - frame[1]
            if frame[2] >= 0:
                self._close(frame[2], start, end)
            self._op, self._keep = None, False


# ---------------------------------------------------------------------------
# per-layer metrics


def combine(setup: Tracer, passes: Tracer, n_passes: int):
    """Stats and counts for one set-up plus one pass: set-up spans counted
    once, pass spans averaged over the traced passes."""
    stats: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0.0])
    for tracer, weight in ((setup, 1.0), (passes, 1.0 / n_passes)):
        for name, (calls, self_s, raised) in tracer.stats.items():
            acc = stats[name]
            acc[0] += calls * weight
            acc[1] += self_s * weight
            acc[2] += raised * weight
    counts: dict[str, float] = defaultdict(float)
    for tracer, weight in ((setup, 1.0), (passes, 1.0 / n_passes)):
        for name, value in tracer.counts.items():
            counts[name] += value * weight
    return stats, counts


FUSION_CHECKS = ("frames.ectff_check", "frames.eitff_check", "frames.triple_product_check",
                 "frames.unbiased_simplices_check", "frames.coset_isometries")
FAMILIES = ("designs.singer_complement", "designs.tpp_complement", "designs.mcfarland",
            "designs.simplicial_rds_quadratic")
CLI_IO = ("cli.write_atomic", "cli.write_json", "cli.dumps", "cli.write_set", "cli.set_to_dict",
          "cli.read_set", "cli.write_matrix", "cli.write_matrix_csv", "cli.write_matrix_json",
          "cli.matrix_to_json", "cli.read_matrix_json", "cli.read_matrix_csv", "cli._emit_report")


# ROADMAP baseline cases the workloads contain (``Op.case`` labels)
CASES = ("tpp_q23.classify", "srds.verify_conference", "mcfarland_2_3_222.classify")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats, counts) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name, as (value, unit)."""

    def calls(*names):
        return sum(stats[n][0] for n in names if n in stats)

    def self_s(*names):
        return sum(stats[n][1] for n in names if n in stats)

    def layer(prefix, column):
        return sum(v[column] for n, v in stats.items() if n.split(".")[0] == prefix)

    built, dropped = counts.get("matrices.cells_built", 0), counts.get("matrices.cells_dropped", 0)
    out = {
        "groups.convolve.calls": (calls("groups.convolve"), "count"),
        "groups.convolve.self_s": (self_s("groups.convolve"), "s"),
        "groups.convolve.pairs": (counts.get("groups.convolve.pairs", 0), "count"),
        "groups.table_bytes": (counts.get("groups.table_bytes", 0), "bytes_computed"),
        "groups.character_table.self_s": (self_s("groups.AbelianGroup.character_table"), "s"),
        "groups.dft_numeric.self_s": (self_s("groups.dft_numeric"), "s"),
        "groups.subgroups_of_order.calls": (calls("groups.subgroups_of_order"), "count"),
        "groups.subgroups_of_order.self_s": (self_s("groups.subgroups_of_order"), "s"),
        "groups.annihilator.self_s": (
            self_s("groups.annihilator", "groups.Subgroup.annihilator"), "s"),
        "groups.cosets.self_s": (
            self_s("groups.cosets", "groups.Subgroup.cosets", "groups.Subgroup.coset_rep"), "s"),
        "groups.dft.calls": (calls("groups.dft"), "count"),
        "groups.dft.self_s": (self_s("groups.dft"), "s"),
        "cyclotomic.canonical.calls": (calls("cyclotomic.Cyclotomic.canonical"), "count"),
        "cyclotomic.canonical.self_s": (self_s("cyclotomic.Cyclotomic.canonical"), "s"),
        "cyclotomic.is_zero.calls": (calls("cyclotomic.Cyclotomic.is_zero"), "count"),
        "conference.build.calls": (
            calls("conference.conference_from_amalgam", "conference.conference_from_srds"),
            "count"),
        "conference.build.self_s": (
            self_s("conference.conference_from_amalgam", "conference.conference_from_srds"),
            "s"),
        "conference.verify_conference.calls": (calls("conference.verify_conference"), "count"),
        "conference.verify_conference.self_s": (self_s("conference.verify_conference"), "s"),
        "designs.certify_difference_set.calls": (
            calls("designs.certify_difference_set"), "count"),
        "designs.certify_difference_set.self_s": (
            self_s("designs.certify_difference_set"), "s"),
        "designs.certify_rds.calls": (calls("designs.certify_rds"), "count"),
        "designs.certify_rds.self_s": (self_s("designs.certify_rds"), "s"),
        "designs.family.self_s": (self_s(*FAMILIES), "s"),
        "classify.certify_per_classify": (
            _ratio(counts.get("classify.classify.certify_calls", 0), calls("classify.classify")),
            "ratio"),
        "classify.subgroups_per_is_fine": (
            _ratio(counts.get("classify.is_fine.subgroups", 0), calls("classify.is_fine")),
            "ratio"),
        "classify.classify.self_s": (self_s("classify.classify"), "s"),
        "classify.is_fine.self_s": (self_s("classify.is_fine"), "s"),
        "classify.is_amalgam.self_s": (self_s("classify.is_amalgam"), "s"),
        "classify.is_composite.self_s": (self_s("classify.is_composite"), "s"),
        "matrices.cells_built": (built, "count"),
        "matrices.cells_dropped": (dropped, "count"),
        "matrices.exact_kept_ratio": (_ratio(built - dropped, built), "ratio"),
        "matrices.from_cells.self_s": (self_s("matrices.from_cells"), "s"),
        "matrices.matmul.calls": (calls("matrices.ComplexMatrix.__matmul__"), "count"),
        "matrices.matmul.exact_calls": (counts.get("matrices.matmul.exact_calls", 0), "count"),
        "matrices.matmul.self_s": (self_s("matrices.ComplexMatrix.__matmul__"), "s"),
        "frames.harmonic_synthesis.self_s": (self_s("frames.harmonic_synthesis"), "s"),
        "frames.e_gamma.calls": (calls("frames.e_gamma"), "count"),
        "frames.principal_angles.calls": (calls("frames.principal_angles"), "count"),
        "frames.principal_angles.self_s": (self_s("frames.principal_angles"), "s"),
        "frames.fusion_checks.self_s": (self_s(*FUSION_CHECKS), "s"),
        "fields.dlog.calls": (calls("fields.FiniteField.dlog"), "count"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.io.self_s": (self_s(*CLI_IO), "s"),
        "cli.bytes_written": (counts.get("cli.bytes_written", 0), "bytes"),
        "bench.op.self_s": (self_s("bench.op"), "s"),
    }
    for prefix in LAYERS:
        out[f"{prefix}.self_s"] = (layer(prefix, 1), "s")
        out[f"{prefix}.raised"] = (layer(prefix, 2), "count")
    return out


def traced_run_metrics(stats, counts, plain_pass_s, traced_pass_s, case_s, passes):
    """Every per-layer metric of a traced run: the layer metrics, the
    tracing overhead per pass, and the traced op time of each baseline case
    per pass."""
    out = layer_metrics(stats, counts)
    plain = statistics.median(plain_pass_s)
    overhead = statistics.median(traced_pass_s) - plain
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_ratio"] = (overhead / plain, "ratio")
    out["trace.spans"] = (sum(v[0] for v in stats.values()), "count")
    for case in CASES:
        out[f"case.{case}_s"] = (case_s.get(case, 0.0) / passes, "s")
    return out
