"""The four benchmark workloads: input generation, ops, expected verdicts.

A workload is built in two steps, both inside the worker process:

* ``generate(name, seed, workdir)`` runs the family constructors, picks a
  seed-chosen translate of every instance by an element of its fine (or
  forbidden) subgroup, picks the characters gamma, and, for ``cli-frames``,
  writes the set files.  This is the timed set-up.
* The returned ``Op`` list is one *pass*.  Every op rebuilds its group and
  subset from plain element lists, so it pays for the per-group cached
  tables exactly as a fresh CLI invocation does.

Every op returns a verdict signature; ``Op.check`` compares it with the
verdict fixed by the family theory and returns a failure reason or None.
Translates by subgroup elements keep every verdict, so the expected values
do not depend on the seed.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
from dataclasses import dataclass
from math import gcd, isqrt
from pathlib import Path
from typing import Callable

import etfkit as ek

WORKLOADS = ("certify-large", "exact-conference", "noncyclic-search", "cli-frames")
# cli-frames: the seed picks this many gammas per family, one per pass in turn
GAMMA_VARIANTS = 8


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    case: str | None = None  # ROADMAP baseline case this op contains
    prepare: Callable[[int], None] | None = None  # untimed, before each run; gets the pass number
    collect: Callable[[object], object] | None = None  # untimed, maps run()'s result


# ---------------------------------------------------------------------------
# plain arithmetic on residue tuples (kept out of the library on purpose)


def _translate(elements, h, orders):
    return tuple(tuple((x + y) % n for x, y, n in zip(g, h, orders)) for g in elements)


def _welch_s(d: int, g: int) -> int | None:
    num, den = d * (g - 1), g - d
    if num % den:
        return None
    s = isqrt(num // den)
    return s if s * s == num // den else None


def _order(orders) -> int:
    out = 1
    for n in orders:
        out *= n
    return out


def _char_order(chi, orders) -> int:
    out = 1
    for x, n in zip(chi, orders):
        k = n // gcd(n, x)
        out = out * k // gcd(out, k)
    return out


def _gamma_classes(group, H) -> dict[int, list]:
    """The valid characters (off the annihilator of H) by character order."""
    ann = set(H.annihilator().elements)
    classes: dict[int, list] = {}
    for chi in group.characters:
        if chi not in ann:
            classes.setdefault(_char_order(chi, group.cyclic_orders), []).append(chi)
    return classes


def _gammas_by_order(rng, group, H) -> list:
    """One seed-chosen valid character per character order.  Cost depends
    on the order, so every pass covers each order once and the seed picks
    which character stands for it."""
    classes = _gamma_classes(group, H)
    return [rng.choice(classes[k]) for k in sorted(classes)]


def _top_order_gammas(rng, group, H, count: int) -> list:
    """``count`` seed-chosen valid characters of the largest order, distinct
    while the class has that many.  Characters of one order still differ in
    cost by up to 1.6x in exact arithmetic, so a pass takes the next one
    rather than every pass paying for the same draw."""
    classes = _gamma_classes(group, H)
    top = classes[max(classes)]
    picks = rng.sample(top, min(count, len(top)))
    return [picks[i % len(picks)] for i in range(count)]


# ---------------------------------------------------------------------------
# verdict signatures and checks


def _classify_signature(cert) -> tuple:
    fine = cert.fine_subgroup.elements if cert.fine_subgroup is not None else None
    return (cert.is_ds, cert.lam, cert.welch_s, cert.is_fine, cert.amalgam,
            cert.is_composite, fine)


def _expect_classify(orders, size, amalgam: bool, composite: bool):
    g = _order(orders)
    lam = size * (size - 1) // (g - 1)
    s = _welch_s(size, g)

    def check(sig) -> str | None:
        is_ds, got_lam, got_s, fine, got_amalgam, got_composite, _ = sig
        want = (True, lam, s, True, amalgam, composite)
        got = (is_ds, got_lam, got_s, fine, got_amalgam, got_composite)
        return None if got == want else f"classify verdict {got} != {want}"

    return check


def _conference_signature(report) -> tuple:
    return (report.size, report.passed, report.exact_zero_diagonal,
            report.exact_unimodular, report.exact_autocorrelation)


def _check_conference_pass(sig) -> str | None:
    _, passed, z, u, a = sig
    if not passed:
        return "conference matrix failed verification"
    if not (z and u and a):
        return f"exact flags disagree with the float verdict: {(z, u, a)}"
    return None


# ---------------------------------------------------------------------------
# certify-large


def _certify_large(rng, workdir):
    instances = []
    for q in (23, 29, 41, 47):
        fam = ek.tpp_complement(q)
        d, g = fam.D.size, fam.group.order
        s = _welch_s(d, g)
        instances.append((f"tpp q={q}", fam, (d * d) % s**3 == 0, False,
                          "tpp_q23.classify" if q == 23 else None))
    for q, j in ((7, 2), (3, 3), (2, 4)):
        fam = ek.singer_complement(q, j)
        instances.append((f"singer q={q} j={j}", fam, True, True, None))
    ops = []
    for label, fam, amalgam, composite, case in instances:
        orders = fam.group.cyclic_orders
        els = _translate(fam.D.elements, rng.choice(fam.H.elements), orders)
        ops.append(Op(
            f"classify {label}",
            _classify_op(orders, els),
            _expect_classify(orders, len(els), amalgam, composite),
            case,
        ))
    return ops


def _classify_op(orders, els):
    def run():
        G = ek.group_new(orders)
        return _classify_signature(ek.classify(ek.subset(G, els)))
    return run


# ---------------------------------------------------------------------------
# exact-conference


def _exact_conference(rng, workdir):
    ops = []
    for q in (11, 13, 16, 17):
        sr = ek.simplicial_rds_quadratic(q)
        orders, K = sr.group.cyclic_orders, sr.K.elements
        els = _translate(sr.A.elements, rng.choice(K), orders)
        for gamma in _gammas_by_order(rng, sr.group, sr.K):
            ops.append(Op(f"srds q={q} gamma={gamma}",
                          _conference_op(orders, els, K, gamma, "srds"),
                          _check_conference_pass, "srds.verify_conference"))
        if q in (11, 13):
            ops.append(Op(f"exact fourier srds q={q}",
                          _fourier_op(orders, els, K), _check_true))
    for q, j in ((3, 2), (4, 2)):
        sc = ek.singer_complement(q, j)
        orders, H = sc.group.cyclic_orders, sc.H.elements
        h = rng.choice(H)
        d_els = _translate(sc.D.elements, h, orders)
        a_els = _translate(sc.A.elements, h, orders)
        for gamma in _gammas_by_order(rng, sc.group, sc.H):
            for route, els in (("amalgam", d_els), ("srds", a_els)):
                ops.append(Op(f"singer q={q} j={j} {route} gamma={gamma}",
                              _conference_op(orders, els, H, gamma, route),
                              _check_conference_pass))
    return ops


def _conference_op(orders, els, h_els, gamma, route):
    def run():
        G = ek.group_new(orders)
        X, H = ek.subset(G, els), ek.Subgroup(G, h_els)
        build = ek.conference_from_srds if route == "srds" else ek.conference_from_amalgam
        return _conference_signature(ek.verify_conference(build(X, H, gamma)))
    return run


def _fourier_op(orders, els, k_els):
    """Exact Fourier certification of a simplicial RDS(q+1, q-1, q, 1):
    |DFT(chi_A)|^2 is q^2 at 0, q - (q-1) on the annihilator of K, q off it."""
    def run():
        G = ek.group_new(orders)
        A, K = ek.subset(G, els), ek.Subgroup(G, k_els)
        spectrum = ek.dft(A.indicator())
        ann = set(ek.annihilator(K).elements)
        d, h = A.size, K.order
        for chi, value in spectrum.items():
            want = d * d if chi == G.zero else (d - h if chi in ann else d)
            if not (value.abs_squared() - want).is_zero():
                return False
        return True
    return run


def _check_true(ok) -> str | None:
    return None if ok is True else "exact Fourier pattern check failed"


# ---------------------------------------------------------------------------
# noncyclic-search


def _noncyclic_search(rng, workdir):
    ops = []
    for q, j, k_orders in ((2, 3, (2, 2, 2)), (2, 3, (4, 2)), (2, 3, (2, 4)),
                           (2, 3, (8,)), (4, 2, (2, 3)), (4, 2, (3, 2)), (4, 2, (6,))):
        fam = ek.mcfarland(q, j, k_orders)
        orders = fam.group.cyclic_orders
        els = _translate(fam.D.elements, rng.choice(fam.H.elements), orders)
        case = "mcfarland_2_3_222.classify" if k_orders == (2, 2, 2) else None
        ops.append(Op(
            f"classify mcfarland q={q} j={j} K={k_orders}",
            _classify_op(orders, els),
            _expect_classify(orders, len(els), False, False),
            case,
        ))
    return ops


# ---------------------------------------------------------------------------
# cli-frames


def _cli_frames(rng, workdir: Path):
    from etfkit import cli

    sets_dir, out_root = workdir / "sets", workdir / "out"
    families = {
        "singer_2_2": ek.singer_complement(2, 2),
        "singer_2_3": ek.singer_complement(2, 3),
        "singer_4_2": ek.singer_complement(4, 2),
        "tpp_11": ek.tpp_complement(11),
        "tpp_17": ek.tpp_complement(17),
        "mcfarland_2_3": ek.mcfarland(2, 3),
    }
    paths, gammas = {}, {}
    for name, fam in families.items():
        orders = fam.group.cyclic_orders
        h = rng.choice(fam.H.elements)
        payload = {
            "schema_version": 1,
            "group": {"cyclic_orders": list(orders)},
            "elements": [list(g) for g in _translate(fam.D.elements, h, orders)],
            "subgroup": [list(g) for g in fam.H.elements],
        }
        paths[name] = str(sets_dir / f"{name}.json")
        cli.write_json(Path(paths[name]), payload)
        gammas[name] = [str(fam.group.characters.index(gamma)) for gamma
                        in _top_order_gammas(rng, fam.group, fam.H, GAMMA_VARIANTS)]
    seed = str(rng.randrange(2**31))

    # (argv, expected exit code, report file name, report check, gammas);
    # "{gamma}" in argv and the report name stands for the pass's gamma
    specs = [
        (["construct", "singer", "--q", "2", "--j", "2"], 0, "singer_q2_j2.report.json",
         _cert_flags(True, True, True)),
        (["construct", "tpp", "--q", "11"], 0, "tpp_q11.report.json",
         _cert_flags(True, True, False)),
        (["construct", "mcfarland", "--q", "2", "--j", "3"], 0, "mcfarland_q2_j3.report.json",
         _cert_flags(True, False, False)),
        (["construct", "srds", "--q", "5"], 0, "srds_q5.report.json", _srds_params(6, 4, 5, 1)),
    ]
    expected_cert = {
        "singer_2_2": (True, True, True), "singer_2_3": (True, True, True),
        "singer_4_2": (True, True, True), "tpp_11": (True, True, False),
        "tpp_17": (True, False, False), "mcfarland_2_3": (True, False, False),
    }
    for name, flags in expected_cert.items():
        specs.append((["classify", paths[name]], 0, "classify.report.json", _cert_flags(*flags)))
    for name, emit, fmt in (
        ("singer_2_2", "synthesis", "json"), ("singer_2_3", "synthesis", "json"),
        ("singer_4_2", "synthesis", "csv"), ("tpp_11", "synthesis", "csv"),
        ("tpp_17", "synthesis", "csv"), ("mcfarland_2_3", "synthesis", "json"),
        ("singer_2_2", "gram", "json"),
        ("singer_2_2", "psi", "json"), ("tpp_11", "psi", "csv"),
        ("singer_4_2", "phi-gamma", "json"),
        ("singer_2_2", "e-gamma", "json"), ("singer_4_2", "e-gamma", "json"),
        ("mcfarland_2_3", "e-gamma", "csv"),
    ):
        argv = ["frame", paths[name], "--emit", emit, "--format", fmt]
        if emit.endswith("-gamma"):
            specs.append((argv + ["--gamma", "{gamma}"], 0,
                          f"frame_{emit.replace('-', '_')}{{gamma}}.report.json",
                          _frame_written, gammas[name]))
        else:
            specs.append((argv, 0, f"frame_{emit}.report.json", _frame_written))
    for name, check, code in (
        ("singer_2_2", "etf", 0), ("singer_2_3", "etf", 0), ("singer_4_2", "etf", 0),
        ("tpp_11", "etf", 0), ("mcfarland_2_3", "etf", 0),
        ("singer_2_3", "ectff", 0), ("tpp_11", "ectff", 0), ("mcfarland_2_3", "ectff", 0),
        ("singer_2_2", "eitff", 0), ("singer_2_3", "eitff", 0), ("tpp_11", "eitff", 0),
        ("tpp_17", "eitff", 1), ("mcfarland_2_3", "eitff", 1),
        ("singer_2_2", "triple", 0), ("singer_4_2", "triple", 0),
    ):
        specs.append((["verify", paths[name], "--check", check, "--seed", seed], code,
                      f"verify_{check}.report.json", _passed(code == 0)))
    for name, code in (("singer_2_2", 0), ("singer_4_2", 0), ("tpp_11", 0),
                       ("tpp_17", 1), ("mcfarland_2_3", 1)):
        specs.append((["verify", paths[name], "--check", "conference", "--gamma", "{gamma}"],
                      code, "verify_conference.report.json", _conference_report(code == 0),
                      gammas[name]))
    specs.append((["conference", paths["singer_2_2"], "--source", "amalgam", "--all-gammas"],
                  0, "conference.report.json", _conference_all))
    specs.append((["conference", paths["singer_4_2"], "--source", "amalgam",
                   "--gamma", "{gamma}", "--format", "csv"],
                  0, "conference.report.json", _conference_all, gammas["singer_4_2"]))

    ops = []
    for i, (argv, code, report_name, check_report, *variants) in enumerate(specs):
        out_dir = out_root / f"op{i:02d}"
        ops.append(_cli_op(cli, argv + ["--out-dir", str(out_dir)], code,
                           str(out_dir / report_name), check_report,
                           variants[0] if variants else [""]))
    return ops


def _cli_op(cli, argv, code, report_name: str, check_report, gammas) -> Op:
    """Pass i runs ``argv`` with the i-th gamma (cyclically) in place of
    "{gamma}"."""
    chosen: dict = {}

    def prepare(pass_no):
        gamma = gammas[pass_no % len(gammas)]
        chosen["argv"] = [a.replace("{gamma}", gamma) for a in argv]
        chosen["report"] = Path(report_name.replace("{gamma}", gamma))
        with contextlib.suppress(FileNotFoundError):
            chosen["report"].unlink()

    def run():
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return cli.main(chosen["argv"])

    def collect(rc):
        report_path = chosen["report"]
        report = json.loads(report_path.read_text()) if report_path.exists() else None
        return rc, report

    def check(result) -> str | None:
        rc, report = result
        if rc != code:
            return f"exit code {rc}, expected {code}"
        if report is None:
            return "no report written"
        return check_report(report)

    label = " ".join(Path(a).stem if a.endswith(".json") else a for a in argv[:-2])
    return Op(f"cli {label}", run, check, prepare=prepare, collect=collect)


def _srds_params(*want):
    def check(report) -> str | None:
        p = report["rds_params"]
        got = (p["m"], p["h"], p["d"], p["lambda"])
        return None if got == want else f"rds parameters {got} != {want}"
    return check


def _cert_flags(fine, amalgam, composite):
    def check(report) -> str | None:
        c = report["certificate"]
        got = (c["is_difference_set"], c["is_fine"], c["is_amalgam"], c["is_composite"])
        want = (True, fine, amalgam, composite)
        return None if got == want else f"certificate flags {got} != {want}"
    return check


def _frame_written(report) -> str | None:
    path = Path(report["outputs"]["matrix"])
    return None if path.exists() and path.stat().st_size > 0 else "matrix file missing"


def _passed(want: bool):
    def check(report) -> str | None:
        return None if report["passed"] is want else f"passed={report['passed']}, want {want}"
    return check


def _exact_agrees(result: dict) -> bool:
    exact = (result["exact_zero_diagonal"], result["exact_unimodular"],
             result["exact_autocorrelation"])
    return all(exact) == result["passed"]


def _conference_report(want: bool):
    def check(report) -> str | None:
        if report["passed"] is not want:
            return f"passed={report['passed']}, want {want}"
        if not _exact_agrees(report["result"]):
            return "exact flags disagree with the float verdict"
        return None
    return check


def _conference_all(report) -> str | None:
    if report["passed"] is not True:
        return f"passed={report['passed']}, want True"
    if not all(_exact_agrees(m["result"]) for m in report["matrices"]):
        return "exact flags disagree with the float verdict"
    return None


# ---------------------------------------------------------------------------


_GENERATORS = {
    "certify-large": _certify_large,
    "exact-conference": _exact_conference,
    "noncyclic-search": _noncyclic_search,
    "cli-frames": _cli_frames,
}


def generate(name: str, seed: int, workdir: Path) -> list[Op]:
    """One pass of ops for the workload; the same seed gives the same ops."""
    return _GENERATORS[name](random.Random(f"{name}:{seed}"), workdir)

