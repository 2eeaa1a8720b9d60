"""Command-line front end: construct, classify, build/verify, export.

Subcommands
-----------
construct   build a named family (singer | tpp | mcfarland | srds) and write
            the set definition plus a JSON report
classify    run the full certification pipeline on a set file or inline set
frame       emit synthesis / gram / phi-gamma / e-gamma / psi matrices
verify      run a named check (etf | ectff | eitff | triple | unbiased |
            conference) and exit 0/1 accordingly
conference  build circulant conference matrices (amalgam or srds route)

Set files are JSON: {schema_version, group: {cyclic_orders}, elements,
display_order?, subgroup?}.  Matrices export as CSV (labels + "re+imi"
entries at 17 significant digits) or JSON with a dual exact representation
{re, im, exact: {num, den, root_exp, root_mod}} whenever an entry is a
rational multiple of a root of unity.  Exit codes: 0 pass, 1 verification
failure, 2 usage or parse error.  ETFKIT_CAP overrides the group-order cap
of the subgroup search in non-cyclic groups.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import conference as conference_mod
from . import designs, frames
from .classify import classify as classify_set, compute_Dg, is_fine
from .cyclotomic import Cyclotomic, rational_sqrt
from .groups import AbelianGroup, SearchCapExceeded, Subgroup, group_new
from .matrices import ComplexMatrix

SCHEMA_VERSION = 1


def _cap() -> int:
    return int(os.environ.get("ETFKIT_CAP", "10000"))


# ---------------------------------------------------------------------------
# atomic file IO


def write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, default=_json_default)


def write_json(path: Path, payload: dict) -> None:
    write_atomic(path, dumps(payload) + "\n")


# ---------------------------------------------------------------------------
# set files


def set_to_dict(D: designs.GroupSubset, subgroup: Subgroup | None = None) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "group": {"cyclic_orders": list(D.group.cyclic_orders)},
        "elements": [list(g) for g in D.elements],
    }
    if D.display_order is not None:
        out["display_order"] = [list(g) for g in D.display_order]
    if subgroup is not None:
        out["subgroup"] = [list(g) for g in subgroup.elements]
    return out


def write_set(path: Path, D: designs.GroupSubset, subgroup: Subgroup | None = None) -> None:
    write_json(path, set_to_dict(D, subgroup))


def read_set(path: Path) -> tuple[designs.GroupSubset, Subgroup | None]:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("group") is None or data.get("elements") is None:
        raise ValueError(f"{path}: not a set file (missing group/elements)")
    if not isinstance(data["group"], dict) or not _ints(data["group"].get("cyclic_orders")):
        raise ValueError(f"{path}: group must be an object with integer cyclic_orders")
    for key in ("elements", "display_order", "subgroup"):
        value = data.get(key)
        if value is not None and not (isinstance(value, list) and all(map(_ints, value))):
            raise ValueError(f"{path}: {key} must be a list of integer lists")
    group = group_new(data["group"]["cyclic_orders"])
    display = data.get("display_order")
    D = designs.subset(
        group,
        [tuple(g) for g in data["elements"]],
        display_order=[tuple(g) for g in display] if display else None,
    )
    H = None
    if data.get("subgroup"):
        H = Subgroup(group, tuple(tuple(g) for g in data["subgroup"]))
    return D, H


def _ints(value) -> bool:
    """Whether a JSON value is a list of integers."""
    return isinstance(value, list) and all(isinstance(x, int) for x in value)


# ---------------------------------------------------------------------------
# matrix files


def _label(t) -> str:
    return ":".join(str(x) for x in t)


def _entry_exact(matrix: ComplexMatrix, i: int, j: int) -> dict | None:
    if matrix.exact is None:
        return None
    r = rational_sqrt(matrix.exact.scale_sq)
    if r is None:
        return None
    total = matrix.exact.cells[i][j] * r
    sr = total.single_root()
    if sr is None:
        return None
    q, e, mod = sr
    return {"num": q.numerator, "den": q.denominator, "root_exp": e, "root_mod": mod}


def matrix_to_json(matrix: ComplexMatrix) -> dict:
    entries = []
    for i in range(matrix.shape[0]):
        row = []
        for j in range(matrix.shape[1]):
            z = matrix.values[i, j]
            cell = {"re": float(z.real), "im": float(z.imag)}
            exact = _entry_exact(matrix, i, j)
            if exact is not None:
                cell["exact"] = exact
            row.append(cell)
        entries.append(row)
    return {
        "schema_version": SCHEMA_VERSION,
        "rows": [list(r) for r in matrix.row_labels],
        "cols": [list(c) for c in matrix.col_labels],
        "entries": entries,
    }


def write_matrix_json(path: Path, matrix: ComplexMatrix) -> None:
    write_json(path, matrix_to_json(matrix))


def read_matrix_json(path: Path) -> tuple[list, list, np.ndarray, dict]:
    """(row labels, col labels, complex values, exact entries by (i, j))."""
    data = json.loads(Path(path).read_text())
    rows = [tuple(r) for r in data["rows"]]
    cols = [tuple(c) for c in data["cols"]]
    values = np.zeros((len(rows), len(cols)), dtype=np.complex128)
    exact = {}
    for i, row in enumerate(data["entries"]):
        for j, cell in enumerate(row):
            values[i, j] = complex(cell["re"], cell["im"])
            if "exact" in cell:
                e = cell["exact"]
                exact[(i, j)] = Cyclotomic.root(
                    e["root_exp"], e["root_mod"], Fraction(e["num"], e["den"])
                )
    return rows, cols, values, exact


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def parse_complex(text: str) -> complex:
    body = text.strip()
    if not body.endswith("i"):
        raise ValueError(f"bad complex entry {text!r}")
    body = body[:-1]
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            return complex(float(body[:k]), float(body[k:]))
    raise ValueError(f"bad complex entry {text!r}")


def write_matrix_csv(path: Path, matrix: ComplexMatrix) -> None:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([""] + [_label(c) for c in matrix.col_labels])
    for i, r in enumerate(matrix.row_labels):
        writer.writerow([_label(r)] + [_fmt_complex(matrix.values[i, j]) for j in range(matrix.shape[1])])
    write_atomic(path, buf.getvalue())


def read_matrix_csv(path: Path) -> tuple[list, list, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    cols = [tuple(int(x) for x in c.split(":")) for c in rows[0][1:]]
    labels = []
    values = np.zeros((len(rows) - 1, len(cols)), dtype=np.complex128)
    for i, row in enumerate(rows[1:]):
        labels.append(tuple(int(x) for x in row[0].split(":")))
        for j, cell in enumerate(row[1:]):
            values[i, j] = parse_complex(cell)
    return labels, cols, values


def write_matrix(path: Path, matrix: ComplexMatrix, fmt: str) -> None:
    if fmt == "csv":
        write_matrix_csv(path, matrix)
    else:
        write_matrix_json(path, matrix)


# ---------------------------------------------------------------------------
# shared helpers


def _report(command: str, params: dict, **extra) -> dict:
    out = {"schema_version": SCHEMA_VERSION, "command": command, "params": params}
    out.update(extra)
    return out


def _emit_report(args, name: str, report: dict) -> None:
    text = dumps(report)
    print(text)
    if args.out_dir is not None:
        write_json(Path(args.out_dir) / name, report)


def _need_subgroup(D, H, cap):
    """Subgroup from the set file, else the certified fine subgroup."""
    if H is not None:
        return H
    found = is_fine(D, cap=cap)
    if found is None:
        raise ValueError("set is not fine and no subgroup was supplied")
    return found


def _gamma_by_index(group: AbelianGroup, idx: int):
    if not 0 <= idx < group.order:
        raise ValueError(f"gamma index {idx} out of range 0..{group.order - 1}")
    return group.characters[idx]


def _valid_gammas(group: AbelianGroup, H: Subgroup):
    ann = set(H.annihilator().elements)
    return [chi for chi in group.characters if chi not in ann]


def _conference_builder(source: str):
    if source == "amalgam":
        return conference_mod.conference_from_amalgam
    return conference_mod.conference_from_srds


# ---------------------------------------------------------------------------
# subcommands


def cmd_construct(args) -> int:
    out_dir = Path(args.out_dir)
    if args.family == "singer":
        sc = designs.singer_complement(args.q, args.j)
        name = f"singer_q{args.q}_j{args.j}"
        set_path = out_dir / f"{name}.json"
        write_set(set_path, sc.D, sc.H)
        cert = classify_set(sc.D, cap=_cap())
        report = _report(
            "construct",
            {"family": "singer", "q": args.q, "j": args.j},
            certificate=cert.as_dict(),
            factors={
                "a": [list(g) for g in sc.A.elements],
                "b": [list(g) for g in sc.B.elements],
            },
            outputs={"set": str(set_path)},
        )
    elif args.family == "tpp":
        tc = designs.tpp_complement(args.q)
        name = f"tpp_q{args.q}"
        set_path = out_dir / f"{name}.json"
        write_set(set_path, tc.D, tc.H)
        cert = classify_set(tc.D, cap=_cap())
        report = _report(
            "construct",
            {"family": "tpp", "q": args.q},
            certificate=cert.as_dict(),
            outputs={"set": str(set_path)},
        )
    elif args.family == "mcfarland":
        k_orders = [int(x) for x in args.k_orders.split(",")] if args.k_orders else None
        ms = designs.mcfarland(args.q, args.j, k_orders)
        name = f"mcfarland_q{args.q}_j{args.j}"
        set_path = out_dir / f"{name}.json"
        write_set(set_path, ms.D, ms.H)
        cert = classify_set(ms.D, cap=_cap())
        report = _report(
            "construct",
            {"family": "mcfarland", "q": args.q, "j": args.j, "k_orders": list(ms.k_orders)},
            certificate=cert.as_dict(),
            outputs={"set": str(set_path)},
        )
    else:  # srds
        sr = designs.simplicial_rds_quadratic(args.q)
        name = f"srds_q{args.q}"
        set_path = out_dir / f"{name}.json"
        write_set(set_path, sr.A, sr.K)
        params = designs.certify_rds(sr.A, sr.K)
        report = _report(
            "construct",
            {"family": "srds", "q": args.q},
            rds_params={"m": params.m, "h": params.h, "d": params.d, "lambda": params.lam},
            outputs={"set": str(set_path)},
        )
    _emit_report(args, f"{name}.report.json", report)
    return 0


def _load_input_set(args):
    if args.set_file:
        return read_set(Path(args.set_file))
    if args.group and args.elements:
        group = group_new([int(x) for x in args.group.split(",")])
        els = [tuple(int(x) for x in e.split(",")) for e in args.elements.split(";")]
        return designs.subset(group, els), None
    raise ValueError("provide a set file or --group/--elements")


def cmd_classify(args) -> int:
    D, _ = _load_input_set(args)
    cert = classify_set(D, cap=_cap())
    report = _report(
        "classify",
        {"set": args.set_file or "inline"},
        certificate=cert.as_dict(),
    )
    _emit_report(args, "classify.report.json", report)
    return 0


def cmd_frame(args) -> int:
    D, H = _load_input_set(args)
    cap = _cap()
    fmt = args.format
    out_dir = Path(args.out_dir)
    if args.emit == "synthesis":
        matrix = frames.harmonic_synthesis(D)
        name = "synthesis"
    elif args.emit == "gram":
        matrix = frames.gram(frames.harmonic_synthesis(D))
        name = "gram"
    elif args.emit == "psi":
        H = _need_subgroup(D, H, cap)
        matrix = frames.simplex_psi(D.group, H)
        name = "psi"
    elif args.emit == "phi-gamma":
        H = _need_subgroup(D, H, cap)
        gamma = _gamma_by_index(D.group, args.gamma)
        matrix = frames.phi_gamma(D, H, gamma)
        name = f"phi_gamma{args.gamma}"
    else:  # e-gamma
        H = _need_subgroup(D, H, cap)
        gamma = _gamma_by_index(D.group, args.gamma)
        matrix = frames.e_gamma(D, H, gamma)
        name = f"e_gamma{args.gamma}"
    path = out_dir / f"{name}.{fmt}"
    write_matrix(path, matrix, fmt)
    report = _report(
        "frame",
        {"set": args.set_file, "emit": args.emit, "gamma": args.gamma},
        outputs={"matrix": str(path)},
        shape=list(matrix.shape),
    )
    _emit_report(args, f"frame_{name}.report.json", report)
    return 0


def cmd_verify(args) -> int:
    D, H = _load_input_set(args)
    cap = _cap()
    tol = args.tolerance
    params: dict = {"set": args.set_file, "check": args.check, "tolerance": tol}

    if args.check == "etf":
        matrix = frames.harmonic_synthesis(D)
        coh = frames.coherence(matrix)
        bound = frames.welch_bound(D.size, D.group.order)
        tight = frames.check_tight(matrix, tol=tol)
        lam = designs.certify_difference_set(D)
        passed = lam is not None and abs(coh - bound) <= tol and tight is not None
        report = _report(
            "verify", params,
            passed=passed,
            coherence=coh,
            welch_bound=bound,
            tight_constant=tight,
            lam=lam,
        )
    elif args.check in ("ectff", "eitff"):
        H = _need_subgroup(D, H, cap)
        check = frames.ectff_check if args.check == "ectff" else frames.eitff_check
        result = check(D, H, tol=tol)
        passed = result.passed
        report = _report("verify", params, passed=passed, result=result.as_dict())
    elif args.check == "triple":
        H = _need_subgroup(D, H, cap)
        cert = classify_set(D, cap=cap)
        if cert.composite_witness is not None:
            A, B = cert.composite_witness
            composite = True
        else:
            # expected to fail: use the first slice and canonical representatives
            reps = [g for g, _ in H.cosets if not H.contains(g)]
            A = designs.GroupSubset(D.group, tuple(reps))
            B = compute_Dg(D, H, reps[0])
            composite = False
        result = frames.triple_product_check(
            D, H, A, B, tol=tol, seed=args.seed
        )
        passed = result.passed
        report = _report(
            "verify", params,
            passed=passed,
            composite_input=composite,
            note=None if composite else "input is not composite; failure expected",
            result=result.as_dict(),
        )
    elif args.check == "unbiased":
        if H is None:
            raise ValueError("unbiased check needs the forbidden subgroup in the set file")
        result = frames.unbiased_simplices_check(D, H, tol=tol)
        passed = result.passed
        report = _report("verify", params, passed=passed, result=result.as_dict())
    else:  # conference
        H = _need_subgroup(D, H, cap)
        gamma = (
            _gamma_by_index(D.group, args.gamma)
            if args.gamma is not None
            else _valid_gammas(D.group, H)[0]
        )
        conf = _conference_builder(args.source)(D, H, gamma)
        result = conference_mod.verify_conference(conf, tol=tol)
        passed = result.passed
        report = _report(
            "verify", params,
            passed=passed,
            source=args.source,
            gamma=list(gamma),
            result=result.as_dict(),
        )
    _emit_report(args, f"verify_{args.check}.report.json", report)
    return 0 if passed else 1


def cmd_conference(args) -> int:
    D, H = _load_input_set(args)
    cap = _cap()
    tol = args.tolerance
    H = _need_subgroup(D, H, cap)
    builder = _conference_builder(args.source)
    if args.all_gammas:
        gammas = _valid_gammas(D.group, H)
    else:
        idx = args.gamma if args.gamma is not None else None
        if idx is None:
            gammas = [_valid_gammas(D.group, H)[0]]
        else:
            gammas = [_gamma_by_index(D.group, idx)]
    out_dir = Path(args.out_dir)
    results, all_passed = [], True
    for gamma in gammas:
        conf = builder(D, H, gamma)
        verdict = conference_mod.verify_conference(conf, tol=tol)
        idx = D.group.index_of(gamma)
        path = out_dir / f"conference_{args.source}_gamma{idx}.{args.format}"
        write_matrix(path, conf.materialize(), args.format)
        results.append(
            {"gamma": list(gamma), "gamma_index": idx, "matrix": str(path), "result": verdict.as_dict()}
        )
        all_passed = all_passed and verdict.passed
    report = _report(
        "conference",
        {"set": args.set_file, "source": args.source, "tolerance": tol},
        passed=all_passed,
        count=len(results),
        matrices=results,
    )
    _emit_report(args, "conference.report.json", report)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etfkit",
        description="harmonic ETFs from difference sets: construct, classify, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_format=False):
        p.add_argument("--out-dir", default=".", help="directory for output files")
        p.add_argument("--tolerance", type=float, default=1e-9)
        p.add_argument("--seed", type=int, default=None, help="seed for sampled checks")
        if with_format:
            p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("construct", help="build a named difference-set family")
    p.add_argument("family", choices=("singer", "tpp", "mcfarland", "srds"))
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--j", type=int, default=2)
    p.add_argument("--k-orders", default=None, help="cyclic orders for the McFarland K, e.g. 2,2")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("classify", help="certify and classify a set")
    p.add_argument("set_file", nargs="?", default=None)
    p.add_argument("--group", default=None, help="cyclic orders, e.g. 15 or 3,5")
    p.add_argument("--elements", default=None, help="elements, e.g. 6;11;7 or 0,1;1,2")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("frame", help="emit frame matrices")
    p.add_argument("set_file")
    p.add_argument("--emit", required=True, choices=("synthesis", "gram", "phi-gamma", "e-gamma", "psi"))
    p.add_argument("--gamma", type=int, default=0, help="character index")
    p.add_argument("--group", default=None, help=argparse.SUPPRESS)
    p.add_argument("--elements", default=None, help=argparse.SUPPRESS)
    common(p, with_format=True)
    p.set_defaults(func=cmd_frame)

    p = sub.add_parser("verify", help="run a verification check")
    p.add_argument("set_file")
    p.add_argument("--check", required=True, choices=("etf", "ectff", "eitff", "triple", "unbiased", "conference"))
    p.add_argument("--source", choices=("amalgam", "srds"), default="amalgam")
    p.add_argument("--gamma", type=int, default=None)
    p.add_argument("--group", default=None, help=argparse.SUPPRESS)
    p.add_argument("--elements", default=None, help=argparse.SUPPRESS)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("conference", help="build circulant conference matrices")
    p.add_argument("set_file")
    p.add_argument("--source", choices=("amalgam", "srds"), required=True)
    p.add_argument("--gamma", type=int, default=None)
    p.add_argument("--all-gammas", action="store_true")
    p.add_argument("--group", default=None, help=argparse.SUPPRESS)
    p.add_argument("--elements", default=None, help=argparse.SUPPRESS)
    common(p, with_format=True)
    p.set_defaults(func=cmd_conference)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, SearchCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
