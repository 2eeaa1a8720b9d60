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
{re, im, exact: {num, den, root_exp, root_mod}} on the entries that the
matrix's exact form, folded with a rational scale, gives as a rational
multiple of one root of unity; a matrix whose exact form was dropped (a
product past the exact work limit) or whose scale is irrational has none.
Each distinct entry of a matrix is rendered once, and the files are byte for
byte those of ``csv.writer`` and ``json.dumps(indent=2)`` over every entry.
The conference commands take every character off the annihilator of H with
--all-gammas, else the one at --gamma, else the first such character;
--gamma and --all-gammas together are a usage error.
Exit codes: 0 pass, 1 verification failure, 2 usage or parse error (also
when no gamma is off the annihilator, or H is the whole group).  ETFKIT_CAP
overrides the group-order cap of the subgroup search in non-cyclic groups.
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
from .cyclotomic import Cyclotomic, _single_roots, rational_sqrt
from .groups import (
    AbelianGroup, SearchCapExceeded, Subgroup, VerdictDisagreement, dft_numeric, group_new,
)
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
    try:
        data = json.loads(Path(path).read_text())
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply") from exc
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


def _distinct(*keys) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) over equal-length key columns: the least index of
    each distinct key tuple, in increasing order, and each index's position
    in ``first``.  One stable lexsort: a sorted run starts at its least index."""
    order = np.lexsort(keys[::-1])
    same = np.zeros(len(order), dtype=bool)
    same[1:] = True
    for key in keys:
        ranked = key[order]
        same[1:] &= ranked[1:] == ranked[:-1]
    run = np.cumsum(~same) - 1
    first = order[~same]
    by_first = np.argsort(first)
    position = np.empty_like(by_first)
    position[by_first] = np.arange(len(by_first))
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = position[run]
    return first[by_first], inverse


def _term_sequences(count: np.ndarray, exp: np.ndarray, num: np.ndarray) -> np.ndarray:
    """Per cell, an id equal for two cells exactly when they hold the same
    sequence of (exponent, numerator) terms; cell c holds the ``count[c]``
    terms after those of the cells before it.  Position k refines the ids
    of the cells with more than k terms."""
    start = np.cumsum(count) - count
    ids = np.zeros(len(count), dtype=np.int64)
    for k in range(int(count.max(initial=0))):
        has = np.flatnonzero(count > k)
        t = start[has] + k
        ids[has] = _distinct(ids[has], exp[t], num[t])[1]
    return _distinct(count, ids)[1]


_JSON_EXACT = (',\n        "exact": {{\n          "num": {},\n          "den": {},\n'
               '          "root_exp": {},\n          "root_mod": {}\n        }}')
_JSON_ENTRY = '{{\n        "re": {},\n        "im": {}{}\n      }}'


def _exact_json(form) -> str:
    if form is None:
        return ""
    q, e, mod = form
    return _JSON_EXACT.format(q.numerator, q.denominator, e, mod)


def _exact_fields(matrix: ComplexMatrix) -> tuple[np.ndarray, list[str]]:
    """(id per cell, the text of the exact field per id, "" for none).

    The cells are those of ``ExactForm.folded()``: like terms merged in
    order of first appearance, zero terms dropped, the rational scale
    multiplied in.  Cells with the same term sequence share an id, and one
    ``_single_roots`` call decides the form of one cell per id.  Without an
    exact form, or with an irrational scale, every cell has id 0 and no
    field."""
    x = matrix.exact
    r = rational_sqrt(x.scale_sq) if x is not None else None
    if r is None:
        return np.zeros(matrix.values.size, dtype=np.int64), [""]
    key, first, at = np.unique(x.cell * x.modulus + x.exp, return_index=True, return_inverse=True)
    num = np.zeros(len(key), dtype=object)
    np.add.at(num, at, x.num)
    num *= r.numerator
    order = np.lexsort((first, key // x.modulus))
    order = order[num[order] != 0]
    cell, exp, num = key[order] // x.modulus, key[order] % x.modulus, num[order]
    count = np.bincount(cell, minlength=matrix.values.size)
    reps, ids = _distinct(_term_sequences(count, exp, num))
    is_rep = np.zeros(len(count), dtype=bool)
    is_rep[reps] = True
    t = is_rep[cell]
    forms = _single_roots(x.modulus, x.den * r.denominator, count[reps], exp[t], num[t])
    return ids, [_exact_json(form) for form in forms]


def _cell_texts(values: np.ndarray, texts, *keys) -> list[list[str]]:
    """Each entry's text, by rows, from ``texts(first)``: the texts of the
    distinct (real bits, imaginary bits, *keys) tuples, given the flat index
    of each one's first entry.  Keyed on bits, so -0.0 and 0.0 stay apart."""
    bits = np.ascontiguousarray(values).view(np.uint64).reshape(-1, 2)
    first, inverse = _distinct(bits[:, 0], bits[:, 1], *keys)
    return np.array(texts(first), dtype=object)[inverse].reshape(values.shape).tolist()


def _json_floats(x: np.ndarray) -> list[str]:
    """Each float as ``json.dumps`` writes it (its repr when finite, x - x
    being 0), one text per distinct bit pattern: the parts of distinct
    entries repeat (the Singer (2,5) Gram's 134,719 distinct entries have
    5,131 distinct real parts)."""
    bits, at = np.unique(x.view(np.uint64), return_inverse=True)
    texts = [float.__repr__(v) if v - v == 0 else json.dumps(v) for v in bits.view(np.float64).tolist()]
    return np.array(texts, dtype=object)[at].tolist()


def _json_list(items: list[str], depth: int) -> list[str]:
    """``json.dumps(indent=2)`` of a list at ``depth`` whose items are
    already rendered, as pieces to join: each item after its separator."""
    if not items:
        return ["[]"]
    pad = "\n" + "  " * (depth + 1)
    pieces = ["," + pad] * (2 * len(items))
    pieces[0] = "[" + pad
    pieces[1::2] = items
    return pieces + ["\n" + "  " * depth + "]"]


def _json_labels(labels) -> str:
    return "".join(_json_list(["".join(_json_list([str(x) for x in t], 2)) for t in labels], 1))


def write_matrix_json(path: Path, matrix: ComplexMatrix) -> None:
    """``json.dumps(indent=2)`` of {schema_version, rows, cols, entries}, each
    distinct entry rendered once: at its fixed depth, an entry's text is a
    function of its float bits and its exact field."""
    flat = matrix.values.ravel()
    ids, fields = _exact_fields(matrix)

    def texts(first: np.ndarray) -> list[str]:
        z = flat[first]
        return [_JSON_ENTRY.format(re, im, fields[k])
                for re, im, k in zip(_json_floats(z.real), _json_floats(z.imag), ids[first].tolist())]

    rows = ["".join(_json_list(row, 2)) for row in _cell_texts(matrix.values, texts, ids)]
    text = "".join([
        f'{{\n  "schema_version": {SCHEMA_VERSION},\n  "rows": {_json_labels(matrix.row_labels)},\n'
        f'  "cols": {_json_labels(matrix.col_labels)},\n  "entries": ',
        *_json_list(rows, 1), "\n}\n",
    ])
    del rows  # only the text stays while it is written
    write_atomic(path, text)


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
    """The rows ``csv.writer`` writes (labels, then the entries through
    ``_fmt_complex``), each distinct entry formatted once.  No label or
    entry needs quoting; csv writes a row of one empty field as '""'."""
    flat = matrix.values.ravel()
    cells = _cell_texts(matrix.values, lambda first: [_fmt_complex(z) for z in flat[first].tolist()])
    lines = [",".join(["", *map(_label, matrix.col_labels)]) or '""']
    lines += [",".join([_label(r), *row]) or '""' for r, row in zip(matrix.row_labels, cells)]
    del cells
    text = "\r\n".join([*lines, ""])
    del lines  # only the text stays while it is written
    write_atomic(path, text)


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
    write_atomic(Path(args.out_dir) / name, text + "\n")


def _need_subgroup(D, H):
    """Subgroup from the set file, else the certified fine subgroup."""
    if H is not None:
        return H
    found = is_fine(D, cap=_cap())
    if found is None:
        raise ValueError("set is not fine and no subgroup was supplied")
    return found


def _gamma_by_index(group: AbelianGroup, idx: int):
    if not 0 <= idx < group.order:
        raise ValueError(f"gamma index {idx} out of range 0..{group.order - 1}")
    return group.characters[idx]


def _conference_gammas(group: AbelianGroup, H: Subgroup, index: int | None,
                       every: bool = False) -> list:
    """Every character off the annihilator of H with ``every``, else the one
    at ``index``, else the first one off the annihilator (the parser lets
    ``every`` and ``index`` not both be given)."""
    if index is not None:
        return [_gamma_by_index(group, index)]
    ann = H.annihilator()
    valid = [chi for chi in group.characters if not ann.contains(chi)]
    if not valid:
        raise ValueError("no character off the annihilator of H")
    return valid if every else valid[:1]


def _conference_builder(source: str):
    if source == "amalgam":
        return conference_mod.conference_from_amalgam
    return conference_mod.conference_from_srds


# ---------------------------------------------------------------------------
# subcommands


def cmd_construct(args) -> int:
    family, q, j = args.family, args.q, args.j
    params: dict = {"family": family, "q": q}
    extra: dict = {}
    if family == "singer":
        fam = designs.singer_complement(q, j)
        params["j"] = j
        extra["factors"] = {"a": [list(g) for g in fam.A.elements],
                            "b": [list(g) for g in fam.B.elements]}
    elif family == "tpp":
        fam = designs.tpp_complement(q)
    elif family == "mcfarland":
        k_orders = [int(x) for x in args.k_orders.split(",")] if args.k_orders else None
        fam = designs.mcfarland(q, j, k_orders)
        params.update(j=j, k_orders=list(fam.k_orders))
    else:  # srds
        fam = designs.simplicial_rds_quadratic(q)
    name = f"{family}_q{q}" + (f"_j{j}" if "j" in params else "")
    D, H = (fam.A, fam.K) if family == "srds" else (fam.D, fam.H)
    set_path = Path(args.out_dir) / f"{name}.json"
    write_set(set_path, D, H)
    if family == "srds":
        rds = designs.certify_rds(D, H)
        body = {"rds_params": {"m": rds.m, "h": rds.h, "d": rds.d, "lambda": rds.lam}}
    else:
        body = {"certificate": classify_set(D, cap=_cap()).as_dict()}
    report = _report("construct", params, **body, **extra, outputs={"set": str(set_path)})
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
    name = args.emit.replace("-", "_")
    if args.emit in ("synthesis", "gram"):
        matrix = frames.harmonic_synthesis(D)
        if args.emit == "gram":
            matrix = frames.gram(matrix)
    elif args.emit == "psi":
        matrix = frames.simplex_psi(D.group, _need_subgroup(D, H))
    else:  # phi-gamma, e-gamma
        build = frames.phi_gamma if args.emit == "phi-gamma" else frames.e_gamma
        matrix = build(D, _need_subgroup(D, H), _gamma_by_index(D.group, args.gamma))
        name += str(args.gamma)
    path = Path(args.out_dir) / f"{name}.{args.format}"
    write_matrix(path, matrix, args.format)
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
    tol = args.tolerance
    params: dict = {"set": args.set_file, "check": args.check, "tolerance": tol}

    if args.check == "etf":
        # a harmonic frame is tight with constant G/|D|, and an ETF exactly
        # when D is a difference set: that decides, and the coherence (the
        # largest |DFT(chi_D)| / |D| off 0) reaching the Welch bound cross-checks
        if D.size == 0:
            raise ValueError("the subset must be nonempty")
        bound = frames.welch_bound(D.size, D.group.order)
        coh = float(np.abs(dft_numeric(D.indicator())[1:]).max()) / D.size
        lam = designs.certify_difference_set(D)
        passed = lam is not None
        if passed != (abs(coh - bound) <= tol):
            raise VerdictDisagreement("coherence disagrees with the difference-set certification")
        report = _report("verify", params, passed=passed, coherence=coh, welch_bound=bound,
                         tight_constant=D.group.order / D.size, lam=lam)
    elif args.check in ("ectff", "eitff"):
        H = _need_subgroup(D, H)
        check = frames.ectff_check if args.check == "ectff" else frames.eitff_check
        result = check(D, H, tol=tol)
        passed = result.passed
        report = _report("verify", params, passed=passed, result=result.as_dict())
    elif args.check == "triple":
        cert = classify_set(D, cap=_cap())
        H = H or cert.fine_subgroup
        if H is None:
            raise ValueError("set is not fine and no subgroup was supplied")
        witness = cert.composite_witness
        composite = witness is not None
        if composite:
            B = witness[1]
        elif H.order == D.group.order:
            raise ValueError("H must be a proper subgroup")
        else:  # expected to fail: use the first slice
            B = compute_Dg(D, H, next(g for g, _ in H.cosets if not H.contains(g)))
        result = frames.triple_product_check(D, H, None, B, tol=tol)
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
        H = _need_subgroup(D, H)
        gamma, = _conference_gammas(D.group, H, args.gamma)
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
    tol = args.tolerance
    H = _need_subgroup(D, H)
    builder = _conference_builder(args.source)
    out_dir = Path(args.out_dir)
    results, all_passed = [], True
    for gamma in _conference_gammas(D.group, H, args.gamma, args.all_gammas):
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
    """The parser; it holds no functions, and ``main`` dispatches to
    ``cmd_<command>`` by name, so a rebound ``cmd_*`` is the one that runs."""
    parser = argparse.ArgumentParser(
        prog="etfkit",
        description="harmonic ETFs from difference sets: construct, classify, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_format=False):
        p.add_argument("--out-dir", default=".", help="directory for output files")
        p.add_argument("--tolerance", type=float, default=1e-9)
        p.add_argument("--seed", type=int, default=None,
                       help="accepted and unused: every check is exhaustive")
        if with_format:
            p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("construct", help="build a named difference-set family")
    p.add_argument("family", choices=("singer", "tpp", "mcfarland", "srds"))
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--j", type=int, default=2)
    p.add_argument("--k-orders", default=None, help="cyclic orders for the McFarland K, e.g. 2,2")
    common(p)

    p = sub.add_parser("classify", help="certify and classify a set")
    p.add_argument("set_file", nargs="?", default=None)
    p.add_argument("--group", default=None, help="cyclic orders, e.g. 15 or 3,5")
    p.add_argument("--elements", default=None, help="elements, e.g. 6;11;7 or 0,1;1,2")
    common(p)

    p = sub.add_parser("frame", help="emit frame matrices")
    p.add_argument("set_file")
    p.add_argument("--emit", required=True, choices=("synthesis", "gram", "phi-gamma", "e-gamma", "psi"))
    p.add_argument("--gamma", type=int, default=0, help="character index")
    p.add_argument("--group", default=None, help=argparse.SUPPRESS)
    p.add_argument("--elements", default=None, help=argparse.SUPPRESS)
    common(p, with_format=True)

    p = sub.add_parser("verify", help="run a verification check")
    p.add_argument("set_file")
    p.add_argument("--check", required=True, choices=("etf", "ectff", "eitff", "triple", "unbiased", "conference"))
    p.add_argument("--source", choices=("amalgam", "srds"), default="amalgam")
    p.add_argument("--gamma", type=int, default=None)
    p.add_argument("--group", default=None, help=argparse.SUPPRESS)
    p.add_argument("--elements", default=None, help=argparse.SUPPRESS)
    common(p)

    p = sub.add_parser("conference", help="build circulant conference matrices")
    p.add_argument("set_file")
    p.add_argument("--source", choices=("amalgam", "srds"), required=True)
    gammas = p.add_mutually_exclusive_group()
    gammas.add_argument("--gamma", type=int, default=None)
    gammas.add_argument("--all-gammas", action="store_true")
    p.add_argument("--group", default=None, help=argparse.SUPPRESS)
    p.add_argument("--elements", default=None, help=argparse.SUPPRESS)
    common(p, with_format=True)

    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main()


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return globals()["cmd_" + args.command](args)
    except (ValueError, OSError, KeyError, MemoryError, SearchCapExceeded,
            VerdictDisagreement) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
