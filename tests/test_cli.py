import contextlib
import copy
import importlib
import io
import json
import math
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import etfkit as ek
from etfkit import cli
from etfkit.classify import _SliceTable
from etfkit.matrices import ComplexMatrix, from_cells

from conftest import reference_entry_exact, reference_matrix_csv_text, reference_matrix_json_text


def run(args):
    return cli.main([str(a) for a in args])


def test_construct_singer_and_classify_roundtrip(tmp_path):
    assert run(["construct", "singer", "--q", 2, "--j", 2, "--out-dir", tmp_path]) == 0
    set_path = tmp_path / "singer_q2_j2.json"
    report_path = tmp_path / "singer_q2_j2.report.json"
    assert set_path.exists() and report_path.exists()
    report = json.loads(report_path.read_text())
    cert = report["certificate"]
    assert cert["is_difference_set"] and cert["is_composite"]
    D, H = cli.read_set(set_path)
    assert D.size == 8 and H.order == 3
    # round-trip: writing the parsed set again is identical
    cli.write_set(tmp_path / "again.json", D, H)
    assert json.loads((tmp_path / "again.json").read_text()) == json.loads(set_path.read_text())


def test_construct_tpp_and_mcfarland(tmp_path):
    assert run(["construct", "tpp", "--q", 3, "--out-dir", tmp_path]) == 0
    report = json.loads((tmp_path / "tpp_q3.report.json").read_text())
    assert report["certificate"]["is_composite"]

    assert run(["construct", "mcfarland", "--q", 2, "--j", 2, "--k-orders", "2,2", "--out-dir", tmp_path]) == 0
    report = json.loads((tmp_path / "mcfarland_q2_j2.report.json").read_text())
    cert = report["certificate"]
    assert cert["is_fine"] and not cert["is_amalgam"]


def test_construct_srds(tmp_path):
    assert run(["construct", "srds", "--q", 5, "--out-dir", tmp_path]) == 0
    report = json.loads((tmp_path / "srds_q5.report.json").read_text())
    assert report["rds_params"] == {"m": 6, "h": 4, "d": 5, "lambda": 1}


def test_construct_invalid_parameters(tmp_path):
    assert run(["construct", "singer", "--q", 6, "--j", 2, "--out-dir", tmp_path]) == 2
    assert run(["construct", "tpp", "--q", 13, "--out-dir", tmp_path]) == 2


def test_classify_inline_and_file(tmp_path, capsys):
    assert run([
        "classify", "--group", "15",
        "--elements", "6;11;7;12;13;3;9;14", "--out-dir", tmp_path,
    ]) == 0
    out = json.loads(capsys.readouterr().out)
    cert = out["certificate"]
    assert cert["lambda"] == 4 and cert["welch_s"] == 4
    assert cert["composite_a"] == [[1], [2], [4], [8]]

    assert run(["classify", "--group", "7", "--elements", "1;2;4", "--out-dir", tmp_path]) == 0
    cert = json.loads(capsys.readouterr().out)["certificate"]
    assert cert["is_difference_set"] and not cert["is_fine"]

    assert run(["classify", "--group", "9", "--elements", "1;2;3", "--out-dir", tmp_path]) == 0
    cert = json.loads(capsys.readouterr().out)["certificate"]
    assert not cert["is_difference_set"]
    assert "not_ds_witness" in cert


def test_classify_parse_error(tmp_path):
    missing = tmp_path / "nope.json"
    assert run(["classify", str(missing)]) == 2


def _write_z15(tmp_path) -> Path:
    D = ek.cyclic_subset(15, [6, 11, 7, 12, 13, 3, 9, 14], display_order=[6, 11, 7, 12, 13, 3, 9, 14])
    H = ek.Subgroup(D.group, ((0,), (5,), (10,)))
    path = tmp_path / "z15.json"
    cli.write_set(path, D, H)
    return path


def test_frame_synthesis_csv_and_json_roundtrip(tmp_path):
    set_path = _write_z15(tmp_path)
    assert run(["frame", set_path, "--emit", "synthesis", "--format", "csv", "--out-dir", tmp_path]) == 0
    rows, cols, values = cli.read_matrix_csv(tmp_path / "synthesis.csv")
    assert rows == [(6,), (11,), (7,), (12,), (13,), (3,), (9,), (14,)]
    direct = ek.harmonic_synthesis(cli.read_set(set_path)[0])
    assert np.max(np.abs(values - direct.values)) < 1e-12

    assert run(["frame", set_path, "--emit", "synthesis", "--format", "json", "--out-dir", tmp_path]) == 0
    rows, cols, values, exact = cli.read_matrix_json(tmp_path / "synthesis.json")
    assert np.max(np.abs(values - direct.values)) < 1e-12


def test_frame_psi_and_e_gamma(tmp_path):
    set_path = _write_z15(tmp_path)
    assert run(["frame", set_path, "--emit", "psi", "--out-dir", tmp_path]) == 0
    rows, cols, values, _ = cli.read_matrix_json(tmp_path / "psi.json")
    assert rows == [(1,), (2,), (3,), (4,)]
    assert cols == [(0,), (3,), (6,), (9,), (12,)]

    # psi entries are w^e/2: rational times a root, so the exact form is kept
    rows, cols, values, exact = cli.read_matrix_json(tmp_path / "psi.json")
    assert (0, 1) in exact and exact[(0, 1)].single_root()[1] == 3

    assert run(["frame", set_path, "--emit", "e-gamma", "--gamma", 1, "--out-dir", tmp_path]) == 0
    rows, cols, values, exact = cli.read_matrix_json(tmp_path / "e_gamma1.json")
    w = np.exp(2j * np.pi / 15)
    assert abs(values[0][0] - w**6 / math.sqrt(2)) < 1e-12
    assert values[0][1] == 0
    # w^e/sqrt(2) is not rational times a root: no exact form in the schema
    assert exact == {}


def test_frame_e_gamma_on_non_fine_set_errors(tmp_path):
    D = ek.cyclic_subset(7, [1, 2, 4])
    path = tmp_path / "fano.json"
    cli.write_set(path, D)
    assert run(["frame", path, "--emit", "e-gamma", "--gamma", 1, "--out-dir", tmp_path]) == 2


def test_matrix_json_exact_roundtrip(tmp_path):
    set_path = _write_z15(tmp_path)
    D, H = cli.read_set(set_path)
    cg = ek.cross_gram(ek.e_gamma(D, H, (0,)), ek.e_gamma(D, H, (1,)))
    path = tmp_path / "cg.json"
    cli.write_matrix_json(path, cg)
    rows, cols, values, exact = cli.read_matrix_json(path)
    # bit-exact doubles and exact cells everywhere (scale 1/4 folds to 1/2)
    assert np.array_equal(values, cg.values)
    assert len(exact) == 16
    from etfkit.cyclotomic import rational_sqrt

    r = rational_sqrt(cg.exact.scale_sq)
    for (i, j), cell in exact.items():
        assert (cg.exact.cells[i][j] * r - cell).is_zero()


def _exported_matrices(fam):
    """Every ``frame --emit`` matrix and the amalgam conference matrix of a
    family, at the first character off the annihilator of H."""
    D, H = fam.D, fam.H
    ann = H.annihilator()
    gamma = next(chi for chi in D.group.characters if not ann.contains(chi))
    synthesis = ek.harmonic_synthesis(D)
    return {
        "synthesis": synthesis,
        "gram": ek.gram(synthesis),
        "psi": ek.simplex_psi(D.group, H),
        "phi-gamma": ek.phi_gamma(D, H, gamma),
        "e-gamma": ek.e_gamma(D, H, gamma),
        "conference": ek.conference_from_amalgam(D, H, gamma).materialize(),
    }


# tpp 11 keeps none: every scale is irrational but the Gram's, whose product
# passes the exact work limit
@pytest.mark.parametrize("family, exact_fields", [
    (lambda: ek.singer_complement(2, 2), 150), (lambda: ek.tpp_complement(11), 0),
    (lambda: ek.mcfarland(2, 3), 196),
], ids=["singer_2_2", "tpp_11", "mcfarland_2_3"])
def test_matrix_json_exact_fields_match_the_per_cell_reference(tmp_path, family, exact_fields):
    kept = 0
    for kind, matrix in _exported_matrices(family()).items():
        cli.write_matrix_json(tmp_path / f"{kind}.json", matrix)
        entries = json.loads((tmp_path / f"{kind}.json").read_text())["entries"]
        for i, row in enumerate(entries):
            for j, cell in enumerate(row):
                assert cell.get("exact") == reference_entry_exact(matrix, i, j), (kind, i, j)
                kept += "exact" in cell
    assert kept == exact_fields


# the matrix file writers against the per-entry references: repeated
# entries, both signed zeros in each part, empty shapes, dropped exact forms
# and irrational scales
_FLOATS = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1 / 3, 1e-300, 2.0**60, math.inf, -math.inf])
_LABELS = st.lists(st.integers(0, 12), max_size=2).map(tuple)


def _cyclotomic_pool(modulus: int):
    terms = st.dictionaries(st.integers(0, modulus - 1),
                            st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=3)
    return st.lists(terms.map(lambda c: ek.Cyclotomic(modulus, c)), min_size=1, max_size=4)


@st.composite
def exported_matrices(draw):
    n, m = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rows, cols = draw(st.lists(_LABELS, min_size=n, max_size=n)), draw(st.lists(_LABELS, min_size=m, max_size=m))
    kind = draw(st.sampled_from(["exact", "exact, float entries", "dropped"]))
    if kind == "dropped":
        values = draw(st.lists(st.tuples(_FLOATS, _FLOATS), min_size=n * m, max_size=n * m))
        grid = np.array([complex(*v) for v in values], dtype=np.complex128).reshape(n, m)
        return ComplexMatrix(tuple(rows), tuple(cols), grid)
    modulus = draw(st.sampled_from([1, 2, 3, 4, 6, 15]))
    pool = draw(_cyclotomic_pool(modulus))
    cells = [[draw(st.sampled_from(pool)) for _ in range(m)] for _ in range(n)]
    scale_sq = draw(st.sampled_from([Fraction(1), Fraction(1, 4), Fraction(4, 9), Fraction(2), Fraction(0)]))
    matrix = from_cells(rows, cols, cells, scale_sq)
    if kind == "exact":
        return matrix
    # float entries unrelated to the exact cells: equal floats over unequal cells
    values = draw(st.lists(st.tuples(_FLOATS, _FLOATS), min_size=n * m, max_size=n * m))
    grid = np.array([complex(*v) for v in values], dtype=np.complex128).reshape(n, m)
    return ComplexMatrix(matrix.row_labels, matrix.col_labels, grid, matrix.exact)


@settings(max_examples=300, deadline=None)
@given(exported_matrices())
def test_matrix_writers_match_the_per_entry_references(tmp_path_factory, matrix):
    out = tmp_path_factory.mktemp("writers")
    cli.write_matrix_json(out / "m.json", matrix)
    cli.write_matrix_csv(out / "m.csv", matrix)
    assert (out / "m.json").read_bytes() == reference_matrix_json_text(matrix).encode()
    assert (out / "m.csv").read_bytes() == reference_matrix_csv_text(matrix).encode()


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 0)])
def test_matrix_writers_on_empty_shapes(tmp_path, shape):
    n, m = shape
    for labels in ((), ((),)):  # () labels a lone empty csv field
        matrix = from_cells([labels[0] if labels else (i,) for i in range(n)], [(j,) for j in range(m)],
                            [[ek.Cyclotomic(3, {1: 1})] * m for _ in range(n)], Fraction(1))
        cli.write_matrix_json(tmp_path / "m.json", matrix)
        cli.write_matrix_csv(tmp_path / "m.csv", matrix)
        assert (tmp_path / "m.json").read_bytes() == reference_matrix_json_text(matrix).encode()
        assert (tmp_path / "m.csv").read_bytes() == reference_matrix_csv_text(matrix).encode()


def test_matrix_json_keeps_equal_floats_of_unequal_cells_apart(tmp_path):
    third, near = Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30)
    matrix = from_cells([(0,)], [(0,), (1,), (2,)],
                        [[ek.Cyclotomic(1, {0: third}), ek.Cyclotomic(1, {0: near}),
                          ek.Cyclotomic(1, {0: third})]], Fraction(1))
    assert matrix.values[0, 0] == matrix.values[0, 1]
    cli.write_matrix_json(tmp_path / "m.json", matrix)
    assert (tmp_path / "m.json").read_bytes() == reference_matrix_json_text(matrix).encode()
    _, _, _, exact = cli.read_matrix_json(tmp_path / "m.json")
    assert [exact[(0, j)].as_rational() for j in range(3)] == [third, near, third]


def test_report_file_is_the_printed_report(tmp_path, capsys):
    set_path = _write_z15(tmp_path)
    assert run(["verify", set_path, "--check", "eitff", "--out-dir", tmp_path]) == 0
    printed = capsys.readouterr().out
    assert (tmp_path / "verify_eitff.report.json").read_text() == printed
    assert printed.endswith("}\n")


def test_verify_etf_and_eitff(tmp_path):
    set_path = _write_z15(tmp_path)
    assert run(["verify", set_path, "--check", "etf", "--out-dir", tmp_path]) == 0
    report = json.loads((tmp_path / "verify_etf.report.json").read_text())
    assert abs(report["coherence"] - 0.25) < 1e-9
    assert run(["verify", set_path, "--check", "ectff", "--out-dir", tmp_path]) == 0
    assert run(["verify", set_path, "--check", "eitff", "--out-dir", tmp_path]) == 0
    report = json.loads((tmp_path / "verify_eitff.report.json").read_text())
    assert report["result"]["agrees_with_amalgam"]


def test_verify_eitff_fails_for_mcfarland(tmp_path):
    ms = ek.mcfarland(2, 2, [2, 2])
    path = tmp_path / "mcf.json"
    cli.write_set(path, ms.D, ms.H)
    assert run(["verify", path, "--check", "eitff", "--out-dir", tmp_path]) == 1
    report = json.loads((tmp_path / "verify_eitff.report.json").read_text())
    assert not report["passed"]
    angles = report["result"]["pair_angles"][0]["angles"]
    assert np.max(np.abs(np.array(angles) - [0, np.pi / 2, np.pi / 2])) < 1e-9


def test_verify_eitff_off_a_difference_set_reports_failure(tmp_path, capsys):
    # every coset slice is a difference set of H, but D is not a difference set
    g = ek.group_new([2, 2, 2, 2])
    H = ek.subgroups_of_order(g, 4)[0]
    D = ek.subset(g, [x for _, members in H.cosets[1:] for x in members[1:]])
    path = tmp_path / "z2_4.json"
    cli.write_set(path, D, H)
    assert run(["verify", path, "--check", "eitff", "--out-dir", tmp_path]) == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "verify_eitff.report.json").read_text())
    assert not report["passed"] and report["result"]["agrees_with_amalgam"]


def test_verify_triple_and_unbiased(tmp_path):
    set_path = _write_z15(tmp_path)
    assert run(["verify", set_path, "--check", "triple", "--out-dir", tmp_path]) == 0
    A = ek.cyclic_subset(15, [1, 2, 8, 4])
    K = ek.Subgroup(A.group, ((0,), (5,), (10,)))
    a_path = tmp_path / "a.json"
    cli.write_set(a_path, A, K)
    assert run(["verify", a_path, "--check", "unbiased", "--out-dir", tmp_path]) == 0


def test_verify_triple_fails_off_composite(tmp_path):
    tc = ek.tpp_complement(11)
    path = tmp_path / "tpp11.json"
    cli.write_set(path, tc.D, tc.H)
    assert run(["verify", path, "--check", "triple", "--seed", 1, "--out-dir", tmp_path]) == 1
    report = json.loads((tmp_path / "verify_triple.report.json").read_text())
    assert report["note"].startswith("input is not composite")


def _counting_certifications(monkeypatch):
    """Count every difference-set certification: each is one
    ``designs._certificate`` call, whichever module binds it."""
    calls = []
    certificate = importlib.import_module("etfkit.designs")._certificate

    def counting(D, *args, **kwargs):
        calls.append(D)
        return certificate(D, *args, **kwargs)

    for module in ("etfkit.designs", "etfkit.classify"):
        monkeypatch.setattr(importlib.import_module(module), "_certificate", counting)
    return calls


@pytest.mark.parametrize("elements, code", [([6, 11, 7, 12, 13, 3, 9, 14], 0), ([1, 2, 3], 2)])
def test_verify_triple_without_subgroup_certifies_once(tmp_path, capsys, monkeypatch, elements,
                                                       code):
    path = tmp_path / "set.json"
    cli.write_set(path, ek.cyclic_subset(15, elements))
    calls = _counting_certifications(monkeypatch)
    assert run(["verify", path, "--check", "triple", "--out-dir", tmp_path]) == code
    assert len(calls) == 1
    if code == 2:
        assert capsys.readouterr().err == "error: set is not fine and no subgroup was supplied\n"


def test_verify_triple_on_the_whole_group_exits_2(tmp_path, capsys):
    D = ek.cyclic_subset(7, [1, 2, 4])
    path = tmp_path / "z7.json"
    cli.write_set(path, D, ek.Subgroup.full(D.group))
    assert run(["verify", path, "--check", "triple", "--out-dir", tmp_path]) == 2
    assert capsys.readouterr().err == "error: H must be a proper subgroup\n"


def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    def exhausted(self):
        raise MemoryError()

    monkeypatch.setattr(_SliceTable, "h_add", property(exhausted))
    path = _write_z15(tmp_path)
    assert run(["verify", path, "--check", "triple", "--out-dir", tmp_path]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_verify_conference_on_tpp11(tmp_path):
    tc = ek.tpp_complement(11)
    path = tmp_path / "tpp11.json"
    cli.write_set(path, tc.D, tc.H)
    assert run(["verify", path, "--check", "conference", "--out-dir", tmp_path]) == 0
    report = json.loads((tmp_path / "verify_conference.report.json").read_text())
    assert report["result"]["size"] == 13 and report["result"]["s"] == 12


def test_conference_single_gamma_matches_printed(tmp_path):
    set_path = _write_z15(tmp_path)
    assert run([
        "conference", set_path, "--source", "amalgam", "--gamma", 1,
        "--format", "json", "--out-dir", tmp_path,
    ]) == 0
    rows, cols, values, exact = cli.read_matrix_json(tmp_path / "conference_amalgam_gamma1.json")
    w = np.exp(2j * np.pi / 15)
    # printed first column: -(0, w, w^2, w^8, w^4)
    col = values[:, 0]
    expected = np.array([0, -w, -(w**2), -(w**8), -(w**4)])
    assert np.max(np.abs(col - expected)) < 1e-12
    assert exact[(1, 0)].single_root()[0] == -1


def test_conference_gamma_in_annihilator_rejected(tmp_path):
    set_path = _write_z15(tmp_path)
    assert run([
        "conference", set_path, "--source", "amalgam", "--gamma", 3, "--out-dir", tmp_path,
    ]) == 2


def test_conference_gamma_and_all_gammas_are_exclusive(tmp_path, capsys):
    set_path = _write_z15(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(["conference", set_path, "--source", "amalgam", "--gamma", 1, "--all-gammas",
             "--out-dir", tmp_path])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "conference.report.json").exists()


def test_back_to_back_calls_match_fresh_parsers(tmp_path, capsys, monkeypatch):
    set_path = _write_z15(tmp_path)
    calls = [
        ["conference", set_path, "--source", "amalgam", "--gamma", 1],
        ["conference", set_path, "--source", "amalgam"],
        ["conference", set_path, "--source", "amalgam", "--all-gammas"],
        ["verify", set_path, "--check", "conference", "--gamma", 2],
        ["verify", set_path, "--check", "conference"],
        ["frame", set_path, "--emit", "e-gamma", "--gamma", 2],
        ["frame", set_path, "--emit", "e-gamma"],
    ]

    def reports(fresh: bool) -> list:
        out = []
        for k, argv in enumerate(calls):
            if fresh:
                monkeypatch.setattr(cli, "_parser", None)
            out_dir = tmp_path / f"{'fresh' if fresh else 'kept'}{k}"
            assert run([*argv, "--out-dir", out_dir]) == 0
            out.append([(p.name, p.read_text().replace(str(out_dir), "")) for p in sorted(out_dir.iterdir())])
        return out

    kept = reports(False)
    assert reports(True) == kept

    seen = []
    assert run(["conference", set_path, "--source", "amalgam", "--gamma", 1, "--out-dir", tmp_path]) == 0
    monkeypatch.setattr(cli, "cmd_conference", lambda args: seen.append(args) or 0)
    assert run(["conference", set_path, "--source", "amalgam", "--out-dir", tmp_path]) == 0
    assert [(a.gamma, a.all_gammas) for a in seen] == [(None, False)]


def _write_z15_with(tmp_path, subgroup) -> Path:
    D = ek.cyclic_subset(15, [6, 11, 7, 12, 13, 3, 9, 14])
    path = tmp_path / "z15.json"
    cli.write_set(path, D, ek.Subgroup(D.group, tuple((h,) for h in subgroup)))
    return path


@pytest.mark.parametrize("subgroup, message", [
    ([0], "no character off the annihilator of H"),
    (range(15), "H must be a proper subgroup"),
], ids=["trivial", "whole_group"])
@pytest.mark.parametrize("argv", [
    ["verify", "--check", "conference"],
    ["verify", "--check", "conference", "--source", "srds"],
    ["conference", "--source", "amalgam"],
    ["conference", "--source", "amalgam", "--all-gammas"],
    ["conference", "--source", "srds"],
], ids=["verify", "verify_srds", "conference", "conference_all", "conference_srds"])
def test_conference_without_a_valid_gamma_exits_2(tmp_path, capsys, subgroup, message, argv):
    path = _write_z15_with(tmp_path, subgroup)
    assert run([argv[0], path, *argv[1:], "--out-dir", tmp_path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_conference_sweep_srds_q5(tmp_path):
    assert run(["construct", "srds", "--q", 5, "--out-dir", tmp_path]) == 0
    assert run([
        "conference", tmp_path / "srds_q5.json", "--source", "srds", "--all-gammas",
        "--format", "csv", "--out-dir", tmp_path,
    ]) == 0
    report = json.loads((tmp_path / "conference.report.json").read_text())
    # 24 characters minus the 6-element annihilator of the forbidden subgroup
    assert report["count"] == 18
    assert report["passed"]
    files = list(Path(tmp_path).glob("conference_srds_gamma*.csv"))
    assert len(files) == 18
    for entry in report["matrices"]:
        assert entry["result"]["passed"] and entry["result"]["size"] == 6


def test_cli_verify_agrees_with_library(tmp_path, z15_D, z15_H):
    set_path = _write_z15(tmp_path)
    lib = ek.eitff_check(z15_D, z15_H)
    code = run(["verify", set_path, "--check", "eitff", "--out-dir", tmp_path])
    report = json.loads((tmp_path / "verify_eitff.report.json").read_text())
    assert (code == 0) == lib.passed == report["passed"]
    assert abs(report["result"]["max_residual"] - lib.max_residual) < 1e-15


def test_complex_entry_format_roundtrip():
    for z in (0.5 - 0.25j, -1.0 + 0j, 3e-17 + 1j, complex(1 / 3, -2 / 7)):
        assert cli.parse_complex(cli._fmt_complex(z)) == z


def test_frame_gram_and_phi_gamma(tmp_path):
    set_path = _write_z15(tmp_path)
    assert run(["frame", set_path, "--emit", "gram", "--out-dir", tmp_path]) == 0
    rows, cols, values, _ = cli.read_matrix_json(tmp_path / "gram.json")
    assert len(rows) == 15 and abs(values[0][0] - 1.0) < 1e-12

    assert run(["frame", set_path, "--emit", "phi-gamma", "--gamma", 1, "--out-dir", tmp_path]) == 0
    rows, cols, values, _ = cli.read_matrix_json(tmp_path / "phi_gamma1.json")
    direct = ek.phi_gamma(*cli.read_set(set_path), (1,))
    assert np.max(np.abs(values - direct.values)) < 1e-12


def test_cap_env_var_limits_subgroup_search(tmp_path, monkeypatch):
    ms = ek.mcfarland(2, 2, [2, 2])
    path = tmp_path / "mcf.json"
    # no stored subgroup: classify must search, which the cap forbids
    cli.write_set(path, ms.D)
    monkeypatch.setenv("ETFKIT_CAP", "8")
    assert run(["verify", path, "--check", "eitff", "--out-dir", tmp_path]) == 2
    monkeypatch.delenv("ETFKIT_CAP")
    assert run(["verify", path, "--check", "eitff", "--out-dir", tmp_path]) == 1


@pytest.mark.parametrize(
    "payload",
    [
        {"group": [5], "elements": [[1]]},
        {"group": {"cyclic_orders": 5}, "elements": [[1]]},
        {"group": {"cyclic_orders": [5]}, "elements": 5},
        {"group": {"cyclic_orders": [5]}, "elements": [1, 2]},
        {"group": {"cyclic_orders": [5]}, "elements": [["a"]]},
        {"group": {"cyclic_orders": [5]}, "elements": [[1]], "display_order": 5},
        {"group": {"cyclic_orders": [5]}, "elements": [[1]], "subgroup": [0]},
        {"group": {"cyclic_orders": [5]}, "elements": [[1]], "subgroup": [[0], [7]]},
        [1, 2],
    ],
)
def test_malformed_set_file_exits_2(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert run(["classify", path, "--out-dir", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv", [["singer", "--q", 2, "--j", 12], ["srds", "--q", 1031]], ids=["singer", "srds"]
)
def test_construct_beyond_the_field_cap_exits_2_fast(tmp_path, capsys, argv):
    # GF(2^24) and GF(1031^2) both exceed the 2^20 field-order cap
    start = time.perf_counter()
    assert run(["construct", *argv, "--out-dir", tmp_path]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert f"cap {2**20}" in err


def test_group_order_cap_exits_2(tmp_path):
    argv = ["classify", "--group=2,99999999999999999999", "--elements=0,1", "--out-dir", str(tmp_path)]
    _assert_usage_error(argv)
    # order exactly 2^24 is within the cap
    argv = ["classify", "--group=4096,4096", "--elements=0,1;1,0", "--out-dir", str(tmp_path)]
    assert _run_quietly(argv)[0] == 0
    report = json.loads((tmp_path / "classify.report.json").read_text())
    assert report["certificate"]["not_ds_witness"] == {
        "element_1": [0, 1], "count_1": 0, "element_2": [1, 4095], "count_2": 1,
    }


def test_float_verdict_disagreeing_with_exact_exits_2(tmp_path, capsys):
    # at tolerance 10 the float residuals pass a matrix that is not unimodular
    assert run(["construct", "tpp", "--q", 17, "--out-dir", tmp_path]) == 0
    capsys.readouterr()
    argv = ["verify", tmp_path / "tpp_q17.json", "--check", "conference", "--tolerance", 10]
    assert run(argv + ["--out-dir", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_internal_assertion_is_not_reported_as_a_user_error(tmp_path, monkeypatch):
    # only a float/exact disagreement exits 2; a broken invariant propagates
    def broken(*args, **kwargs):
        raise AssertionError("invariant")

    assert run(["construct", "tpp", "--q", 5, "--out-dir", tmp_path]) == 0
    monkeypatch.setattr(cli.frames, "eitff_check", broken)
    with pytest.raises(AssertionError, match="invariant"):
        run(["verify", tmp_path / "tpp_q5.json", "--check", "eitff", "--out-dir", tmp_path])


# ---------------------------------------------------------------------------
# fuzzing: malformed input exits 2 with one error line, never a traceback

Z15_SET = {
    "schema_version": 1,
    "group": {"cyclic_orders": [15]},
    "elements": [[6], [11], [7], [12], [13], [3], [9], [14]],
    "subgroup": [[0], [5], [10]],
}
Z15_SUBGROUPS = [{0}, {0, 5, 10}, {0, 3, 6, 9, 12}, set(range(15))]
NOT_INTS = st.one_of(st.none(), st.floats(allow_nan=False), st.text(max_size=3),
                     st.lists(st.integers(0, 3), max_size=2))
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.floats(allow_nan=False),
              st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _not_a_json_object(text) -> bool:
    try:
        return not isinstance(json.loads(text), dict)
    except ValueError:
        return True


@st.composite
def malformed_set_files(draw):
    """Text of a set file that is malformed by construction: Z15_SET with
    one defect, or not a JSON object at all."""
    payload = copy.deepcopy(Z15_SET)
    kind = draw(st.sampled_from(["text", "deep", "missing", "type", "entry", "range", "orders",
                                 "subgroup", "display"]))
    if kind == "text":
        return draw(st.one_of(st.text(max_size=40), st.binary(max_size=40)).filter(_not_a_json_object))
    if kind == "deep":
        return "[" * draw(st.integers(1, 10**5))
    if kind == "missing":
        del payload[draw(st.sampled_from(["group", "elements"]))]
    elif kind == "type":
        key = draw(st.sampled_from(["group", "elements", "subgroup", "display_order"]))
        payload[key] = draw(JSON_VALUES.filter(
            lambda v: v is not None and not isinstance(v, dict if key == "group" else list)))
    elif kind == "entry":
        row = draw(st.sampled_from(payload["elements"]))
        row[0] = draw(NOT_INTS)
    elif kind == "range":
        i = draw(st.integers(0, len(payload["elements"]) - 1))
        payload["elements"][i] = draw(st.sampled_from([[-1], [15], [99], [], [1, 1]]))
    elif kind == "orders":
        payload["group"]["cyclic_orders"] = draw(st.sampled_from([[], [0], [-15], [15, 0]]))
    elif kind == "subgroup":
        members = draw(st.sets(st.integers(0, 14), min_size=1).filter(
            lambda m: m not in Z15_SUBGROUPS))
        payload["subgroup"] = [[h] for h in sorted(members)]
    else:
        order = draw(st.permutations(payload["elements"]))
        payload["display_order"] = order[:-1] + draw(st.sampled_from([[], [[0]], order[:1]]))
    return json.dumps(payload)


def _run_quietly(argv) -> tuple[int, str]:
    """Exit code and stderr of the CLI; an uncaught exception propagates."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _assert_usage_error(argv):
    code, err = _run_quietly(argv)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@settings(max_examples=150, deadline=None)
@given(malformed_set_files())
def test_fuzzed_malformed_set_files_exit_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        _assert_usage_error(["classify", str(path), "--out-dir", tmp])


def _inline_set_is_valid(group: str, elements: str) -> bool:
    try:
        orders = [int(x) for x in group.split(",")]
        els = [[int(x) for x in e.split(",")] for e in elements.split(";")]
    except ValueError:
        return False
    return min(orders) >= 1 and all(
        len(e) == len(orders) and all(0 <= r < n for r, n in zip(e, orders)) for e in els
    )


# at most four characters: every group that parses has order below 10^4
INLINE_GROUPS = st.one_of(st.text("0123456789,;- x", max_size=4),
                          st.lists(st.integers(-2, 9), min_size=1, max_size=2).map(
                              lambda ns: ",".join(map(str, ns))))
INLINE_ELEMENTS = st.one_of(st.text("0123456789,;- x", max_size=12),
                            st.lists(st.lists(st.integers(-2, 12), min_size=1, max_size=3),
                                     min_size=1, max_size=4).map(
                                lambda es: ";".join(",".join(map(str, e)) for e in es)))


@settings(max_examples=150, deadline=None)
@given(INLINE_GROUPS, INLINE_ELEMENTS)
def test_fuzzed_inline_sets_exit_2_unless_valid(group, elements):
    with tempfile.TemporaryDirectory() as tmp:
        # the "=" form keeps a value that starts with "-" a value, not an option
        argv = ["classify", f"--group={group}", f"--elements={elements}", "--out-dir", tmp]
        if _inline_set_is_valid(group, elements):
            assert _run_quietly(argv)[0] == 0
        else:
            _assert_usage_error(argv)
