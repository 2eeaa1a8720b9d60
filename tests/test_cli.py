import json
import math
from pathlib import Path

import numpy as np
import pytest

import etfkit as ek
from etfkit import cli


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
        [1, 2],
    ],
)
def test_malformed_set_file_exits_2(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert run(["classify", path, "--out-dir", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
