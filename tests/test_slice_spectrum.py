"""The fusion-frame checks, fineness and the amalgam certificate read from
the coset-slice table, against the dense references in conftest."""

import contextlib
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import etfkit as ek
from etfkit import cli, frames
from etfkit.classify import _SliceTable
from etfkit.groups import VerdictDisagreement

from conftest import (
    reference_ectff, reference_eitff, reference_etf, reference_fine_fourier, reference_is_amalgam,
    reference_triple_product,
)


def _outcome(check):
    """The check's report, or the type of what it raised."""
    try:
        return check()
    except (ValueError, AssertionError) as exc:
        return type(exc)


def _assert_fusion_reports_agree(got, want):
    if isinstance(want, type) or isinstance(got, type):
        assert got == want
        return
    assert got.passed == want.passed
    assert (got.kind, got.num_subspaces, got.subspace_dim, got.pairs_checked) == (
        want.kind, want.num_subspaces, want.subspace_dim, want.pairs_checked)
    assert abs(got.max_residual - want.max_residual) <= 1e-12
    assert got.sigma_target == want.sigma_target
    assert got.agrees_with_amalgam == want.agrees_with_amalgam
    assert (got.pair_angles is None) == (want.pair_angles is None)
    for (a1, b1, angles1), (a2, b2, angles2) in zip(got.pair_angles or (), want.pair_angles or ()):
        assert (a1, b1) == (a2, b2)
        # compare cosines: arccos amplifies rounding next to 1
        assert np.max(np.abs(np.cos(angles1) - np.cos(angles2))) <= 1e-12


def _assert_triple_reports_agree(got, want):
    if isinstance(want, type) or isinstance(got, type):
        assert got == want
        return
    assert got.passed == want.passed
    assert got.triples_checked == want.triples_checked
    assert got.exhaustive and want.exhaustive
    assert abs(got.max_residual - want.max_residual) <= 1e-12
    assert abs(got.max_offcoset_modulus_residual - want.max_offcoset_modulus_residual) <= 1e-12


def _verify_etf(D):
    """The report of ``verify --check etf`` on D."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "set.json"
        cli.write_set(path, D)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", str(path), "--check", "etf", "--out-dir", tmp])
        report = json.loads((Path(tmp) / "verify_etf.report.json").read_text())
    assert code == (0 if report["passed"] else 1)
    return report


def _first_slice(D, H):
    rep = next(g for g, _ in H.cosets if not H.contains(g))
    return ek.compute_Dg(D, H, rep)


def _assert_table_agrees(D, H):
    """Amalgam and fineness verdicts from the slice table, against the
    references over all of G."""
    assert _outcome(lambda: ek.is_amalgam(D, H)) == _outcome(lambda: reference_is_amalgam(D, H))
    assert (_SliceTable(D, H).not_fine is None) == reference_fine_fourier(D, H)


def _assert_all_checks_agree(D, H, B):
    _assert_table_agrees(D, H)
    for check, reference in ((ek.ectff_check, reference_ectff), (ek.eitff_check, reference_eitff)):
        _assert_fusion_reports_agree(_outcome(lambda: check(D, H)), _outcome(lambda: reference(D, H)))
    _assert_triple_reports_agree(
        _outcome(lambda: ek.triple_product_check(D, H, None, B)),
        _outcome(lambda: reference_triple_product(D, H, B, max_triples=10**6)),
    )


FAMILIES = {
    "singer_2_2": lambda: ek.singer_complement(2, 2),
    "singer_4_2": lambda: ek.singer_complement(4, 2),
    "tpp_5": lambda: ek.tpp_complement(5),
    "tpp_11": lambda: ek.tpp_complement(11),
    "mcfarland_2_3": lambda: ek.mcfarland(2, 3),
    "mcfarland_2_2_22": lambda: ek.mcfarland(2, 2, [2, 2]),
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_family_checks_match_the_dense_references(name):
    fam = FAMILIES[name]()
    D, H = fam.D, fam.H
    composite = ek.is_composite(D, H)
    B = composite[1] if composite else _first_slice(D, H)
    _assert_all_checks_agree(D, H, B)
    got, want = _verify_etf(D), reference_etf(D)
    assert got["passed"] == want["passed"] and got["lam"] == want["lam"]
    for key in ("coherence", "welch_bound", "tight_constant"):
        assert abs(got[key] - want[key]) <= 1e-12


# (cyclic orders, order of H); every H has at least three elements, so
# triple products exist
FINE_SHAPES = [((15,), 3), ((2, 2, 2, 2), 4), ((21,), 7), ((4, 4), 4), ((35,), 5), ((35,), 7),
               ((3, 9), 9), ((2, 2, 3), 3), ((2, 8), 4)]


@st.composite
def fine_subsets(draw):
    """A random subset with one equal-size slice in every nonidentity coset
    of a subgroup H, H, and a random subset B of one coset of H."""
    orders, n = draw(st.sampled_from(FINE_SHAPES))
    G = ek.group_new(orders)
    H = draw(st.sampled_from(ek.subgroups_of_order(G, n)))
    k = draw(st.integers(min_value=1, max_value=n))
    els = []
    for rep, members in H.cosets:
        if not H.contains(rep):
            els += draw(st.lists(st.sampled_from(members), min_size=k, max_size=k, unique=True))
    coset = draw(st.sampled_from(H.cosets))[1]
    B = draw(st.lists(st.sampled_from(coset), min_size=1, max_size=n, unique=True))
    return ek.subset(G, els), H, ek.subset(G, B)


@settings(max_examples=60, deadline=None)
@given(fine_subsets(), st.booleans())
def test_random_fine_subsets_match_the_dense_references(case, slice_as_b):
    D, H, B = case
    _assert_all_checks_agree(D, H, _first_slice(D, H) if slice_as_b else B)
    # toggling B's points changes the count of one coset: mostly not fine
    _assert_table_agrees(ek.subset(D.group, set(D.elements) ^ set(B.elements)), H)
    got, want = _verify_etf(D), reference_etf(D)
    assert got["passed"] == want["passed"]
    assert abs(got["coherence"] - want["coherence"]) <= 1e-12


def test_fusion_checks_build_no_dense_matrix(monkeypatch, tmp_path, z15_D, z15_H, z15_cert):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense path called")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(frames, "harmonic_synthesis", forbidden)
    monkeypatch.setattr(frames, "coset_isometries", forbidden)
    A, B = z15_cert.composite_witness
    assert ek.ectff_check(z15_D, z15_H).passed
    assert ek.eitff_check(z15_D, z15_H).passed
    assert ek.triple_product_check(z15_D, z15_H, A, B).passed
    path = tmp_path / "z15.json"
    cli.write_set(path, z15_D, z15_H)
    for check in ("etf", "ectff", "eitff", "triple"):
        assert cli.main(["verify", str(path), "--check", check, "--out-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("q, check", [(17, "eitff"), (11, "triple"), (None, "etf")])
def test_a_loose_tolerance_that_passes_a_float_test_raises(tmp_path, capsys, q, check):
    if q is None:  # not a difference set
        D, H = ek.cyclic_subset(15, [1, 2, 3]), None
    else:
        fam = ek.tpp_complement(q)
        D, H = fam.D, fam.H
        with pytest.raises(VerdictDisagreement):
            if check == "eitff":
                ek.eitff_check(D, H, tol=1.0)
            else:
                ek.triple_product_check(D, H, None, _first_slice(D, H), tol=1.0)
    path = tmp_path / "set.json"
    cli.write_set(path, D, H)
    assert cli.main(["verify", str(path), "--check", check, "--tolerance", "1",
                     "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_exact_verdicts_at_the_default_tolerance(tmp_path):
    fam = ek.tpp_complement(11)
    B = _first_slice(fam.D, fam.H)
    report = ek.triple_product_check(fam.D, fam.H, None, B)
    assert not report.passed and report.exhaustive and report.triples_checked == 11 * 10 * 9
    path = tmp_path / "tpp_q11.json"
    cli.write_set(path, fam.D, fam.H)
    assert cli.main(["verify", str(path), "--check", "triple", "--out-dir", str(tmp_path)]) == 1
    result = json.loads((tmp_path / "verify_triple.report.json").read_text())["result"]
    assert result["exhaustive"] and result["triples_checked"] == 990


def test_triple_product_rejects_b_across_cosets(z15_D, z15_H):
    # 1 and 2 lie in different cosets of {0, 5, 10}
    with pytest.raises(ValueError, match="one coset"):
        ek.triple_product_check(z15_D, z15_H, None, ek.cyclic_subset(15, [1, 2]))
    # a translate of a slice into any one coset is accepted
    assert ek.triple_product_check(z15_D, z15_H, None, ek.cyclic_subset(15, [6, 11])).passed


def _peak_bytes(check, *args):
    tracemalloc.start()
    try:
        check(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("check", [ek.ectff_check, ek.eitff_check])
def test_fusion_checks_build_no_square_table_on_large_h(check):
    # S = 1: H has order 2048 and an n x n int64 table would take 32 MiB
    D = ek.cyclic_subset(4096, [1])
    H = ek.is_fine(D)
    assert H.order == 2048 and check(D, H).passed
    assert _peak_bytes(check, D, H) < 16 * 2**20
