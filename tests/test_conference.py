from fractions import Fraction

import numpy as np
import pytest

import etfkit as ek
from etfkit.cyclotomic import Cyclotomic

from conftest import reference_exact_autocorrelation

W = lambda e: Cyclotomic.root(e, 15)


def _first_column_exponents(conf):
    out = []
    for cell in conf.first_column:
        sr = cell.single_root()
        out.append(None if sr is None or sr[0] == 0 else sr)
    return out


@pytest.mark.parametrize("gamma", [(16,), (1, 2)])
def test_conference_rejects_a_character_outside_the_group(z15_D, z15_H, gamma):
    for build in (ek.conference_from_amalgam, ek.conference_from_srds):
        with pytest.raises(ValueError, match="not an element of the group"):
            build(z15_D, z15_H, gamma)


def test_amalgam_route_matches_printed_c1(z15_D, z15_H):
    c1 = ek.conference_from_amalgam(z15_D, z15_H, (1,))
    assert c1.size == 5 and c1.s == 4
    # printed first column: -(0, w, w^2, w^8, w^4), including the global sign
    assert c1.scale_sq == 1
    expected = [None] + [(Fraction(-1), e, 15) for e in (1, 2, 8, 4)]
    assert _first_column_exponents(c1) == expected
    assert ek.verify_conference(c1).passed


def test_amalgam_route_matches_printed_c2(z15_D, z15_H):
    c2 = ek.conference_from_amalgam(z15_D, z15_H, (2,))
    expected = [None] + [(Fraction(-1), e, 15) for e in (2, 4, 1, 8)]
    assert _first_column_exponents(c2) == expected
    report = ek.verify_conference(c2)
    assert report.passed and report.s == 4
    assert report.exact_unimodular and report.exact_autocorrelation


def test_srds_route_matches_printed_matrix(z15_H):
    A = ek.cyclic_subset(15, [1, 2, 8, 4])
    chat = ek.conference_from_srds(A, z15_H, (1,))
    expected = [None] + [(Fraction(1), e, 15) for e in (1, 2, 8, 4)]
    assert _first_column_exponents(chat) == expected
    assert ek.verify_conference(chat).passed
    # materialized row for the zero coset: entries y(0 - g') read backwards
    m = chat.materialize()
    assert abs(m.entry((0,), (1,)) - complex(W(4))) < 1e-12


def test_srds_entrywise_power_invariance(z15_H):
    # raising each entry to a power coprime to the root order preserves the
    # conference property for this instance
    A = ek.cyclic_subset(15, [1, 2, 8, 4])
    chat = ek.conference_from_srds(A, z15_H, (1,))
    for k in (2, 4):
        powered = ek.CirculantConference(
            chat.subgroup,
            chat.coset_reps,
            tuple(
                Cyclotomic.zero(15) if c.is_zero() else Cyclotomic.root(k * c.single_root()[1], 15)
                for c in chat.first_column
            ),
            Fraction(1),
            chat.s,
        )
        assert ek.verify_conference(powered).passed


def test_gamma_in_annihilator_rejected(z15_D, z15_H):
    with pytest.raises(ValueError):
        ek.conference_from_amalgam(z15_D, z15_H, (3,))
    with pytest.raises(ValueError):
        ek.conference_from_srds(ek.cyclic_subset(15, [1, 2, 8, 4]), z15_H, (6,))


def test_gamma_sweep_all_valid_characters(z15_D, z15_H):
    ann = set(z15_H.annihilator().elements)
    count = 0
    for chi in z15_D.group.characters:
        if chi in ann:
            continue
        report = ek.verify_conference(ek.conference_from_amalgam(z15_D, z15_H, chi))
        assert report.passed
        count += 1
    assert count == 10


def test_simplicial_quadratic_conference_q7():
    sr = ek.simplicial_rds_quadratic(7)
    ann = set(sr.K.annihilator().elements)
    gamma = next(c for c in sr.group.characters if c not in ann)
    conf = ek.conference_from_srds(sr.A, sr.K, gamma)
    assert conf.size == 8
    report = ek.verify_conference(conf)
    assert report.passed and report.s == 7


def test_two_by_two_real_conference():
    g = ek.group_new([2])
    conf = ek.CirculantConference(
        ek.Subgroup.trivial(g),
        ((0,), (1,)),
        (Cyclotomic.zero(2), Cyclotomic.from_rational(1, 2)),
        Fraction(1),
        1,
    )
    report = ek.verify_conference(conf)
    assert report.passed and report.s == 1
    m = conf.materialize()
    assert np.max(np.abs(m.values - np.array([[0, 1], [1, 0]]))) < 1e-12


def test_perturbed_matrix_fails(z15_D, z15_H):
    c1 = ek.conference_from_amalgam(z15_D, z15_H, (1,))
    broken = ek.CirculantConference(
        c1.subgroup,
        c1.coset_reps,
        (c1.first_column[0], Cyclotomic.zero(15)) + c1.first_column[2:],
        c1.scale_sq,
        c1.s,
    )
    report = ek.verify_conference(broken)
    assert not report.passed
    assert report.unimodularity_residual > 0.5
    assert report.product_residual > 1e-3


def test_non_amalgam_input_fails_verification(mcf22):
    # fine but not an amalgam: construction goes through, verification fails
    ann = set(mcf22.H.annihilator().elements)
    gamma = next(c for c in mcf22.group.characters if c not in ann)
    conf = ek.conference_from_amalgam(mcf22.D, mcf22.H, gamma)
    report = ek.verify_conference(conf)
    assert not report.passed
    assert not report.exact_unimodular


def test_tpp11_thirteen_by_thirteen():
    tc = ek.tpp_complement(11)
    cert = ek.classify(tc.D)
    assert cert.amalgam
    ann = set(tc.H.annihilator().elements)
    gamma = next(c for c in tc.group.characters if c not in ann)
    conf = ek.conference_from_amalgam(tc.D, tc.H, gamma)
    assert conf.size == 13
    report = ek.verify_conference(conf)
    assert report.passed and report.s == 12
    assert report.exact_autocorrelation


def test_scalar_relation_running_example(z15_D, z15_H, z15_cert):
    A, B = z15_cert.composite_witness
    report = ek.scalar_relation_check(z15_D, z15_H, A, B, (1,))
    assert report.passed
    assert abs(report.z - (-1)) < 1e-9
    # conjugate character gives the conjugate scalar
    r2 = ek.scalar_relation_check(z15_D, z15_H, A, B, (14,))
    assert abs(report.z.conjugate() - r2.z) < 1e-9


def test_scalar_relation_on_singer_3_2():
    sc = ek.singer_complement(3, 2)
    ann = set(sc.H.annihilator().elements)
    gamma = next(c for c in sc.group.characters if c not in ann)
    report = ek.scalar_relation_check(sc.D, sc.H, sc.A, sc.B, gamma)
    assert report.passed
    assert abs(abs(report.z) - 1) < 1e-9


def test_first_column_autocorrelation_exact(z15_H):
    A = ek.cyclic_subset(15, [1, 2, 8, 4])
    conf = ek.conference_from_srds(A, z15_H, (2,))
    assert ek.verify_conference(conf).exact_autocorrelation


def test_float_verdict_disagreeing_with_exact_flags_raises():
    # tpp q=17 is fine but not an amalgam: the amalgam-route column is not
    # unimodular, which a loose tolerance would let the doubles accept
    tc = ek.tpp_complement(17)
    ann = set(tc.H.annihilator().elements)
    gamma = next(c for c in tc.group.characters if c not in ann)
    conf = ek.conference_from_amalgam(tc.D, tc.H, gamma)
    report = ek.verify_conference(conf)
    assert not report.passed and not report.exact_unimodular
    with pytest.raises(AssertionError):
        ek.verify_conference(conf, tol=10.0)


def _conference_cases():
    z15 = ek.cyclic_subset(15, [6, 11, 7, 12, 13, 3, 9, 14])
    tc, mcf = ek.tpp_complement(11), ek.mcfarland(2, 2)
    srds = {q: ek.simplicial_rds_quadratic(q) for q in (5, 7)}
    return [
        pytest.param(ek.conference_from_amalgam, z15, ek.classify(z15).fine_subgroup, True, id="z15"),
        *(pytest.param(ek.conference_from_srds, sr.A, sr.K, True, id=f"srds{q}")
          for q, sr in srds.items()),
        pytest.param(ek.conference_from_amalgam, tc.D, tc.H, True, id="tpp11"),
        # fine but not an amalgam: verification fails through exact_unimodular
        pytest.param(ek.conference_from_amalgam, mcf.D, mcf.H, False, id="mcfarland22"),
    ]


@pytest.mark.parametrize("build, X, H, conference", _conference_cases())
def test_exact_autocorrelation_matches_reference_for_every_gamma(build, X, H, conference):
    ann = set(H.annihilator().elements)
    for gamma in X.group.characters:
        if gamma in ann:
            continue
        conf = build(X, H, gamma)
        report = ek.verify_conference(conf)
        assert report.exact_autocorrelation == reference_exact_autocorrelation(conf), gamma
        assert report.passed == report.exact_unimodular == conference, gamma


def test_unimodular_column_with_nonzero_off_peak_autocorrelation_fails():
    # first column (0, 1, i) over Z_3: unimodular, and |1 + i|^2 = S = 2, but
    # the autocorrelation at the shift by one is i, not 0
    g = ek.group_new([3])
    conf = ek.CirculantConference(
        ek.Subgroup.trivial(g),
        g.elements,
        (Cyclotomic.zero(4), Cyclotomic.root(0, 4), Cyclotomic.root(1, 4)),
        Fraction(1),
        2,
    )
    report = ek.verify_conference(conf)
    assert report.exact_zero_diagonal and report.exact_unimodular
    assert not report.exact_autocorrelation and not reference_exact_autocorrelation(conf)
    assert not report.passed


@pytest.mark.parametrize("build", [ek.conference_from_amalgam, ek.conference_from_srds])
def test_conference_over_the_whole_group_is_rejected(build):
    D = ek.cyclic_subset(15, [6, 11, 7, 12, 13, 3, 9, 14])
    with pytest.raises(ValueError, match="H must be a proper subgroup"):
        build(D, ek.Subgroup.full(D.group), (1,))
