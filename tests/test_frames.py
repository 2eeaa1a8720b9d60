import math
import random
from fractions import Fraction

import numpy as np
import pytest

import etfkit as ek
from etfkit.cyclotomic import Cyclotomic
from etfkit.matrices import from_cells

W15 = lambda e: Cyclotomic.root(e, 15)

# the 8x15 synthesis operator of the running example: exponent of w at each
# entry; rows in the display order (6,11,7,12,13,3,9,14), columns n = 0..14
PHI_8x15_EXPONENTS = [
    [0, 6, 12, 3, 9, 0, 6, 12, 3, 9, 0, 6, 12, 3, 9],
    [0, 11, 7, 3, 14, 10, 6, 2, 13, 9, 5, 1, 12, 8, 4],
    [0, 7, 14, 6, 13, 5, 12, 4, 11, 3, 10, 2, 9, 1, 8],
    [0, 12, 9, 6, 3, 0, 12, 9, 6, 3, 0, 12, 9, 6, 3],
    [0, 13, 11, 9, 7, 5, 3, 1, 14, 12, 10, 8, 6, 4, 2],
    [0, 3, 6, 9, 12, 0, 3, 6, 9, 12, 0, 3, 6, 9, 12],
    [0, 9, 3, 12, 6, 0, 9, 3, 12, 6, 0, 9, 3, 12, 6],
    [0, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1],
]

# the 4x5 regular-simplex synthesis over Z_15/{0,5,10}; rows are the cosets
# of 1..4, columns the annihilator characters (0,3,6,9,12)
PSI_4x5_EXPONENTS = [
    [0, 3, 6, 9, 12],
    [0, 6, 12, 3, 9],
    [0, 9, 3, 12, 6],
    [0, 12, 9, 6, 3],
]

# the middle 8x5 block of the shuffled frame: Phi_1, columns (1,4,7,10,13)
PHI1_8x5_EXPONENTS = [
    [6, 9, 12, 0, 3],
    [11, 14, 2, 5, 8],
    [7, 13, 4, 10, 1],
    [12, 3, 9, 0, 6],
    [13, 7, 1, 10, 4],
    [3, 12, 6, 0, 9],
    [9, 6, 3, 0, 12],
    [14, 11, 8, 5, 2],
]

# sparse isometries, same row order, columns the nonidentity cosets 1..4;
# None marks a structural zero, an integer the exponent of w
E0_PATTERN = [
    [0, None, None, None],
    [0, None, None, None],
    [None, 0, None, None],
    [None, 0, None, None],
    [None, None, 0, None],
    [None, None, 0, None],
    [None, None, None, 0],
    [None, None, None, 0],
]
E1_PATTERN = [
    [6, None, None, None],
    [11, None, None, None],
    [None, 7, None, None],
    [None, 12, None, None],
    [None, None, 13, None],
    [None, None, 3, None],
    [None, None, None, 9],
    [None, None, None, 14],
]
E2_PATTERN = [
    [12, None, None, None],
    [7, None, None, None],
    [None, 14, None, None],
    [None, 9, None, None],
    [None, None, 11, None],
    [None, None, 6, None],
    [None, None, None, 3],
    [None, None, None, 13],
]


def _pattern_matrix(pattern, row_labels, col_labels, scale_sq):
    cells = [
        [Cyclotomic.zero(15) if e is None else W15(e) for e in row] for row in pattern
    ]
    return from_cells(row_labels, col_labels, cells, scale_sq)


def test_welch_bound_values():
    assert abs(ek.welch_bound(8, 15) - 0.25) < 1e-15
    assert abs(ek.welch_bound(6, 16) - 1 / 3) < 1e-15
    with pytest.raises(ValueError):
        ek.welch_bound(4, 1)


def test_harmonic_synthesis_matches_printed_matrix(z15_D):
    phi = ek.harmonic_synthesis(z15_D)
    assert phi.shape == (8, 15)
    assert phi.row_labels == tuple((d,) for d in (6, 11, 7, 12, 13, 3, 9, 14))
    expected = _pattern_matrix(PHI_8x15_EXPONENTS, phi.row_labels, phi.col_labels, Fraction(1, 8))
    assert phi.exact_equals(expected)


def test_harmonic_synthesis_full_group_orthogonal_rows():
    g = ek.group_new([6])
    phi = ek.harmonic_synthesis(ek.subset(g, g.elements))
    frame_op = phi.values @ phi.values.conj().T
    assert np.max(np.abs(frame_op - np.eye(6))) < 1e-12


def test_coherence_achieves_welch(z15_D):
    phi = ek.harmonic_synthesis(z15_D)
    assert abs(ek.coherence(phi) - 0.25) < 1e-9
    assert abs(ek.coherence(phi) - ek.welch_bound(8, 15)) < 1e-9


def test_coherence_of_orthonormal_columns_is_zero():
    g = ek.group_new([5])
    phi = ek.harmonic_synthesis(ek.subset(g, g.elements))
    assert ek.coherence(phi) < 1e-12


def test_coherence_needs_two_columns():
    from etfkit.matrices import identity_matrix

    with pytest.raises(ValueError):
        ek.coherence(identity_matrix([(0,)]))


def test_check_tight(z15_D):
    phi = ek.harmonic_synthesis(z15_D)
    c = ek.check_tight(phi)
    assert c is not None and abs(c - 15 / 8) < 1e-9
    from etfkit.matrices import identity_matrix

    assert abs(ek.check_tight(identity_matrix([(0,), (1,)])) - 1.0) < 1e-12
    # a non-tight matrix: two arbitrary columns in dimension 2
    bad = from_cells(
        [(0,), (1,)],
        [(0,), (1,)],
        [[Cyclotomic.root(0, 4), Cyclotomic.root(1, 4)], [Cyclotomic.zero(4), Cyclotomic.root(2, 4)]],
        Fraction(1),
    )
    assert ek.check_tight(bad) is None


def test_simplex_psi_matches_printed_matrix(z15_D, z15_H):
    psi = ek.simplex_psi(z15_D.group, z15_H)
    assert psi.row_labels == ((1,), (2,), (3,), (4,))
    assert psi.col_labels == ((0,), (3,), (6,), (9,), (12,))
    expected = _pattern_matrix(PSI_4x5_EXPONENTS, psi.row_labels, psi.col_labels, Fraction(1, 4))
    assert psi.exact_equals(expected)
    c = ek.check_tight(psi)
    assert c is not None and abs(c - 5 / 4) < 1e-9


def test_simplex_psi_gram_structure(z15_D, z15_H):
    psi = ek.simplex_psi(z15_D.group, z15_H)
    g = ek.gram(psi).values
    s = 4
    expected = ((s + 1) * np.eye(s + 1) - np.ones((s + 1, s + 1))) / s
    assert np.max(np.abs(g - expected)) < 1e-12


def test_simplex_psi_tetrahedron(mcf22):
    psi = ek.simplex_psi(mcf22.group, mcf22.H)
    assert psi.shape == (3, 4)
    # the classic tetrahedron: entries (-1)^(k.m)/sqrt(3); the source print
    # orders columns 0000, 1000, 0100, 1100 and rows 10, 01, 11 on the K part
    printed = {
        ((1, 0), (0, 0, 0, 0)): 1, ((1, 0), (1, 0, 0, 0)): -1,
        ((1, 0), (0, 1, 0, 0)): 1, ((1, 0), (1, 1, 0, 0)): -1,
        ((0, 1), (0, 0, 0, 0)): 1, ((0, 1), (1, 0, 0, 0)): 1,
        ((0, 1), (0, 1, 0, 0)): -1, ((0, 1), (1, 1, 0, 0)): -1,
        ((1, 1), (0, 0, 0, 0)): 1, ((1, 1), (1, 0, 0, 0)): -1,
        ((1, 1), (0, 1, 0, 0)): -1, ((1, 1), (1, 1, 0, 0)): 1,
    }
    for (krow, chi), sign in printed.items():
        row = next(r for r in psi.row_labels if r[:2] == krow)
        got = psi.entry(row, chi)
        assert abs(got - sign / math.sqrt(3)) < 1e-12


# the printed 6x16 sign matrix of the McFarland ETF(6,16); rows in the order
# (1000, 1001, 0100, 0110, 1100, 1111), columns in first-coordinate-fastest
# order (0000, 1000, 0100, 1100, 0010, ..., 1111)
MCF_SIGNS = [
    [1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1],
    [1, -1, 1, -1, 1, -1, 1, -1, -1, 1, -1, 1, -1, 1, -1, 1],
    [1, 1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1],
    [1, 1, -1, -1, -1, -1, 1, 1, 1, 1, -1, -1, -1, -1, 1, 1],
    [1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1, 1],
    [1, -1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1, -1, -1, 1],
]
MCF_ROWS = [(1, 0, 0, 0), (1, 0, 0, 1), (0, 1, 0, 0), (0, 1, 1, 0), (1, 1, 0, 0), (1, 1, 1, 1)]


def test_mcfarland_synthesis_matches_printed_matrix(mcf22):
    D = ek.GroupSubset(mcf22.group, mcf22.D.elements, display_order=tuple(MCF_ROWS))
    phi = ek.harmonic_synthesis(D)
    scale = 1 / math.sqrt(6)
    # the source print enumerates characters first-coordinate-fastest (0000,
    # 1000, 0100, 1100, 0010, ...); look entries up by label, not position
    cols = sorted(mcf22.group.characters, key=lambda c: (c[3], c[2], c[1], c[0]))
    for i, d in enumerate(MCF_ROWS):
        for j, chi in enumerate(cols):
            assert abs(phi.entry(d, chi) - MCF_SIGNS[i][j] * scale) < 1e-12


def test_phi_gamma_examples(z15_D, z15_H):
    g = z15_D.group
    # trivial character: the columns indexed by the annihilator itself
    phi0 = ek.phi_gamma(z15_D, z15_H, (0,))
    full = ek.harmonic_synthesis(z15_D)
    for chi in ((0,), (3,), (6,), (9,), (12,)):
        col = [full.entry(d, chi) for d in z15_D.ordered]
        got = [phi0.entry(d, chi) for d in z15_D.ordered]
        assert np.max(np.abs(np.array(col) - np.array(got))) < 1e-12
    # the printed middle block at gamma = 1
    phi1 = ek.phi_gamma(z15_D, z15_H, (1,))
    expected = _pattern_matrix(PHI1_8x5_EXPONENTS, phi1.row_labels, phi1.col_labels, Fraction(1, 8))
    assert phi1.exact_equals(expected)


def test_phi_gamma_column_sum_vanishes(z15_D, z15_H):
    for n in range(15):
        block = ek.phi_gamma(z15_D, z15_H, (n,))
        assert np.max(np.abs(block.values.sum(axis=1))) < 1e-12


def test_e_gamma_matches_printed_isometries(z15_D, z15_H):
    reps = ((1,), (2,), (3,), (4,))
    for n, pattern in ((0, E0_PATTERN), (1, E1_PATTERN), (2, E2_PATTERN)):
        e = ek.e_gamma(z15_D, z15_H, (n,))
        assert e.col_labels == reps
        expected = _pattern_matrix(pattern, e.row_labels, reps, Fraction(1, 2))
        assert e.exact_equals(expected)
        assert (e.adjoint() @ e).identity_residual() < 1e-12


def test_e_gamma_column_support_size(z15_D, z15_H):
    e = ek.e_gamma(z15_D, z15_H, (7,))
    support = (np.abs(e.values) > 1e-12).sum(axis=0)
    assert list(support) == [2, 2, 2, 2]  # D/S nonzeros per column


@pytest.mark.parametrize("gamma", [(16,), (1, 2)])
def test_isometries_reject_a_character_outside_the_group(z15_D, z15_H, gamma):
    for build in (ek.e_gamma, ek.phi_gamma):
        with pytest.raises(ValueError, match="not an element of the group"):
            build(z15_D, z15_H, gamma)


def test_simplex_psi_rejects_a_subgroup_of_another_group(z15_H):
    with pytest.raises(ValueError, match="subgroup of the given group"):
        ek.simplex_psi(ek.group_new([21]), z15_H)


def test_e_gamma_requires_fine_input():
    D = ek.cyclic_subset(7, [1, 2, 4])
    H = ek.Subgroup.trivial(D.group)
    with pytest.raises(ValueError):
        ek.e_gamma(D, ek.Subgroup.generated_by(D.group, [(1,)]), (0,))


def test_factorization_phi_equals_e_psi(z15_D, z15_H):
    psi = ek.simplex_psi(z15_D.group, z15_H)
    for n in range(15):
        phi_n = ek.phi_gamma(z15_D, z15_H, (n,))
        e_n = ek.e_gamma(z15_D, z15_H, (n,))
        assert np.max(np.abs(phi_n.values - (e_n @ psi).values)) < 1e-9
        assert (e_n.adjoint() @ e_n).identity_residual() < 1e-12
        # E = (S/(S+1)) Phi Psi*
        back = (phi_n @ psi.adjoint()).values * (4 / 5)
        assert np.max(np.abs(back - e_n.values)) < 1e-9


def test_cross_gram_printed_values(z15_D, z15_H):
    e0 = ek.e_gamma(z15_D, z15_H, (0,))
    e1 = ek.e_gamma(z15_D, z15_H, (1,))
    e2 = ek.e_gamma(z15_D, z15_H, (2,))
    cg01 = ek.cross_gram(e0, e1, check_diagonal=True)
    cg12 = ek.cross_gram(e1, e2, check_diagonal=True)
    cg02 = ek.cross_gram(e0, e2, check_diagonal=True)
    reps = ((1,), (2,), (3,), (4,))

    def diag_target(exps):
        cells = [
            [W15(exps[i]) * Fraction(-1, 2) if i == j else Cyclotomic.zero(15) for j in range(4)]
            for i in range(4)
        ]
        return from_cells(reps, reps, cells, Fraction(1))

    assert cg01.exact_equals(diag_target([1, 2, 8, 4]))
    assert cg12.exact_equals(diag_target([1, 2, 8, 4]))
    assert cg02.exact_equals(diag_target([2, 4, 1, 8]))
    # self cross-Gram is the identity
    assert ek.cross_gram(e0, e0, check_diagonal=True).identity_residual() < 1e-12


def test_principal_angles_examples(z15_D, z15_H):
    e0 = ek.e_gamma(z15_D, z15_H, (0,))
    e1 = ek.e_gamma(z15_D, z15_H, (1,))
    report = ek.principal_angles(e0, e1)
    assert all(abs(s - 0.5) < 1e-9 for s in report.singular_values)
    assert all(abs(a - math.pi / 3) < 1e-9 for a in report.principal_angles)
    assert abs(report.spectral_sq - 0.75) < 1e-9
    assert abs(report.chordal_sq - 3.0) < 1e-9
    same = ek.principal_angles(e0, e0)
    assert all(abs(a) < 1e-9 for a in same.principal_angles)


def test_principal_angles_oracle_crosscheck(z15_D, z15_H):
    # independent route: eigenvalues of M* M
    e0 = ek.e_gamma(z15_D, z15_H, (0,))
    e1 = ek.e_gamma(z15_D, z15_H, (7,))
    m = e0.values.conj().T @ e1.values
    eig = np.linalg.eigvalsh(m.conj().T @ m)
    sigma_oracle = np.sqrt(np.clip(eig, 0, None))[::-1]
    report = ek.principal_angles(e0, e1)
    assert np.max(np.abs(np.array(report.singular_values) - sigma_oracle)) < 1e-9


def test_principal_angles_rejects_non_isometry(z15_D, z15_H):
    phi = ek.phi_gamma(z15_D, z15_H, (0,))
    with pytest.raises(ValueError):
        ek.principal_angles(phi, phi)


def test_mcfarland_printed_isometries_and_angles(mcf22):
    D = ek.GroupSubset(
        mcf22.group,
        mcf22.D.elements,
        display_order=(
            (1, 0, 0, 0), (1, 0, 0, 1), (0, 1, 0, 0),
            (0, 1, 1, 0), (1, 1, 0, 0), (1, 1, 1, 1),
        ),
    )
    printed = {
        (0, 0, 0, 0): [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]],
        (0, 0, 1, 0): [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        (0, 0, 0, 1): [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1]],
        (0, 0, 1, 1): [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, 1]],
    }
    # the source print orders columns by the cosets 10, 01, 11 on the K part
    col_of = {0: (1, 0, 0, 0), 1: (0, 1, 0, 0), 2: (1, 1, 0, 0)}
    scale = 1 / math.sqrt(2)
    es = {}
    for gamma, grid in printed.items():
        e = ek.e_gamma(D, mcf22.H, gamma)
        es[gamma] = e
        for i, d in enumerate(D.display_order):
            for j in range(3):
                got = e.entry(d, col_of[j])
                assert abs(got - grid[i][j] * scale) < 1e-12

    # every pairwise cross-Gram is a diagonal 0/1 matrix with a single 1
    gammas = list(printed)
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            cg = ek.cross_gram(es[gammas[i]], es[gammas[j]], check_diagonal=True)
            diag = np.real_if_close(np.diag(cg.values))
            assert np.max(np.abs(np.imag(diag))) < 1e-12
            vals = sorted(np.round(np.real(diag), 9))
            assert vals == [0.0, 0.0, 1.0]
            report = ek.principal_angles(es[gammas[i]], es[gammas[j]])
            assert np.max(np.abs(np.array(report.principal_angles) - [0.0, np.pi / 2, np.pi / 2])) < 1e-9


def test_ectff_and_eitff_checks(z15_D, z15_H, mcf22):
    assert ek.ectff_check(z15_D, z15_H).passed
    ei = ek.eitff_check(z15_D, z15_H)
    assert ei.passed and abs(ei.sigma_target - 0.5) < 1e-15
    # McFarland: equi-chordal but not equi-isoclinic
    assert ek.ectff_check(mcf22.D, mcf22.H).passed
    assert not ek.eitff_check(mcf22.D, mcf22.H).passed


def test_eitff_tpp7():
    tc = ek.tpp_complement(7)
    report = ek.eitff_check(tc.D, tc.H)
    assert report.passed
    assert abs(report.sigma_target - 1 / math.sqrt(8)) < 1e-15


def test_triple_product_running_example(z15_D, z15_H, z15_cert):
    A, B = z15_cert.composite_witness
    report = ek.triple_product_check(z15_D, z15_H, A, B)
    assert report.passed and report.exhaustive
    # the specific product equals -(1/8) I
    e0 = ek.e_gamma(z15_D, z15_H, (0,))
    e1 = ek.e_gamma(z15_D, z15_H, (1,))
    e2 = ek.e_gamma(z15_D, z15_H, (2,))
    prod = (
        (e0.values.conj().T @ e1.values)
        @ (e1.values.conj().T @ e2.values)
        @ (e2.values.conj().T @ e0.values)
    )
    assert np.max(np.abs(prod + np.eye(4) / 8)) < 1e-9


def test_triple_product_trivial_triple(z15_D, z15_H):
    e1 = ek.e_gamma(z15_D, z15_H, (1,))
    m = e1.values.conj().T @ e1.values
    assert np.max(np.abs(m @ m @ m - np.eye(4))) < 1e-12


def test_triple_product_fails_for_non_composite():
    tc = ek.tpp_complement(11)
    H = tc.H
    reps = [g for g, _ in H.cosets if not H.contains(g)]
    A = ek.GroupSubset(tc.group, tuple(reps))
    B = ek.compute_Dg(tc.D, H, reps[0])
    report = ek.triple_product_check(tc.D, H, A, B, seed=0, max_triples=60)
    assert not report.passed


def test_unbiased_simplices_running_example(z15_H):
    A = ek.cyclic_subset(15, [1, 2, 8, 4])
    report = ek.unbiased_simplices_check(A, z15_H)
    assert report.passed
    assert report.num_simplices == 3 and report.simplex_size == 5


def test_unbiased_simplices_match_printed_block():
    # the block at coset 1: rows A = (1,2,8,4), columns chars (1,4,7,10,13)
    printed = [
        [1, 4, 7, 10, 13],
        [2, 8, 14, 5, 11],
        [8, 2, 11, 5, 14],
        [4, 1, 13, 10, 7],
    ]
    g = ek.group_new([15])
    for i, a in enumerate((1, 2, 8, 4)):
        for j, chi in enumerate((1, 4, 7, 10, 13)):
            got = complex(g.char_value((chi,), (a,)))
            want = complex(W15(printed[i][j]))
            assert abs(got - want) < 1e-12


def test_unbiased_simplices_failure_case(z15_H):
    bad = ek.cyclic_subset(15, [1, 2, 3, 4])
    report = ek.unbiased_simplices_check(bad, z15_H)
    assert not report.passed

    from conftest import oracle_is_rds

    verdict, _ = oracle_is_rds((15,), bad.elements, z15_H.elements)
    assert not verdict


def test_unbiased_simplices_quadratic_family():
    sr = ek.simplicial_rds_quadratic(3)
    report = ek.unbiased_simplices_check(sr.A, sr.K)
    assert report.passed
    assert report.num_simplices == 2 and report.simplex_size == 4


def test_gram_is_group_circulant(z15_D):
    phi = ek.harmonic_synthesis(z15_D)
    g = ek.gram(phi).values
    chars = z15_D.group.characters
    by_diff = {}
    for i, c1 in enumerate(chars):
        for j, c2 in enumerate(chars):
            key = z15_D.group.sub(c1, c2)
            if key in by_diff:
                assert abs(g[i, j] - by_diff[key]) < 1e-12
            else:
                by_diff[key] = g[i, j]


def test_representative_independence(z15_D, z15_H):
    # same annihilator coset => same column space
    for (n1, n2) in [(1, 4), (2, 8), (0, 12)]:
        p1 = ek.phi_gamma(z15_D, z15_H, (n1,))
        p2 = ek.phi_gamma(z15_D, z15_H, (n2,))
        proj1 = (4 / 5) * (p1.values @ p1.values.conj().T)
        proj2 = (4 / 5) * (p2.values @ p2.values.conj().T)
        assert np.linalg.norm(proj1 - proj2) < 1e-9


def test_tight_characterizations_agree(z15_D):
    phi = ek.harmonic_synthesis(z15_D)
    m = phi.values
    c = 15 / 8
    g = m.conj().T @ m
    assert np.max(np.abs(g @ g - c * g)) < 1e-9
    sub = m[:, :9]  # a non-tight column subset
    gs = sub.conj().T @ sub
    cs = float(np.trace(sub @ sub.conj().T).real) / 8
    tight_a = np.max(np.abs(sub @ sub.conj().T - cs * np.eye(8))) < 1e-9
    tight_b = np.max(np.abs(gs @ gs - cs * gs)) < 1e-9
    assert tight_a == tight_b == False  # noqa: E712


def test_projector_sum_is_tight(z15_D, z15_H, mcf22):
    for D, H in [(z15_D, z15_H), (mcf22.D, mcf22.H)]:
        es = ek.frames.coset_isometries(D, H)
        total = sum(e.values @ e.values.conj().T for e in es.values())
        s = D.group.order // H.order - 1
        c = s * H.order / D.size
        assert np.max(np.abs(total - c * np.eye(D.size))) < 1e-9


def test_large_synthesis_keeps_its_exact_form():
    # 162 x 323 = 52,326 cells
    D = ek.tpp_complement(17).D
    G, L = D.group, D.group.exponent
    phi = ek.harmonic_synthesis(D)
    assert phi.exact is not None
    rng = random.Random(17)
    for _ in range(25):
        i, j = rng.randrange(phi.shape[0]), rng.randrange(phi.shape[1])
        want = Cyclotomic.root(G.char_exponent(phi.col_labels[j], phi.row_labels[i]), L)
        assert phi.exact.cells[i][j] == want


def test_equal_large_syntheses_compare_without_dense_rows(monkeypatch):
    import etfkit.matrices as mat

    rows = []
    reduce = mat._reduce
    monkeypatch.setattr(mat, "_reduce", lambda m, n, *a: rows.append(n) or reduce(m, n, *a))
    D = ek.tpp_complement(17).D
    a, b = ek.harmonic_synthesis(D), ek.harmonic_synthesis(D)
    # every (cell, exponent) term cancels its twin, and every off-diagonal
    # cell is one root: neither check needs a row of 323 coefficients
    assert a.exact_equals(b)
    assert not a.is_exactly_diagonal()
    assert sum(rows) == 0
    # the frame operator's off-diagonal cells are vanishing sums: one row each
    phi = ek.harmonic_synthesis(ek.tpp_complement(5).D)
    frame_op = phi @ phi.adjoint()
    assert frame_op.is_exactly_diagonal()
    assert rows[-1] == frame_op.shape[0] * (frame_op.shape[0] - 1)


def test_cross_gram_of_large_isometries_is_decided_exactly():
    from etfkit.matrices import identity_matrix

    # |D| = 162 rows, S = 18 columns: 162 term pairs, where the dense
    # 18 x 162 x 18 product would be 52,488
    fam = ek.tpp_complement(17)
    gammas = [g for g, _ in fam.H.annihilator().cosets][:2]
    e1, e2 = (ek.e_gamma(fam.D, fam.H, g) for g in gammas)
    cg = ek.cross_gram(e1, e2, check_diagonal=True)
    assert cg.exact is not None and cg.is_exactly_diagonal()
    assert (e1.adjoint() @ e1).exact_equals(identity_matrix(e1.col_labels))
