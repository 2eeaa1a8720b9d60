import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import etfkit as ek

from conftest import (
    oracle_is_difference_set,
    oracle_is_rds,
    reference_simplicial_rds_quadratic,
    reference_singer_complement,
    reference_tpp_complement,
)

# the default ranges of scripts/run_sweeps.py, then larger rungs
SINGER_CASES = [(2, 2), (3, 2), (4, 2), (2, 3), (2, 4), (2, 5), (3, 3), (5, 2), (7, 2)]
SRDS_CASES = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 27]
TPP_CASES = [3, 5, 7, 11, 17, 23, 27, 29, 41, 47]


def test_certify_difference_set_examples(z15_D):
    assert ek.certify_difference_set(z15_D) == 4
    g = ek.group_new([9])
    assert ek.certify_difference_set(ek.subset(g, [(4,)])) == 0
    assert ek.certify_difference_set(ek.cyclic_subset(7, [1, 2, 4])) == 1
    empty = ek.GroupSubset(ek.group_new([5]), ())
    assert ek.certify_difference_set(empty) is None
    assert ek.certify_difference_set(ek.cyclic_subset(15, [1, 2, 3])) is None


def test_full_group_is_a_difference_set():
    g = ek.group_new([6])
    assert ek.certify_difference_set(ek.subset(g, g.elements)) == 6


def test_non_ds_witness():
    from etfkit.designs import non_ds_witness

    D = ek.cyclic_subset(15, [1, 2, 3])
    g1, c1, g2, c2 = non_ds_witness(D)
    assert c1 != c2
    counts = ek.difference_counts(D)
    assert counts[g1] == c1 and counts[g2] == c2


def test_certify_rds_examples():
    A = ek.cyclic_subset(15, [1, 2, 8, 4])
    H = ek.Subgroup(A.group, ((0,), (5,), (10,)))
    params = ek.certify_rds(A, H)
    assert params.as_tuple() == (5, 3, 4, 1)
    # H = {0} reduces to the plain difference-set criterion
    D = ek.cyclic_subset(7, [1, 2, 4])
    params = ek.certify_rds(D, ek.Subgroup.trivial(D.group))
    assert params is not None and params.lam == ek.certify_difference_set(D)
    # trace-one hyperplane of GF(9) inside Z_8
    f9 = ek.ff_new(3, 2)
    g8 = ek.group_new([8])
    E = ek.subset(g8, [(f9.dlog(x),) for x in f9.units() if f9.trace(x, 1) == f9.one])
    K = ek.Subgroup.generated_by(g8, [(4,)])
    params = ek.certify_rds(E, K)
    assert params is not None and params.as_tuple() == (4, 2, 3, 1)
    verdict, lam = oracle_is_rds((8,), E.elements, K.elements)
    assert verdict and lam == 1


def test_certify_rds_rejects_non_rds():
    g = ek.group_new([15])
    H = ek.Subgroup(g, ((0,), (5,), (10,)))
    assert ek.certify_rds(ek.cyclic_subset(15, [1, 2, 3, 4]), H) is None


def test_welch_integer_examples():
    assert ek.welch_integer_S(8, 15) == 4
    assert ek.welch_integer_S(6, 16) == 3
    assert ek.welch_integer_S(3, 7) is None
    assert ek.welch_integer_S(0, 5) is None
    assert ek.welch_integer_S(5, 5) is None


def test_quotient_rds_examples():
    A = ek.cyclic_subset(15, [1, 2, 8, 4])
    H = ek.Subgroup(A.group, ((0,), (5,), (10,)))
    out = ek.quotient_rds(A, H, H)
    assert out.params.as_tuple() == (5, 1, 4, 3)
    assert set(out.image.elements) == {(1,), (2,), (3,), (4,)}
    # K = {0} is the identity transform
    out = ek.quotient_rds(A, H, ek.Subgroup.trivial(A.group))
    assert out.params.as_tuple() == (5, 3, 4, 1)
    assert out.image.size == 4
    # quadratic simplicial RDS quotiented by its forbidden subgroup
    sr = ek.simplicial_rds_quadratic(3)
    out = ek.quotient_rds(sr.A, sr.K, sr.K)
    assert out.quotient.group.order == 4 and out.image.size == 3
    assert out.params.as_tuple() == (4, 1, 3, 2)


def test_quotient_rds_requires_containment():
    A = ek.cyclic_subset(15, [1, 2, 8, 4])
    H = ek.Subgroup(A.group, ((0,), (5,), (10,)))
    K = ek.Subgroup.generated_by(A.group, [(3,)])
    with pytest.raises(ValueError):
        ek.quotient_rds(A, H, K)


def test_complement_examples():
    singer_ds = ek.cyclic_subset(15, [0, 1, 2, 4, 5, 8, 10])
    assert ek.certify_difference_set(singer_ds) == 3
    comp = ek.complement(singer_ds)
    assert comp.size == 8 and ek.certify_difference_set(comp) == 4
    assert ek.complement(comp) == singer_ds
    # order D - Lambda is preserved under complement
    assert 7 - 3 == 8 - 4


def test_complement_preserves_order_on_certified_sets():
    examples = [
        ek.cyclic_subset(7, [1, 2, 4]),
        ek.cyclic_subset(11, [1, 3, 4, 5, 9]),
        ek.cyclic_subset(13, [0, 1, 3, 9]),
        ek.cyclic_subset(15, [6, 11, 7, 12, 13, 3, 9, 14]),
    ]
    for D in examples:
        lam = ek.certify_difference_set(D)
        assert lam is not None
        comp = ek.complement(D)
        lam_c = ek.certify_difference_set(comp)
        assert lam_c is not None
        assert D.size - lam == comp.size - lam_c


def test_singer_complement_q2_j2():
    sc = ek.singer_complement(2, 2)
    assert sc.group.cyclic_orders == (15,)
    assert sc.D.size == 8 and sc.A.size == 4 and sc.B.size == 2
    assert sc.H.elements == ((0,), (5,), (10,))
    assert ek.certify_difference_set(sc.D) == 4
    # shift/automorphism equivalent of the running example: same parameters
    verdict, lam = oracle_is_difference_set((15,), sc.D.elements)
    assert verdict and lam == 4


def test_singer_complement_q3_j2():
    sc = ek.singer_complement(3, 2)
    assert sc.group.cyclic_orders == (40,)
    assert sc.D.size == 27 and sc.H.order == 4
    cert = ek.classify(sc.D)
    assert cert.is_composite


def test_singer_complement_q2_j3():
    sc = ek.singer_complement(2, 3)
    assert sc.group.cyclic_orders == (63,)
    assert sc.D.size == 32 and sc.H.order == 7
    assert ek.welch_integer_S(32, 63) == 8
    assert ek.certify_difference_set(sc.D) is not None


def test_singer_factorization_properties():
    for (q, j) in [(2, 2), (3, 2)]:
        sc = ek.singer_complement(q, j)
        assert ek.convolve(sc.A.indicator(), sc.B.indicator()) == sc.D.indicator()
        for a in sc.A.elements:
            assert ek.compute_Dg(sc.D, sc.H, a) == sc.B


def test_singer_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ek.singer_complement(6, 2)
    with pytest.raises(ValueError):
        ek.singer_complement(2, 1)


def test_simplicial_rds_quadratic_examples():
    sr = ek.simplicial_rds_quadratic(2)
    assert sr.group.cyclic_orders == (3,)
    assert sr.A.size == 2 and sr.K.order == 1
    sr = ek.simplicial_rds_quadratic(4)
    assert sr.group.cyclic_orders == (15,)
    assert sr.K.elements == ((0,), (5,), (10,))
    assert sr.A.elements == ((1,), (2,), (4,), (8,))
    sr = ek.simplicial_rds_quadratic(3)
    assert sr.group.cyclic_orders == (8,)
    assert sr.A.size == 3 and sr.K.order == 2
    assert not (set(sr.A.elements) & set(sr.K.elements))


def test_simplicial_rds_quadratic_beyond_4096():
    sr = ek.simplicial_rds_quadratic(67)
    assert sr.group.order == 4488
    assert ek.certify_rds(sr.A, sr.K).as_tuple() == (68, 66, 67, 1)


def test_tpp_complement_q3():
    tc = ek.tpp_complement(3)
    assert tc.group.cyclic_orders == (3, 5)
    assert tc.D.size == 8 and tc.H.order == 3
    assert ek.certify_difference_set(tc.D) == 4
    # the CRT isomorphism n -> (n mod 3, n mod 5) carries D to the image below
    image = {n for n in range(15) if (n % 3, n % 5) in set(tc.D.elements)}
    assert image == {6, 12, 3, 9, 7, 13, 11, 14}


def test_tpp_complement_q5():
    tc = ek.tpp_complement(5)
    assert tc.D.size == 18 and tc.H.order == 5
    assert ek.welch_integer_S(18, 35) == 6
    # necessary amalgam divisibility fails: 6^3 does not divide 18^2
    assert (18**2) % (6**3) != 0


def test_tpp_complement_q11():
    tc = ek.tpp_complement(11)
    assert tc.D.size == 72
    assert ek.welch_integer_S(72, 143) == 12


def test_tpp_rejects_non_twins():
    # 13+2 = 15 is not a prime power; even q is rejected outright
    with pytest.raises(ValueError):
        ek.tpp_complement(13)
    with pytest.raises(ValueError):
        ek.tpp_complement(2)


@pytest.mark.parametrize("q,j", SINGER_CASES)
def test_singer_matches_per_element_reference(q, j):
    sc = ek.singer_complement(q, j)
    got = (sc.D.elements, sc.A.elements, sc.B.elements)
    assert got == reference_singer_complement(q, j)


@pytest.mark.parametrize("q", SRDS_CASES)
def test_simplicial_rds_matches_per_element_reference(q):
    assert ek.simplicial_rds_quadratic(q).A.elements == reference_simplicial_rds_quadratic(q)


@pytest.mark.parametrize("q", TPP_CASES)
def test_tpp_matches_per_element_reference(q):
    assert ek.tpp_complement(q).D.elements == reference_tpp_complement(q)


def test_mcfarland_q2_j2_binary_form(mcf22):
    assert mcf22.group.cyclic_orders == (2, 2, 2, 2)
    want = {
        (1, 0, 0, 0), (1, 0, 0, 1), (0, 1, 0, 0),
        (0, 1, 1, 0), (1, 1, 0, 0), (1, 1, 1, 1),
    }
    assert set(mcf22.D.elements) == want
    assert set(mcf22.H.elements) == {(0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)}
    assert ek.certify_difference_set(mcf22.D) == 2


def test_mcfarland_default_k_is_cyclic():
    ms = ek.mcfarland(2, 2)
    assert ms.group.cyclic_orders == (4, 2, 2)
    assert ek.certify_difference_set(ms.D) == 2


def test_mcfarland_coset_intersections(mcf22):
    # every coset of H meets D in q^(j-1) points (or 0 for H itself)
    sizes = sorted(
        ek.compute_Dg(mcf22.D, mcf22.H, g).size for g, _ in mcf22.H.cosets
    )
    assert sizes == [0, 2, 2, 2]


def test_mcfarland_q3_j2():
    ms = ek.mcfarland(3, 2)
    assert ms.group.order == 45 and ms.D.size == 12
    assert ek.welch_integer_S(12, 45) == 4
    assert ek.certify_difference_set(ms.D) == 3


def test_mcfarland_k_order_validation():
    with pytest.raises(ValueError):
        ek.mcfarland(2, 2, [3])


def test_family_outputs_certified_small():
    cases = [
        ek.singer_complement(2, 2).D,
        ek.singer_complement(3, 2).D,
        ek.tpp_complement(3).D,
        ek.tpp_complement(5).D,
        ek.mcfarland(2, 2).D,
        ek.mcfarland(3, 2).D,
    ]
    for D in cases:
        assert ek.certify_difference_set(D) is not None
        verdict, _ = oracle_is_difference_set(D.group.cyclic_orders, D.elements)
        assert verdict


def test_shift_and_automorphism_invariance(z15_D):
    rng = random.Random(5)
    g = z15_D.group
    lam = ek.certify_difference_set(z15_D)
    for _ in range(5):
        shift = rng.randrange(15)
        shifted = ek.subset(g, [g.add(d, (shift,)) for d in z15_D.elements])
        assert ek.certify_difference_set(shifted) == lam
        unit = rng.choice([u for u in range(1, 15) if __import__("math").gcd(u, 15) == 1])
        mapped = ek.subset(g, [((unit * d[0]) % 15,) for d in z15_D.elements])
        assert ek.certify_difference_set(mapped) == lam


def test_mcfarland_is_never_amalgam_arithmetically():
    # D^2/S^3 is not an integer for McFarland parameters
    for (q, j) in [(2, 2), (3, 2), (4, 2), (2, 3)]:
        s = (q**j - 1) // (q - 1)
        d = q ** (j - 1) * s
        assert (d * d) % (s**3) != 0


def test_display_order_is_preserved_and_optional():
    D = ek.cyclic_subset(15, [6, 11, 7], display_order=[7, 6, 11])
    assert D.ordered == ((7,), (6,), (11,))
    assert D.elements == ((6,), (7,), (11,))
    with pytest.raises(ValueError):
        ek.cyclic_subset(15, [6, 11], display_order=[6, 12])


def test_large_certification_takes_the_transform(monkeypatch):
    # Singer (2, 6): |D| = 2048 in Z_4095, 4M pairs, past the cost rule
    D = ek.singer_complement(2, 6).D

    def refuse(*args):
        raise AssertionError("pair blocks for a 4M-pair count")

    monkeypatch.setattr(ek.AbelianGroup, "_pair_blocks", refuse)
    assert ek.certify_difference_set(D) == D.size * (D.size - 1) // (D.group.order - 1)


def test_family_construction_leaves_numpy_ma_unimported():
    # numpy's unique and setdiff1d import numpy.ma on first use
    code = ("import sys, etfkit as ek; ek.singer_complement(2, 2); ek.simplicial_rds_quadratic(5); "
            "ek.complement(ek.tpp_complement(5).D); print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(ek.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_noncyclic_classify_leaves_numpy_ma_unimported():
    # the subgroup search keeps its subgroups by their bytes; numpy's unique
    # would import numpy.ma
    code = ("import sys, etfkit as ek; ek.classify(ek.mcfarland(2, 3, (2, 2, 2)).D); "
            "ek.classify(ek.mcfarland(4, 2, (6,)).D); print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(ek.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
