"""Property-based suites: library certifications against brute-force oracles."""

import math
import random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import etfkit as ek
from etfkit.groups import IntVector

from conftest import (
    oracle_difference_counts,
    oracle_is_difference_set,
    oracle_is_rds,
    reference_convolve,
)

SMALL_ORDERS = st.sampled_from(
    [(4,), (6,), (7,), (9,), (12,), (2, 2), (2, 4), (3, 3), (2, 2, 3), (15,)]
)


@st.composite
def group_and_subset(draw):
    orders = draw(SMALL_ORDERS)
    g = ek.group_new(orders)
    size = draw(st.integers(min_value=1, max_value=g.order))
    els = draw(
        st.lists(st.sampled_from(g.elements), min_size=size, max_size=size, unique=True)
    )
    return g, tuple(els)


# pairs per block of the pair sums, small enough that most sets need several
SMALL_CHUNKS = st.integers(min_value=1, max_value=40)


@settings(max_examples=60, deadline=None)
@given(group_and_subset(), SMALL_CHUNKS)
def test_certify_matches_bruteforce_oracle(data, chunk):
    g, els = data
    D = ek.subset(g, els)
    verdict, lam = oracle_is_difference_set(g.cyclic_orders, D.elements)
    with patch("etfkit.groups._PAIR_CHUNK", chunk):
        got = ek.certify_difference_set(D)
    if verdict:
        assert got == lam
    else:
        assert got is None


@settings(max_examples=40, deadline=None)
@given(group_and_subset(), SMALL_CHUNKS)
def test_difference_counts_match_oracle(data, chunk):
    g, els = data
    want = oracle_difference_counts(g.cyclic_orders, els)
    want[g.zero] = len(els)
    with patch("etfkit.groups._PAIR_CHUNK", chunk):
        assert ek.difference_counts(ek.subset(g, els)).values == want


@settings(max_examples=40, deadline=None)
@given(group_and_subset(), st.randoms(use_true_random=False), SMALL_CHUNKS)
def test_certify_rds_matches_oracle(data, rnd, chunk):
    g, els = data
    D = ek.subset(g, els)
    subs = ek.all_subgroups(g)
    H = subs[rnd.randrange(len(subs))]
    verdict, lam = oracle_is_rds(g.cyclic_orders, D.elements, H.elements)
    with patch("etfkit.groups._PAIR_CHUNK", chunk):
        got = ek.certify_rds(D, H)
    if verdict and H.order < g.order:
        assert got is not None and got.lam == lam
    elif not verdict:
        assert got is None


@st.composite
def signed_vector_pair(draw):
    """Two integer vectors with signed values on one non-cyclic group."""
    g = ek.group_new(draw(st.sampled_from([(2, 2), (2, 4), (3, 3), (2, 6), (2, 2, 3), (4, 4)])))

    def vector():
        support = draw(st.lists(st.sampled_from(g.elements), unique=True, max_size=g.order))
        return IntVector(g, {x: draw(st.integers(-50, 50)) for x in support})

    return vector(), vector()


@settings(max_examples=60, deadline=None)
@given(signed_vector_pair(), SMALL_CHUNKS)
def test_convolve_with_signed_weights_matches_reference(vectors, chunk):
    x, y = vectors
    with patch("etfkit.groups._PAIR_CHUNK", chunk):
        got = ek.convolve(x, y)
    assert got == reference_convolve(x, y)


@settings(max_examples=40, deadline=None)
@given(group_and_subset())
def test_dft_agrees_with_numeric_path(data):
    g, els = data
    x = IntVector.indicator(g, els)
    exact = ek.dft(x)
    numeric = ek.dft_numeric(x)
    for j, chi in enumerate(g.characters):
        assert abs(complex(exact[chi]) - numeric[j]) < 1e-9


@settings(max_examples=40, deadline=None)
@given(group_and_subset())
def test_involution_is_self_inverse_and_conjugates_dft(data):
    g, els = data
    x = IntVector.indicator(g, els)
    assert ek.involution(ek.involution(x)) == x
    fx = ek.dft(x)
    fxt = ek.dft(ek.involution(x))
    for chi in g.characters:
        assert (fxt[chi] - fx[chi].conjugate()).is_zero()


@settings(max_examples=30, deadline=None)
@given(group_and_subset(), st.integers(min_value=0, max_value=10**6))
def test_shift_preserves_certification(data, raw_shift):
    g, els = data
    D = ek.subset(g, els)
    shift = g.elements[raw_shift % g.order]
    shifted = ek.subset(g, [g.add(d, shift) for d in D.elements])
    assert ek.certify_difference_set(D) == ek.certify_difference_set(shifted)


def test_automorphism_preserves_certification():
    rng = random.Random(17)
    for D in [
        ek.cyclic_subset(15, [6, 11, 7, 12, 13, 3, 9, 14]),
        ek.cyclic_subset(13, [0, 1, 3, 9]),
        ek.cyclic_subset(11, [1, 3, 4, 5, 9]),
    ]:
        n = D.group.order
        lam = ek.certify_difference_set(D)
        for _ in range(4):
            u = rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
            image = ek.subset(D.group, [((u * d[0]) % n,) for d in D.elements])
            assert ek.certify_difference_set(image) == lam


# ---------------------------------------------------------------------------
# the acceptance-scale randomized oracle-equivalence suite


def _random_group(rng):
    choices = [
        (4,), (5,), (6,), (8,), (9,), (10,), (12,), (14,), (15,), (16,),
        (20,), (21,), (24,), (27,), (30,), (36,), (40,), (48,), (60,),
        (2, 2), (2, 4), (2, 6), (3, 3), (2, 2, 3), (3, 9), (2, 2, 2, 2),
        (4, 4), (2, 18), (5, 5), (7, 7), (2, 30), (3, 15),
    ]
    return ek.group_new(choices[rng.randrange(len(choices))])


def test_fourier_criterion_agrees_with_difference_table_on_200_random_sets():
    rng = random.Random(20240817)
    tol = 1e-6
    fine_hits = 0
    for trial in range(200):
        g = _random_group(rng)
        size = rng.randint(1, g.order)
        els = tuple(sorted(rng.sample(g.elements, size)))
        D = ek.subset(g, els)

        # difference-table oracle
        table_verdict, lam = oracle_is_difference_set(g.cyclic_orders, els)

        # Fourier-side criterion: |DFT chi_D|^2 constant off the trivial char
        spectrum = np.abs(ek.dft_numeric(D.indicator())) ** 2
        trivial = g.characters.index(g.zero)
        rest = np.delete(spectrum, trivial)
        fourier_verdict = bool(np.max(np.abs(rest - rest.mean())) <= tol) if rest.size else True
        assert fourier_verdict == table_verdict, f"trial {trial}: {g.cyclic_orders} {els}"
        assert (ek.certify_difference_set(D) is not None) == table_verdict

        # relative criterion against a random proper subgroup
        subs = [H for H in ek.all_subgroups(g) if H.order < g.order]
        H = subs[rng.randrange(len(subs))]
        rds_verdict, _ = oracle_is_rds(g.cyclic_orders, els, H.elements)
        assert (ek.certify_rds(D, H) is not None) == rds_verdict

        if table_verdict and size < g.order:
            cert = ek.classify(D)
            if cert.is_fine:
                fine_hits += 1
    # known fine instances keep the identity covered even if the random draw
    # never produces one
    for D in [ek.cyclic_subset(15, [6, 11, 7, 12, 13, 3, 9, 14]), ek.mcfarland(2, 2).D]:
        cert = ek.classify(D)
        assert cert.is_fine  # classify() asserts the counting identity internally


def test_subgroup_bound_exhaustive_up_to_order_100():
    # |H'| <= G/(S+1) for every subgroup disjoint from a certified set
    instances = [
        ek.cyclic_subset(15, [6, 11, 7, 12, 13, 3, 9, 14]),
        ek.cyclic_subset(7, [1, 2, 4]),
        ek.cyclic_subset(13, [0, 1, 3, 9]),
        ek.mcfarland(2, 2, [2, 2]).D,
        ek.mcfarland(3, 2).D,
        ek.tpp_complement(3).D,
        ek.tpp_complement(7).D,
        ek.singer_complement(2, 3).D,
    ]
    for D in instances:
        g = D.group
        assert g.order <= 100
        lam = ek.certify_difference_set(D)
        assert lam is not None
        s_sq = D.size * (g.order - 1) / (g.order - D.size)
        dset = set(D.elements)
        for H in ek.all_subgroups(g):
            if not (set(H.elements) & dset):
                assert H.order <= g.order / (math.sqrt(s_sq) + 1) + 1e-9


def test_welch_bound_reciprocal_consistency():
    # integer S from welch_integer_S is exactly 1/welch_bound
    for (d, n) in [(8, 15), (6, 16), (27, 40), (32, 63), (72, 143)]:
        s = ek.welch_integer_S(d, n)
        assert s is not None
        assert abs(1 / ek.welch_bound(d, n) - s) < 1e-9
