import cmath
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from etfkit.cyclotomic import (
    Cyclotomic,
    RootOfUnity,
    cyclotomic_polynomial,
    rational_sqrt,
)

from conftest import oracle_remainder, oracle_vanishes, reference_single_root


def test_cyclotomic_polynomial_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # phi(15) = 8
    assert len(cyclotomic_polynomial(15)) == 9


def test_root_of_unity_arithmetic():
    w = RootOfUnity(1, 15)
    assert (w * RootOfUnity(14, 15)).is_one()
    assert w.conjugate() == RootOfUnity(14, 15)
    assert abs(complex(w) - cmath.exp(2j * cmath.pi / 15)) < 1e-15


def test_subgroup_sum_vanishes():
    # 1 + w^5 + w^10 = 0 in Q(zeta_15)
    s = sum(Cyclotomic.root(e, 15) for e in (0, 5, 10))
    assert s.is_zero()
    # w^5 + w^10 = -1
    s = Cyclotomic.root(5, 15) + Cyclotomic.root(10, 15)
    assert s == -1
    assert s.as_rational() == Fraction(-1)


def test_equality_and_rationality():
    x = Cyclotomic.root(3, 15)  # a primitive 5th root
    assert x == Cyclotomic.root(1, 5)
    assert x.as_rational() is None
    total = sum(Cyclotomic.root(3 * k, 15) for k in range(5))
    assert total.is_zero()


def test_unhashable_since_equal_values_differ_in_form():
    a, b = Cyclotomic(3, {0: 1, 1: 1}), Cyclotomic(3, {2: -1})
    assert a == b
    with pytest.raises(TypeError):
        hash(a)


def test_single_root_detection():
    assert Cyclotomic.root(7, 15, Fraction(-1, 2)).single_root() == (Fraction(-1, 2), 7, 15)
    # sum that collapses to a single root: w^3*(w^5 + w^10) = -w^3
    x = Cyclotomic.root(8, 15) + Cyclotomic.root(13, 15)
    q, e, mod = x.single_root()
    assert (q, e, mod) == (Fraction(-1), 3, 15)
    # a genuine two-term sum is not a single root
    assert (Cyclotomic.root(1, 15) + Cyclotomic.root(2, 15)).single_root() is None
    assert Cyclotomic.zero(15).single_root()[0] == 0


@st.composite
def single_root_candidates(draw):
    """Sums with a single-root part, rational parts, cancelling root sums
    (1 + w^(L/3) + w^(2L/3) = 0) and scales down to below 1e-12."""
    L = draw(st.sampled_from([1, 2, 3, 6, 12, 15, 21]))
    e = draw(st.integers(0, L - 1))
    q = draw(st.fractions(min_value=-4, max_value=4, max_denominator=9))
    x = Cyclotomic.root(e, L, q)
    if L % 3 == 0 and draw(st.booleans()):
        k = draw(st.integers(0, L - 1))
        x = x + Cyclotomic(L, {k: 1, k + L // 3: 1, k + 2 * L // 3: 1}) * draw(st.integers(1, 3))
    extra = draw(st.dictionaries(st.integers(0, L - 1),
                                 st.fractions(min_value=-2, max_value=2, max_denominator=5), max_size=2))
    x = x + Cyclotomic(L, extra)
    return x * draw(st.sampled_from([Fraction(1), Fraction(1, 10**6), Fraction(1, 10**13)]))


@settings(max_examples=400, deadline=None)
@given(single_root_candidates())
def test_single_root_matches_the_per_value_reference(x):
    assert x.single_root() == reference_single_root(x)


def test_single_root_below_the_phase_threshold_is_none():
    # 10^-13 w^3 written with four terms is a single root, but too small to guess
    tiny = Fraction(1, 10**13) * (Cyclotomic(15, {3: 1, 0: 1, 5: 1, 10: 1}))
    assert tiny.single_root() is None and reference_single_root(tiny) is None
    assert (tiny * 10**3).single_root() == (Fraction(1, 10**10), 3, 15)


def test_multiplication_matches_complex_embedding():
    a = Cyclotomic.root(2, 12) + 3 * Cyclotomic.root(7, 12)
    b = Cyclotomic.root(5, 12) - Cyclotomic.from_rational(Fraction(1, 2), 12)
    prod = a * b
    assert abs(complex(prod) - complex(a) * complex(b)) < 1e-12


def test_conjugate_and_abs_squared():
    a = Cyclotomic.root(2, 9) + Cyclotomic.root(5, 9)
    mod2 = a.abs_squared()
    assert abs(complex(mod2) - abs(complex(a)) ** 2) < 1e-12
    # |w^k| = 1 exactly
    assert Cyclotomic.root(4, 9).abs_squared() == 1


def test_mixed_modulus_operations():
    a = Cyclotomic.root(1, 3)
    b = Cyclotomic.root(1, 5)
    c = a * b
    assert c.modulus == 15
    assert c == Cyclotomic.root(8, 15)  # 5 + 3


def test_rational_sqrt():
    assert rational_sqrt(Fraction(1, 4)) == Fraction(1, 2)
    assert rational_sqrt(Fraction(9)) == 3
    assert rational_sqrt(Fraction(1, 2)) is None
    assert rational_sqrt(Fraction(-1)) is None


def test_invalid_modulus_rejected():
    with pytest.raises(ValueError):
        Cyclotomic(0)
    with pytest.raises(ValueError):
        RootOfUnity(0, 0)


def _mobius(n):
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 12, 15, 30, 36, 105])
def test_primitive_root_sums_are_mobius(n):
    # sum of the primitive n-th roots of unity equals mu(n): a classical
    # identity that independently pins down the reduction mod Phi_n
    from math import gcd

    total = sum(
        (Cyclotomic.root(k, n) for k in range(n) if gcd(k, n) == 1),
        Cyclotomic.zero(n),
    )
    assert total.as_rational() == _mobius(n)


@pytest.mark.parametrize("n", [5, 7, 9, 16, 24])
def test_cyclotomic_polynomial_vanishes_at_primitive_roots(n):
    from math import gcd

    phi = cyclotomic_polynomial(n)
    for k in (1, n - 1):
        if gcd(k, n) != 1:
            continue
        value = sum(
            (Cyclotomic.root(k * e % n, n) * c for e, c in enumerate(phi) if c),
            Cyclotomic.zero(n),
        )
        assert value.is_zero()


def test_full_root_sum_vanishes():
    for n in (2, 6, 14, 20):
        total = sum((Cyclotomic.root(k, n) for k in range(n)), Cyclotomic.zero(n))
        assert total.is_zero()


def test_ring_axioms_on_random_elements():
    import random
    from fractions import Fraction as F

    rng = random.Random(99)

    def rand_elt(L):
        return Cyclotomic(
            L,
            {
                rng.randrange(L): F(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(rng.randint(0, 4))
            },
        )

    for _ in range(40):
        L = rng.choice([6, 10, 12, 15])
        a, b, c = rand_elt(L), rand_elt(L), rand_elt(L)
        assert ((a + b) * c - (a * c + b * c)).is_zero()
        assert (a * b - b * a).is_zero()
        assert ((a * b) * c - a * (b * c)).is_zero()
        assert (a.conjugate() * b.conjugate() - (a * b).conjugate()).is_zero()
        # the numeric embedding respects the ring structure
        assert abs(complex(a * b + c) - (complex(a) * complex(b) + complex(c))) < 1e-9
        # |ab|^2 = |a|^2 |b|^2 exactly
        assert ((a * b).abs_squared() - a.abs_squared() * b.abs_squared()).is_zero()


MODULI = [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 18, 20, 24, 30]

# small integers, integers far beyond int64, and fractions
COEFFS = st.one_of(
    st.integers(-5, 5),
    st.integers(-2**80, 2**80),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)


@st.composite
def cyclotomic_values(draw):
    """(modulus, coefficients): a combination of the vanishing sums of w^e
    over cosets of an order-p subgroup, plus a few free terms, so that
    zero, rational and irrational values all come up often."""
    m = draw(st.sampled_from(MODULI))
    coeffs: dict = {}

    def add(e, c):
        coeffs[e % m] = coeffs.get(e % m, 0) + c

    primes = [p for p in (2, 3, 5) if m % p == 0]
    for _ in range(draw(st.integers(0, 3)) if primes else 0):
        p, i, c = draw(st.sampled_from(primes)), draw(st.integers(0, m - 1)), draw(COEFFS)
        for j in range(p):
            add(i + j * m // p, c)
    for _ in range(draw(st.integers(0, 2))):
        add(draw(st.one_of(st.just(0), st.integers(0, m - 1))), draw(COEFFS))
    return m, coeffs


@settings(max_examples=150, deadline=None)
@given(cyclotomic_values())
def test_reduction_matches_sympy_oracle(data):
    m, coeffs = data
    x = Cyclotomic(m, coeffs)
    want = oracle_remainder(m, coeffs)
    assert x.is_zero() == (not want)
    assert x.as_rational() == (want.get(0, Fraction(0)) if set(want) <= {0} else None)
    # canonical form: the smallest modulus carrying the support, and the
    # remainder there, one coefficient per power below phi(k)
    support = [e for e, c in coeffs.items() if c]
    g = gcd(m, *support)
    k, rep = x.canonical()
    assert k == m // g
    assert len(rep) == sympy.totient(k)
    assert {i: c for i, c in enumerate(rep) if c} == oracle_remainder(
        k, {e // g: coeffs[e] for e in support}
    )


@settings(max_examples=60, deadline=None)
@given(cyclotomic_values(), cyclotomic_values())
def test_mixed_moduli_sums_and_products_match_sympy_oracle(a, b):
    (m1, c1), (m2, c2) = a, b
    L = lcm(m1, m2)
    total, product = {}, {}
    for e1, v1 in c1.items():
        total[e1 * (L // m1)] = total.get(e1 * (L // m1), 0) + v1
        for e2, v2 in c2.items():
            e = (e1 * (L // m1) + e2 * (L // m2)) % L
            product[e] = product.get(e, 0) + v1 * v2
    for e2, v2 in c2.items():
        total[e2 * (L // m2)] = total.get(e2 * (L // m2), 0) + v2
    x, y = Cyclotomic(m1, c1), Cyclotomic(m2, c2)
    assert (x + y).modulus == L and (x * y).modulus == L
    assert (x + y).is_zero() == oracle_vanishes(L, total)
    assert (x * y).is_zero() == oracle_vanishes(L, product)
    assert (x == -y) == oracle_vanishes(L, total)


def test_coefficients_beyond_int64_never_wrap():
    big = {0: 2**70, 5: 2**70, 10: 2**70}
    assert Cyclotomic(15, big).is_zero()
    assert not Cyclotomic(15, {**big, 5: 2**70 + 1}).is_zero()
    assert Cyclotomic(15, {**big, 5: 2**70 + 1}).as_rational() is None
