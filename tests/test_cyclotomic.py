import cmath
from fractions import Fraction

import pytest

from etfkit.cyclotomic import (
    Cyclotomic,
    RootOfUnity,
    cyclotomic_polynomial,
    rational_sqrt,
)


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
