import itertools
import random

import numpy as np
import pytest

import etfkit as ek
from etfkit.fields import is_prime, prime_factors, prime_power

from conftest import reference_dlog_table


def test_prime_helpers():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_power(27) == (3, 3)
    assert prime_power(16) == (2, 4)
    assert prime_power(12) is None
    assert prime_power(1) is None
    assert prime_factors(360) == [2, 3, 5]


def test_ff_new_examples():
    f16 = ek.ff_new(2, 4)
    assert f16.q == 16 and len(f16.modulus) == 5 and f16.modulus[-1] == 1
    # least irreducible of degree 4 over F_2 is x^4 + x + 1
    assert f16.modulus == (1, 1, 0, 0, 1)
    f3 = ek.ff_new(3, 1)
    assert f3.q == 3 and f3.elements == ((0,), (1,), (2,))
    f2 = ek.ff_new(2, 1)
    assert f2.q == 2
    with pytest.raises(ValueError):
        ek.ff_new(4, 2)
    with pytest.raises(ValueError):
        ek.ff_new(2, 30)  # exceeds the order cap


def test_field_arithmetic_basics():
    f = ek.ff_new(2, 4)
    x = f.elements[2]  # the polynomial x
    assert f.pow(x, 4) == f.add(x, f.one)  # x^4 = x + 1 mod x^4+x+1
    for el in f.units():
        assert f.mul(el, f.inv(el)) == f.one
    assert f.pow(x, 15) == f.one


def test_trace_examples():
    # elements of GF(4) inside GF(16) have trace 0 to GF(4): x + x^4 = 2x = 0
    f16 = ek.ff_new(2, 4)
    gf4 = [x for x in f16.elements if f16.pow(x, 4) == x]
    assert len(gf4) == 4
    for x in gf4:
        assert ek.ff_trace(f16, x, 2) == f16.zero
    assert ek.ff_trace(f16, f16.zero, 1) == f16.zero
    # absolute trace to F_2 has a kernel of size 8
    kernel = [x for x in f16.elements if ek.ff_trace(f16, x, 1) == f16.zero]
    assert len(kernel) == 8
    with pytest.raises(ValueError):
        ek.ff_trace(f16, f16.one, 3)


def test_trace_transitivity():
    # tr_{q^4/q} = tr_{q^2/q} o tr_{q^4/q^2} with q = 3; the middle trace on
    # GF(9) is the two-term Frobenius sum computed inside the ambient field
    f81 = ek.ff_new(3, 4)
    for x in f81.elements[:30]:
        mid = f81.trace(x, 2)
        via_tower = f81.partial_frobenius_sum(mid, 1, 2)
        assert via_tower == f81.trace(x, 1)


def test_generator_and_dlog():
    f7 = ek.ff_new(7, 1)
    g = ek.ff_generator(f7)
    assert g == (3,)  # least generator of F_7^x
    assert ek.ff_dlog(f7, g, f7.one) == 0
    assert ek.ff_dlog(f7, g, g) == 1
    assert f7.pow(g, ek.ff_dlog(f7, g, (5,))) == (5,)
    with pytest.raises(ValueError):
        f7.dlog(f7.zero)


def test_generator_has_full_order():
    for (p, n) in [(2, 4), (3, 2), (5, 1), (13, 1)]:
        f = ek.ff_new(p, n)
        g = f.generator
        seen = set()
        x = f.one
        for _ in range(f.q - 1):
            seen.add(x)
            x = f.mul(x, g)
        assert len(seen) == f.q - 1


@pytest.mark.parametrize("p,n", [(3, 4), (2, 8)])
def test_dlog_matches_scalar_walk(p, n):
    f = ek.ff_new(p, n)
    reference = reference_dlog_table(f)
    assert len(reference) == f.q - 1
    assert all(f.dlog(x) == k for x, k in reference.items())


def test_power_table_rows_are_generator_powers():
    f = ek.ff_new(5, 3)
    powers = f._powers
    assert powers.shape == (f.q - 1, f.n) and powers.dtype == np.uint8
    for k in (0, 1, 2, 61, f.q - 2):
        assert tuple(powers[k].tolist()) == f.pow(f.generator, k)


def test_squares_nonsquares_examples():
    f3 = ek.ff_new(3, 1)
    s, n = ek.squares_nonsquares(f3)
    assert s == {(1,)} and n == {(2,)}
    f5 = ek.ff_new(5, 1)
    s, n = ek.squares_nonsquares(f5)
    assert s == {(1,), (4,)} and n == {(2,), (3,)}
    with pytest.raises(ValueError):
        ek.squares_nonsquares(ek.ff_new(2, 2))


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27, 49])
def test_square_set_sizes_and_minus_one(q):
    p, e = prime_power(q)
    f = ek.ff_new(p, e)
    s, n = ek.squares_nonsquares(f)
    assert len(s) == len(n) == (q - 1) // 2
    minus_one = f.neg(f.one)
    if q % 4 == 3:
        assert minus_one in n
    else:
        assert minus_one in s


def test_frobenius_is_additive():
    rng = random.Random(3)
    for (p, n) in [(2, 4), (3, 3), (5, 2)]:
        f = ek.ff_new(p, n)
        for _ in range(25):
            x = f.elements[rng.randrange(f.q)]
            y = f.elements[rng.randrange(f.q)]
            assert f.pow(f.add(x, y), p) == f.add(f.pow(x, p), f.pow(y, p))


def test_trace_is_linear_and_surjective_with_equal_fibers():
    f = ek.ff_new(3, 2)
    fibers: dict = {}
    for x in f.elements:
        fibers.setdefault(f.trace(x, 1), 0)
        fibers[f.trace(x, 1)] += 1
    assert set(fibers) == {f.zero, f.one, f.from_int(2)}
    assert set(fibers.values()) == {3}
    # F_p-linearity
    for x, y in itertools.product(f.elements, repeat=2):
        assert f.trace(f.add(x, y), 1) == f.add(f.trace(x, 1), f.trace(y, 1))
