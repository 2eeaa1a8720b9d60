import numpy as np
import pytest

import etfkit as ek
from etfkit.cyclotomic import Cyclotomic
from etfkit.groups import IntVector

from conftest import oracle_dft_value


def test_group_new_examples():
    g = ek.group_new([15])
    assert g.order == 15 and g.exponent == 15
    trivial = ek.group_new([1])
    assert trivial.order == 1 and trivial.elements == ((0,),)
    crt = ek.group_new([3, 5])
    assert crt.order == 15 and crt.exponent == 15 and crt.is_cyclic


def test_group_new_rejects_bad_orders():
    with pytest.raises(ValueError):
        ek.group_new([0])
    with pytest.raises(ValueError):
        ek.group_new([3, -1])


def test_char_value_examples():
    g15 = ek.group_new([15])
    v = ek.char_value(g15, (1,), (6,))
    assert (v.exponent, v.modulus) == (6, 15)
    assert ek.char_value(g15, (0,), (11,)).is_one()
    g22 = ek.group_new([2, 2])
    assert ek.char_value(g22, (1, 1), (1, 1)).exponent == 0


def test_char_value_dimension_mismatch():
    g = ek.group_new([3, 5])
    with pytest.raises(ValueError):
        g.char_value((1,), (1, 2))


def test_dft_poisson_summation_on_z15():
    g = ek.group_new([15])
    x = IntVector.indicator(g, [(0,), (5,), (10,)])
    out = ek.dft(x)
    ann = {(0,), (3,), (6,), (9,), (12,)}
    for chi, value in out.items():
        assert value == (3 if chi in ann else 0)


def test_dft_delta_is_constant_one():
    g = ek.group_new([12])
    out = ek.dft(IntVector.delta(g, (0,)))
    assert all(v == 1 for v in out.values())


def test_dft_modulus_on_difference_set():
    g = ek.group_new([15])
    x = IntVector.indicator(g, [(d,) for d in (6, 11, 7, 12, 13, 3, 9, 14)])
    out = ek.dft(x)
    for chi, value in out.items():
        if chi == (0,):
            assert value == 8
        else:
            assert value.abs_squared() == 4  # |DFT| = D/S = 2
            # cross-check one value against the direct cmath oracle
    chi = (2,)
    assert abs(complex(out[chi]) - oracle_dft_value((15,), x.values, chi)) < 1e-12


def test_convolution_examples():
    g = ek.group_new([15])
    d = IntVector.indicator(g, [(x,) for x in (6, 11, 7, 12, 13, 3, 9, 14)])
    auto = ek.convolve(d, ek.involution(d))
    assert auto[(0,)] == 8
    assert all(auto[(x,)] == 4 for x in range(1, 15))
    # delta_a * delta_b = delta_{a+b}
    assert ek.convolve(IntVector.delta(g, (4,)), IntVector.delta(g, (13,))) == IntVector.delta(g, (2,))
    # chi_A * chi_B = chi_D for the composite factorization
    a = IntVector.indicator(g, [(x,) for x in (1, 2, 8, 4)])
    b = IntVector.indicator(g, [(x,) for x in (5, 10)])
    assert ek.convolve(a, b) == d


def test_convolution_group_mismatch():
    g1, g2 = ek.group_new([6]), ek.group_new([2, 3])
    with pytest.raises(ValueError):
        ek.convolve(IntVector.delta(g1, (0,)), IntVector.delta(g2, (0, 0)))


def test_involution_examples():
    g = ek.group_new([15])
    x = IntVector.indicator(g, [(1,)])
    assert ek.involution(x) == IntVector.indicator(g, [(14,)])
    h = IntVector.indicator(g, [(0,), (5,), (10,)])
    assert ek.involution(h) == h
    x = IntVector.indicator(g, [(1,), (2,), (4,), (8,)])
    assert ek.involution(x) == IntVector.indicator(g, [(14,), (13,), (11,), (7,)])


def test_annihilator_examples():
    g = ek.group_new([15])
    H = ek.Subgroup(g, ((0,), (5,), (10,)))
    assert ek.annihilator(H).elements == ((0,), (3,), (6,), (9,), (12,))
    assert ek.annihilator(ek.Subgroup.trivial(g)).order == 15
    assert ek.annihilator(ek.Subgroup.full(g)).elements == ((0,),)


def test_cosets_and_quotients():
    g = ek.group_new([15])
    H = ek.Subgroup(g, ((0,), (5,), (10,)))
    reps = [r for r, _ in ek.cosets(H)]
    assert reps == [(0,), (1,), (2,), (3,), (4,)]
    cover = [el for _, members in ek.cosets(H) for el in members]
    assert sorted(cover) == list(g.elements)

    q = ek.quotient_group(H)
    assert q.group.order == 5
    # kernel of the projection is exactly H
    kernel = {el for el in g.elements if q.project(el) == q.group.zero}
    assert kernel == set(H.elements)

    assert len(ek.cosets(ek.Subgroup.full(g))) == 1
    assert len(ek.cosets(ek.Subgroup.trivial(g))) == 15
    assert ek.quotient_group(ek.Subgroup.full(g)).group.order == 1


def test_quotient_of_product_group():
    g = ek.group_new([2, 4])
    H = ek.Subgroup.generated_by(g, [(1, 2)])
    q = ek.quotient_group(H)
    assert q.group.order == 4
    # projection must be a homomorphism
    for a in g.elements:
        for b in g.elements:
            assert q.group.add(q.project(a), q.project(b)) == q.project(g.add(a, b))


def test_subgroups_of_order():
    g = ek.group_new([15])
    subs = ek.subgroups_of_order(g, 3)
    assert len(subs) == 1 and subs[0].elements == ((0,), (5,), (10,))
    assert ek.subgroups_of_order(g, 1)[0].elements == ((0,),)
    g22 = ek.group_new([2, 2])
    assert len(ek.subgroups_of_order(g22, 2)) == 3
    with pytest.raises(ValueError):
        ek.subgroups_of_order(g, 4)


def test_subgroup_search_cap():
    g = ek.group_new([2, 2, 2])
    with pytest.raises(ek.SearchCapExceeded):
        ek.subgroups_of_order(g, 2, cap=4)


def test_subgroup_closure_validation():
    g = ek.group_new([12])
    with pytest.raises(ValueError):
        ek.Subgroup(g, ((0,), (1,)))  # not closed
    sub = ek.Subgroup.generated_by(g, [(8,)])
    assert sub.elements == ((0,), (4,), (8,))


POISSON_GROUPS = [[1], [2], [12], [15], [16], [2, 4], [3, 9], [2, 2, 5], [200]]


@pytest.mark.parametrize("orders", POISSON_GROUPS, ids=str)
def test_poisson_summation_exact_over_all_subgroups(orders):
    g = ek.group_new(orders)
    for H in ek.all_subgroups(g):
        out = ek.dft(IntVector.indicator(g, H.elements))
        ann = set(H.annihilator().elements)
        for chi, value in out.items():
            assert value == (H.order if chi in ann else 0)


def test_fourier_convolution_theorem_exact():
    import random

    rng = random.Random(7)
    for orders in ([6], [2, 4], [9]):
        g = ek.group_new(orders)
        x = IntVector(g, {el: rng.randint(-3, 3) for el in g.elements})
        y = IntVector(g, {el: rng.randint(-3, 3) for el in g.elements})
        lhs = ek.dft(ek.convolve(x, y))
        fx, fy = ek.dft(x), ek.dft(y)
        for chi in g.characters:
            assert (lhs[chi] - fx[chi] * fy[chi]).is_zero()


def test_autocorrelation_spectrum_identity():
    import random

    rng = random.Random(11)
    for orders in ([10], [3, 4]):
        g = ek.group_new(orders)
        support = [el for el in g.elements if rng.random() < 0.4]
        if not support:
            support = [g.zero]
        d = IntVector.indicator(g, support)
        lhs = ek.dft(ek.convolve(d, ek.involution(d)))
        fd = ek.dft(d)
        for chi in g.characters:
            assert (lhs[chi] - fd[chi].abs_squared()).is_zero()
            assert abs(complex(lhs[chi]) - abs(complex(fd[chi])) ** 2) < 1e-9


def test_character_table_orthogonality():
    # column x holds conj(chi(x)) over all characters chi
    for orders in ([7], [2, 6], [4, 4]):
        g = ek.group_new(orders)
        table = np.column_stack([ek.dft_numeric(IntVector.delta(g, x)) for x in g.elements])
        assert np.max(np.abs(table @ table.conj().T - g.order * np.eye(g.order))) < 1e-9


def test_dft_numeric_beyond_4096_matches_oracle():
    import random

    rng = random.Random(5)
    orders = [71, 73]  # order 5183
    g = ek.group_new(orders)
    support = rng.sample(g.elements, 40)
    spectrum = ek.dft_numeric(IntVector.indicator(g, support))
    for chi in rng.sample(g.characters, 25) + [g.zero]:
        want = oracle_dft_value(orders, support, chi)
        assert abs(spectrum[g.index_of(chi)] - want) < 1e-9


def test_coset_character_sum_vanishes():
    # sum of gamma over coset representatives is zero for nontrivial gamma in
    # the annihilator
    g = ek.group_new([15])
    H = ek.Subgroup(g, ((0,), (5,), (10,)))
    for chi in H.annihilator().elements:
        if chi == (0,):
            continue
        total = sum(
            (Cyclotomic.root(g.char_exponent(chi, rep), g.exponent) for rep, _ in H.cosets),
            Cyclotomic.zero(g.exponent),
        )
        assert total.is_zero()


def test_element_order_and_scale():
    g = ek.group_new([4, 6])
    assert g.element_order((2, 3)) == 2
    assert g.element_order((1, 1)) == 12
    assert g.scale(5, (1, 1)) == (1, 5)
