import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import etfkit as ek
from etfkit import groups
from etfkit.cyclotomic import Cyclotomic
from etfkit.groups import IntVector, _NTT_PRIME, _ntt_counts

from conftest import (
    oracle_annihilator,
    oracle_dft_value,
    oracle_difference_counts,
    reference_cosets,
    reference_pair_counts,
)


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


def test_group_order_cap():
    assert ek.group_new([4096, 4096]).order == 2**24
    with pytest.raises(ValueError, match=f"cap {2**24}"):
        ek.group_new([2**24 + 1])
    with pytest.raises(ValueError, match=f"cap {2**24}"):
        ek.group_new([2, 99999999999999999999])


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


@pytest.mark.parametrize("orders", [[12], [2, 4], [3, 3]], ids=str)
def test_annihilator_matches_complex_oracle_on_every_subgroup(orders):
    g = ek.group_new(orders)
    for H in ek.all_subgroups(g):
        ann = H.annihilator()
        assert set(ann.elements) == oracle_annihilator(orders, H.elements)
        assert H.annihilator() is ann  # computed once per subgroup


def test_annihilator_pairs_characters_with_a_generating_set_only(monkeypatch):
    columns = []
    pair_exponents = ek.AbelianGroup._pair_exponents

    def recording(self, characters, elements):
        columns.append(len(elements))
        return pair_exponents(self, characters, elements)

    monkeypatch.setattr(ek.AbelianGroup, "_pair_exponents", recording)
    g = ek.group_new([4, 8, 2])
    for H in ek.all_subgroups(g):
        columns.clear()
        H.annihilator()
        # one product, with at most log2 |H| generators, never every element
        assert len(columns) == 1 and 2 ** columns[0] <= H.order


@pytest.mark.parametrize("orders, generator", [([2**16], (2,)), ([2] * 16, None)])
def test_subgroup_closure_sums_n_log_n_pairs(monkeypatch, orders, generator):
    # a subgroup of order 2^15: all its pair sums would be 2^30
    g = ek.group_new(orders)
    if generator is None:
        els = tuple(x for x in g.elements if x[0] == 0)
    else:
        els = tuple((2 * i,) for i in range(2**15))
    pairs = []
    sum_indices = ek.AbelianGroup._sum_indices

    def recording(self, a, b):
        out = sum_indices(self, a, b)
        pairs.append(out.size)
        return out

    monkeypatch.setattr(ek.AbelianGroup, "_sum_indices", recording)
    H = ek.Subgroup(g, els)
    assert H.order == 2**15 and sum(pairs) <= 15 * 2**15
    assert len(H._generators) == (1 if generator else 15)
    assert generator is None or H._generators == (generator,)


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


# ---------------------------------------------------------------------------
# difference counts by the number-theoretic transform

# cyclic, mixed-radix and power-of-two axes: Z_2^k and Z_2^m go unpadded
NTT_ORDERS = [(7,), (12,), (16,), (2,) * 5, (8, 2), (2, 3, 4), (5, 5), (4, 9), (1, 6), (2, 2, 8, 3)]


@st.composite
def ntt_operands(draw):
    """A group, two residue row arrays without repeats, and signed weights
    or None."""
    g = ek.group_new(draw(st.sampled_from(NTT_ORDERS)))

    def rows():
        positions = draw(st.lists(st.integers(0, g.order - 1), unique=True, max_size=g.order))
        return np.array(g._elements_at(positions), dtype=np.int64).reshape(-1, len(g.cyclic_orders))

    a, b = rows(), rows()
    if not draw(st.booleans()):
        return g, a, b, None
    weights = tuple(np.array(draw(st.lists(st.integers(-1000, 1000), min_size=len(x), max_size=len(x))),
                             dtype=np.int64) for x in (a, b))
    return g, a, b, weights


@settings(max_examples=80, deadline=None)
@given(ntt_operands())
def test_ntt_counts_match_the_pair_blocks(operands):
    g, a, b, weights = operands
    got = _ntt_counts(g, a, b, weights)
    assert got is not None and got.dtype == np.int64
    assert np.array_equal(got, reference_pair_counts(g, a, b, weights))


@settings(max_examples=60, deadline=None)
@given(ntt_operands())
def test_ntt_difference_counts_match_the_oracle(operands):
    g, a, _, _ = operands
    els = [tuple(x) for x in a.tolist()]
    want = oracle_difference_counts(g.cyclic_orders, els)
    if els:
        want[g.zero] = len(els)
    got = _ntt_counts(g, a, -a % g.cyclic_orders)
    assert IntVector._from_dense(g, got).values == want


def _subgroup_rows(orders, generator):
    g = ek.group_new(orders)
    return g, np.array(ek.Subgroup.generated_by(g, [generator]).elements, dtype=np.int64)


@pytest.mark.parametrize("sign", [1, -1])
def test_ntt_counts_are_exact_just_under_half_the_prime(sign):
    # four pairs meet at every point of H = <4> in Z_16 and of <(0, 1)> in
    # Z_8 x Z_4, so each count there is 4 w, just under p/2 (the bound)
    for orders, generator in (((16,), (4,)), ((8, 4), (0, 1))):
        g, h = _subgroup_rows(orders, generator)
        w = _NTT_PRIME // 2 // 4
        weights = (np.full(4, sign * w, dtype=np.int64), np.ones(4, dtype=np.int64))
        got = _ntt_counts(g, h, h, weights)
        assert np.array_equal(got, reference_pair_counts(g, h, h, weights))
        assert sorted(set(got.tolist())) == sorted({0, sign * 4 * w})


def test_ntt_counts_fall_back_just_over_half_the_prime(monkeypatch):
    g, h = _subgroup_rows((16,), (4,))
    weights = (np.full(4, _NTT_PRIME // 2 // 4 + 1, dtype=np.int64), np.ones(4, dtype=np.int64))
    assert _ntt_counts(g, h, h, weights) is None
    # with the cost rule patched to try the transform, the pair blocks answer
    monkeypatch.setattr(groups, "_NTT_COST", 0)
    monkeypatch.setattr(groups, "_NTT_OVERHEAD", -1)
    tried = []
    monkeypatch.setattr(groups, "_ntt_counts", lambda *args: tried.append(args) or _ntt_counts(*args))
    got = groups._sum_counts(g, h, h, weights)
    assert tried and np.array_equal(got, reference_pair_counts(g, h, h, weights))
    assert set(got.tolist()) == {0, 4 * weights[0][0]}


def test_ntt_counts_refuse_a_transform_past_two_to_the_26():
    # power-of-two factors go unpadded; 4095 pads to 8192, so Z_4095^2 is
    # exactly 2^26 long, and Z_3^15 pads every factor to 8, far past it
    assert groups._ntt_shape(ek.group_new([2] * 24)) == (2,) * 24
    assert groups._ntt_shape(ek.group_new([2**24])) == (2**24,)
    assert groups._ntt_shape(ek.group_new([4095, 4095])) == (8192, 8192)
    g = ek.group_new([3] * 15)
    one = np.zeros((1, 15), dtype=np.int64)
    assert _ntt_counts(g, one, one) is None


# ---------------------------------------------------------------------------
# cosets from one coset labelling of G


def _every_subgroup_and_annihilator(orders):
    g = ek.group_new(orders)
    for H in ek.all_subgroups(g):
        yield H
        yield H.annihilator()


@pytest.mark.parametrize("orders", [(12,), (2, 4, 2), (3, 3)])
def test_cosets_match_the_loop_of_additions(orders):
    for H in _every_subgroup_and_annihilator(orders):
        fresh = ek.Subgroup(H.group, H.elements)
        want = reference_cosets(fresh)
        assert fresh.cosets == want
        assert fresh.coset_rep == {g: r for r, members in want for g in members}


def test_cosets_of_tpp_q47_match_the_loop_of_additions():
    fam = ek.tpp_complement(47)
    for H in (fam.H, fam.H.annihilator()):
        assert ek.Subgroup(H.group, H.elements).cosets == reference_cosets(H)


def test_cosets_make_no_pass_of_additions(monkeypatch):
    H = ek.tpp_complement(11).H
    H = ek.Subgroup(H.group, H.elements)
    monkeypatch.setattr(ek.AbelianGroup, "add", lambda *args: pytest.fail("a Python addition"))
    assert len(H.cosets) == H.group.order // H.order and len(H.coset_rep) == H.group.order
