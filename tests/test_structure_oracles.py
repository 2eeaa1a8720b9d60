"""Brute-force cross-validation of the structural algorithms: subgroup
enumeration and the fine-subgroup search against exhaustive subset closure,
quotient projections against first principles, and known subgroup-lattice
counts."""

import itertools
import math
import random

import pytest

import etfkit as ek


def brute_force_subgroups(group):
    """Every subgroup, by checking closure of every subset containing 0.
    Exponential; only for tiny groups."""
    els = group.elements
    out = []
    for r in range(len(els) + 1):
        for combo in itertools.combinations(els, r):
            if group.zero not in combo:
                continue
            s = set(combo)
            closed = all(
                group.add(a, b) in s for a in combo for b in combo
            ) and all(group.neg(a) in s for a in combo)
            if closed:
                out.append(frozenset(combo))
    return set(out)


@pytest.mark.parametrize("orders", [[6], [8], [2, 2], [2, 4], [3, 3]], ids=str)
def test_subgroup_enumeration_matches_bruteforce(orders):
    g = ek.group_new(orders)
    brute = brute_force_subgroups(g)
    mine = {frozenset(H.elements) for H in ek.all_subgroups(g)}
    assert mine == brute
    # per-order enumeration agrees too
    for h in range(1, g.order + 1):
        if g.order % h:
            continue
        want = {s for s in brute if len(s) == h}
        got = {frozenset(H.elements) for H in ek.subgroups_of_order(g, h)}
        assert got == want


KNOWN_SUBGROUP_COUNTS = [
    ([12], 6),       # one per divisor of 12
    ([30], 8),
    ([2, 2], 5),     # 1 + 3 + 1
    ([2, 2, 2], 16),  # 1 + 7 + 7 + 1
    ([3, 3], 6),     # 1 + 4 + 1
    ([2, 4], 8),
    ([2, 2, 2, 2], 67),  # sum of Gaussian binomials [4 k]_2
    ([2, 2, 2, 2, 2], 374),  # 1 + 31 + 155 + 155 + 31 + 1
]


@pytest.mark.parametrize("orders,count", KNOWN_SUBGROUP_COUNTS, ids=str)
def test_known_subgroup_lattice_sizes(orders, count):
    g = ek.group_new(orders)
    assert len(ek.all_subgroups(g)) == count


def test_all_subgroups_cap_applies_to_cyclic_groups():
    z12 = ek.group_new([12])
    assert [H.order for H in ek.subgroups_of_order(z12, 4, cap=10)] == [4]
    with pytest.raises(ek.SearchCapExceeded):
        ek.all_subgroups(z12, cap=10)


def oracle_fine_subgroup(orders, elements):
    """Lex-first subgroup of order G/(S+1) disjoint from D, or None, by
    checking closure of every subset of that size containing 0."""
    order = math.prod(orders)
    d = len(elements)
    s_sq, rem = divmod(d * (order - 1), order - d)
    s = math.isqrt(s_sq)
    assert rem == 0 and s * s == s_sq and order % (s + 1) == 0
    k = order // (s + 1)
    zero = (0,) * len(orders)
    dset = set(elements)
    nonzero = [g for g in itertools.product(*(range(n) for n in orders)) if g != zero]
    for rest in itertools.combinations(nonzero, k - 1):
        combo = (zero,) + rest
        members = set(combo)
        closed = all(
            tuple((x + y) % n for x, y, n in zip(a, b, orders)) in members
            for a in combo
            for b in combo
        )
        if closed and not members & dset:
            return combo
    return None


def _fine_subgroup_agrees_with_oracle(orders, elements) -> bool:
    H = ek.is_fine(ek.subset(ek.group_new(orders), elements))
    return (H.elements if H is not None else None) == oracle_fine_subgroup(orders, elements)


@pytest.mark.parametrize("k_orders", [[2, 2], [4]], ids=str)
def test_is_fine_returns_lex_first_disjoint_subgroup(k_orders):
    # translates by every element: those by H keep H, the others meet every
    # subgroup of order k (some contain 0) or have another lex-first one
    fam = ek.mcfarland(2, 2, k_orders)
    orders = fam.group.cyclic_orders
    for h in fam.group.elements:
        els = [tuple((x + y) % n for x, y, n in zip(g, h, orders)) for g in fam.D.elements]
        assert _fine_subgroup_agrees_with_oracle(orders, els), h


@pytest.mark.parametrize("missing", [(0, 0), (1, 0)], ids=str)
def test_is_fine_trivial_subgroup_unless_zero_in_D(missing):
    # D = G minus one point has S = G - 1, so the fine subgroup is {0}
    els = [g for g in ek.group_new([5, 5]).elements if g != missing]
    assert _fine_subgroup_agrees_with_oracle((5, 5), els)


@pytest.mark.parametrize(
    "orders", [[12], [2, 4], [8, 3], [2, 2, 9], [4, 6], [3, 3, 5]], ids=str
)
def test_quotient_projection_first_principles(orders):
    rng = random.Random(hash(tuple(orders)) & 0xFFFF)
    g = ek.group_new(orders)
    subs = ek.all_subgroups(g)
    for H in rng.sample(subs, min(6, len(subs))):
        q = ek.quotient_group(H)
        # order
        assert q.group.order * H.order == g.order
        # homomorphism
        for _ in range(20):
            a = g.elements[rng.randrange(g.order)]
            b = g.elements[rng.randrange(g.order)]
            assert q.group.add(q.project(a), q.project(b)) == q.project(g.add(a, b))
        # kernel is exactly H
        kernel = {el for el in g.elements if q.project(el) == q.group.zero}
        assert kernel == set(H.elements)
        # surjective
        image = {q.project(el) for el in g.elements}
        assert len(image) == q.group.order


def test_quotient_respects_coset_structure():
    g = ek.group_new([2, 4])
    H = ek.Subgroup.generated_by(g, [(1, 2)])
    q = ek.quotient_group(H)
    # two elements project equally iff they lie in the same coset
    for a in g.elements:
        for b in g.elements:
            same_coset = H.coset_rep[a] == H.coset_rep[b]
            assert (q.project(a) == q.project(b)) == same_coset


def test_dlog_with_non_generator_base():
    f13 = ek.ff_new(13, 1)
    # 3 has order 3 mod 13: {1, 3, 9}
    assert ek.ff_dlog(f13, (3,), (9,)) in (2, 5, 8, 11)
    assert f13.pow((3,), ek.ff_dlog(f13, (3,), (9,))) == (9,)
    with pytest.raises(ValueError):
        ek.ff_dlog(f13, (3,), (2,))  # 2 is not a power of 3 mod 13
