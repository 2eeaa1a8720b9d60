"""Brute-force cross-validation of the structural algorithms: subgroup
enumeration and the fine-subgroup search against exhaustive subset closure,
quotient projections against first principles, and known subgroup-lattice
counts."""

import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import etfkit as ek
from etfkit.groups import _subgroup_search

from conftest import reference_subgroup_sets


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


# groups for the position search against the element-tuple walk it replaced
SEARCH_GROUPS = [[2] * k for k in range(1, 7)] + [[4, 2, 2, 2], [8, 2], [4, 4], [2, 6], [3, 3, 2]]


@functools.cache
def _reference_lattice(G):
    return reference_subgroup_sets(G, G.order, 10000)


def _lex_first(G, k, avoid):
    mask = np.zeros(G.order, dtype=bool)
    mask[G.indices(avoid)] = True
    found = _subgroup_search(G, k, 10000, mask, first=True)
    return tuple(G._elements_at(found[0])) if found else None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lex_first_search_matches_reference_walk(data):
    G = ek.group_new(data.draw(st.sampled_from(SEARCH_GROUPS), label="orders"))
    k = data.draw(st.sampled_from([d for d in range(1, G.order + 1) if G.order % d == 0]), label="k")
    # avoid sets of every density, the identity included now and then (no hit)
    share = data.draw(st.sampled_from([0.0, 0.05, 0.2, 0.5]), label="share")
    picks = data.draw(st.lists(st.floats(0, 1), min_size=G.order, max_size=G.order), label="u")
    avoid = [g for g, u in zip(G.elements, picks) if u < share]
    # the subgroups of order dividing k that miss avoid, from the reference's
    # whole lattice, in its (order, elements) order
    ref = [els for els in _reference_lattice(G) if k % len(els) == 0 and not set(els) & set(avoid)]
    assert _lex_first(G, k, avoid) == min((els for els in ref if len(els) == k), default=None)
    if G.order <= 32:  # the whole walk takes about a second on Z_2^6
        mask = np.zeros(G.order, dtype=bool)
        mask[G.indices(avoid)] = True
        assert [tuple(G._elements_at(at)) for at in _subgroup_search(G, k, 10000, mask)] == ref


def test_lex_first_search_keeps_subgroups_that_share_a_closure():
    # marking all of <S, g> tried, instead of the coset g + S, returned <(1, 0)>
    G = ek.group_new([8, 2])
    assert _lex_first(G, 8, []) == ((0, 0), (0, 1), (2, 0), (2, 1), (4, 0), (4, 1), (6, 0), (6, 1))
    assert _lex_first(G, 8, [(0, 1)]) == tuple((x, 0) for x in range(8))
    assert _lex_first(G, 8, [(0, 1), (1, 0)]) == tuple((x, x % 2) for x in range(8))
    assert _lex_first(G, 8, [(0, 1), (1, 0), (1, 1)]) is None


@pytest.mark.parametrize("orders", SEARCH_GROUPS, ids=str)
def test_subgroup_enumeration_matches_reference_walk(orders):
    G = ek.group_new(orders)
    ref = _reference_lattice(G)
    assert [H.elements for H in ek.all_subgroups(G)] == ref
    # on Z_2^6 each order above 8 repeats most of the walk compared above
    for h in (d for d in range(1, G.order + 1) if G.order % d == 0 and (d <= 8 or G.order < 64)):
        walk = [tuple(G._elements_at(at)) for at in _subgroup_search(G, h, 10000)]
        assert walk == [e for e in ref if h % len(e) == 0]
        assert [H.elements for H in ek.subgroups_of_order(G, h)] == [e for e in ref if len(e) == h]


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
