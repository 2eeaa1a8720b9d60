"""Subgroups in their own coordinates, and the slice table built on them,
against plain residue-tuple arithmetic, direct character sums and the
pair-block counts."""

import cmath
import random

import numpy as np
import pytest

import etfkit as ek
from etfkit import cyclotomic, groups, matrices
from etfkit.classify import _SliceTable

from conftest import reference_pair_counts

# every subgroup of each, non-split ones such as <(0, 2)> in Z_2 x Z_8 among them
GROUPS = [(2, 8), (4, 8), (3, 9), (6, 6), (2, 2, 2, 2)]


def _coordinate_tuples(C, positions):
    return [tuple(int(x) for x in np.unravel_index(p, C.cyclic_orders)) for p in positions]


@pytest.mark.parametrize("orders", GROUPS, ids=str)
def test_coordinates_are_an_isomorphism_carrying_the_characters(orders):
    G = ek.group_new(orders)
    L = G.exponent
    for H in ek.all_subgroups(G):
        C, h, eta = H._coordinates
        n, d = H.order, C.cyclic_orders
        assert sorted(h.tolist()) == list(range(n)) and sorted(eta.tolist()) == list(range(n))
        coords = dict(zip(H.elements, _coordinate_tuples(C, h)))
        for x in H.elements:  # a homomorphism: the coordinates of x + y add
            for y in H.elements:
                want = tuple((a + b) % m for a, b, m in zip(coords[x], coords[y], d))
                assert coords[G.add(x, y)] == want
        # every character of G, through its annihilator coset, takes the value
        # that its coordinates give
        ann = H.annihilator()
        char_coords = _coordinate_tuples(C, eta[ann._coset_index[1]])
        for chi, c2 in zip(G.characters, char_coords):
            for x in H.elements:
                e = sum(a * b * (L // m) for a, b, m in zip(coords[x], c2, d)) % L
                assert e == G.char_exponent(chi, x)


@pytest.mark.parametrize("orders", GROUPS, ids=str)
def test_slice_spectrum_and_counts_match_direct_sums(orders):
    G = ek.group_new(orders)
    L = G.exponent
    rng = random.Random(sum(orders))
    for H in ek.all_subgroups(G):
        D = ek.subset(G, rng.sample(G.elements, rng.randint(1, G.order - 1)))
        t = _SliceTable(D, H)
        other = np.array([rng.random() < 0.5 for _ in range(H.order)])
        cross = t.cross_counts(other)
        b_rows = G._residues([x for x, inside in zip(H.elements, other) if inside])
        for a, rep in enumerate(t.reps):
            Y = t.slices[rep]
            for k, chi in enumerate(t.labels):
                want = sum(cmath.exp(2j * cmath.pi * G.char_exponent(chi, y) / L) for y in Y.elements)
                assert abs(t.spectrum[a, k] - want) <= 1e-9
            if not Y.size:
                continue
            minus = [G.neg(y) for y in Y.elements]
            assert np.array_equal(t.counts[a], reference_pair_counts(G, Y._rows, minus)[t.h_index])
            want = reference_pair_counts(G, Y._rows, -b_rows % G.cyclic_orders)[t.h_index]
            assert np.array_equal(cross[a], want)


def test_the_trivial_subgroup_sits_at_zero():
    G = ek.group_new([4, 6])
    C, h, eta = ek.Subgroup.trivial(G)._coordinates
    assert C.cyclic_orders == (1,) and h.tolist() == [0] and eta.tolist() == [0]


NONCYCLIC_SEARCH_SETS = [(2, 3, (2, 2, 2)), (2, 3, (4, 2)), (2, 3, (2, 4)), (2, 3, (8,)),
                         (4, 2, (2, 3)), (4, 2, (3, 2)), (4, 2, (6,))]


@pytest.mark.parametrize("q, j, k", NONCYCLIC_SEARCH_SETS, ids=str)
def test_classify_of_a_non_amalgam_builds_no_coordinates(monkeypatch, q, j, k):
    # S^3 does not divide |D|^2, so no slice count or spectrum is read
    def forbidden(self):
        raise AssertionError("coordinates built")

    monkeypatch.setattr(groups.Subgroup, "_coordinates", property(forbidden))
    cert = ek.classify(ek.mcfarland(q, j, k).D)
    assert cert.is_fine and not cert.amalgam


def test_fusion_checks_use_no_group_sized_tables(monkeypatch):
    fam = ek.singer_complement(2, 6)
    D, H, G = fam.D, fam.H, fam.group
    moduli, sums = [], []
    root_array, sum_indices = cyclotomic._root_array, groups.AbelianGroup._sum_indices

    def recording_roots(modulus):
        moduli.append(modulus)
        return root_array(modulus)

    def recording_sums(self, a, b):
        sums.append(self.cyclic_orders)
        return sum_indices(self, a, b)

    for module in (cyclotomic, matrices):
        monkeypatch.setattr(module, "_root_array", recording_roots)
    monkeypatch.setattr(groups.AbelianGroup, "_sum_indices", recording_sums)
    assert ek.ectff_check(D, H).passed
    assert ek.eitff_check(D, H).passed
    assert ek.triple_product_check(D, H, fam.A, fam.B).passed
    assert sums and G.cyclic_orders not in sums  # the addition tables work on H
    assert G.exponent not in moduli
