"""Fine / amalgam / composite classification of difference sets.

The hierarchy: a difference set is *fine* when it avoids a subgroup of the
maximal possible order G/(S+1); *amalgam* when additionally every coset slice
D_g = H & (D - g) is a difference set for H; *composite* when the slices are
all translates of one B, so the indicator factors as chi_A * chi_B.  Each
stage is certified with exact integer arithmetic and cross-checked on the
Fourier side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclotomic import _reduce
from .designs import (
    GroupSubset,
    _check_spectrum,
    _difference_lambda,
    certify_difference_set,
    non_ds_witness,
    welch_integer_S,
)
from .groups import Element, Subgroup, _subgroup_sets, _sum_counts, convolve


def compute_Dg(D: GroupSubset, H: Subgroup, g: Element) -> GroupSubset:
    """The slice H & (D - g), as a subset of H."""
    return _slices(D, H, [g])[g]


def _slices(D: GroupSubset, H: Subgroup, shifts=None) -> dict:
    """The slice H & (D - g) for every g in ``shifts`` (by default the coset
    representatives of H), keyed by g, from one index-array pass."""
    if shifts is None:
        shifts = [g for g, _ in H.cosets]
    return {
        g: GroupSubset(D.group, tuple(H.elements[i] for i in np.flatnonzero(row).tolist()))
        for g, row in zip(shifts, _slice_hits(D, H, shifts))
    }


def _slice_hits(D: GroupSubset, H: Subgroup, shifts) -> np.ndarray:
    """Row g: whether g + h lies in D, for every h in H in its order."""
    G = D.group
    in_d = np.zeros(G.order, dtype=bool)
    in_d[G.indices(D._rows)] = True
    out = np.empty((len(shifts), H.order), dtype=bool)
    for r, c, positions in G._pair_blocks(G._residues(shifts), G._residues(H.elements)):
        out[r, c] = in_d[positions]
    return out


def is_fine(D: GroupSubset, cap: int = 10000) -> Subgroup | None:
    """First subgroup of order G/(S+1) disjoint from D, in deterministic
    order, or None.  On success the three equivalent fineness conditions are
    cross-checked exactly; disagreement raises."""
    if certify_difference_set(D) is None:
        return None
    s = welch_integer_S(D.size, D.group.order)
    found = None if s is None else _fine_subgroup(D, s, cap)
    return None if found is None else found[0]


def _fine_subgroup(D: GroupSubset, s: int, cap: int) -> tuple[Subgroup, dict] | None:
    """``is_fine`` for a certified difference set with Welch reciprocal S,
    with the coset-slice table that its consistency check built."""
    G = D.group
    if G.order % (s + 1):
        return None
    k = G.order // (s + 1)
    # the walk never builds a subgroup that meets D; the first of order k is
    # the lex-first disjoint one
    els = next((els for els in _subgroup_sets(G, k, cap, D.elements) if len(els) == k), None)
    if els is None:
        return None
    H = Subgroup(G, els)
    slices = _slices(D, H)
    _assert_fine_consistency(D, H, s, slices)
    return H, slices


def _assert_fine_consistency(D: GroupSubset, H: Subgroup, s: int, slices: dict) -> None:
    # (ii) the DFT of chi_D equals -D/S on the nontrivial annihilator, exactly:
    # row chi holds S * sum_d conj(chi(d)) + D, one batched zero test
    G = D.group
    ann = H.annihilator().elements[1:]  # [0] is the trivial character
    n = len(ann)
    exps = np.zeros((n, D.size + 1), dtype=np.int64)
    exps[:, :-1] = -G._pair_exponents(ann, D.elements)
    weights = np.tile([s] * D.size + [D.size], n)
    _, rem = _reduce(G.exponent, n, np.repeat(np.arange(n), D.size + 1), exps.ravel(), weights)
    zero = (rem == 0).all(axis=1)
    if not zero.all():
        raise AssertionError(f"fineness Fourier condition failed at {ann[np.argmin(zero)]}")
    # (iii) every coset off H meets D in exactly D/S points
    if D.size % s:
        raise AssertionError("S must divide D for a fine difference set")
    per = D.size // s
    for g, slc in slices.items():
        size = slc.size
        want = 0 if H.contains(g) else per
        if size != want:
            raise AssertionError(f"coset slice at {g} has size {size}, expected {want}")


def is_amalgam(D: GroupSubset, H: Subgroup, tol: float = 1e-9) -> bool:
    """Whether every nonempty coset slice D_g is a difference set for H with
    |D_g| = D/S and S^3 (|D_g| - Lambda_g) = D^2.

    Fast-path: S^3 must divide D^2.  Certified slices are cross-checked
    against the closed-form Fourier magnitude pattern of small difference
    sets inside a fine set.
    """
    return _is_amalgam(D, H, _slices(D, H), tol)


def _is_amalgam(D: GroupSubset, H: Subgroup, slices: dict, tol: float) -> bool:
    """``is_amalgam`` on the coset-slice table of D and H."""
    s = D.group.order // H.order - 1
    if (D.size**2) % (s**3):
        return False
    # empty slices count as difference sets for H
    if not all(_amalgam_slice(Dg, H.order, D.size, s) for Dg in slices.values() if Dg.size):
        return False
    # by Fourier inversion on H, the slice conditions are exactly
    # |DFT(chi_B)|^2 == (D^2/S^3) * (1 + (S-1) chi_ann) for each nonempty slice
    ann = H.annihilator()
    base = D.size**2 / s**3
    for Dg in slices.values():
        if Dg.size:
            _check_spectrum(Dg, ann, base * s, base, tol, 1.0)
    return True


def _amalgam_slice(Y: GroupSubset, n: int, d: int, s: int) -> bool:
    """Whether Y, inside a subgroup of order n, is a difference set with
    |Y| = d/S and S^3 (|Y| - Lambda_Y) = d^2, as every slice of an amalgam
    of d points with Welch reciprocal S is."""
    lam = _difference_lambda(Y, n) if s * Y.size == d else None
    return lam is not None and s**3 * (Y.size - lam) == d * d


def is_composite(D: GroupSubset, H: Subgroup) -> tuple[GroupSubset, GroupSubset] | None:
    """Witness (A, B) with chi_D = chi_A * chi_B, or None.

    B is the slice at the first nonidentity coset representative; each other
    coset is searched for the least translate-matching representative.
    """
    return _is_composite(D, H, _slices(D, H))


def _is_composite(D: GroupSubset, H: Subgroup, slices: dict):
    """``is_composite`` on the coset-slice table of D and H.

    The slice D_a contains B exactly when a + B lies in D, that is when a is
    a sum of D and -B |B| times; it is B when also |D_a| = |B|, and |D_a| is
    the same across a coset, since D_{g+h} = D_g - h.
    """
    G = D.group
    nontrivial = [g for g in slices if not H.contains(g)]
    if not nontrivial:
        return None
    B = slices[nontrivial[0]]
    if B.size == 0 or _difference_lambda(B, H.order) is None:
        return None
    if any(slices[g].size != B.size for g in nontrivial):
        return None
    contains_b = _sum_counts(G, D._rows, -B._rows % G.cyclic_orders) == B.size
    least = {}  # coset representative -> least a in the coset with D_a = B
    for a in G._elements_at(np.flatnonzero(contains_b)):
        least.setdefault(H.coset_rep[a], a)
    if any(g not in least for g in nontrivial):
        return None
    A = GroupSubset(G, tuple(least[g] for g in nontrivial))
    if convolve(A.indicator(), B.indicator()) != D.indicator():
        raise AssertionError("translate matching succeeded but convolution disagrees")
    return A, B


@dataclass(frozen=True)
class DesignCertificate:
    subset: GroupSubset
    is_ds: bool
    lam: int | None
    welch_s: int | None
    fine_subgroup: Subgroup | None
    dg_table: dict | None
    amalgam: bool
    composite_witness: tuple[GroupSubset, GroupSubset] | None
    divisibility: dict
    not_ds_witness: tuple | None = None
    failure_reason: str | None = None

    @property
    def is_fine(self) -> bool:
        return self.fine_subgroup is not None

    @property
    def is_composite(self) -> bool:
        return self.composite_witness is not None

    def as_dict(self) -> dict:
        out = {
            "group": {"cyclic_orders": list(self.subset.group.cyclic_orders)},
            "elements": [list(g) for g in self.subset.elements],
            "is_difference_set": self.is_ds,
            "lambda": self.lam,
            "welch_s": self.welch_s,
            "is_fine": self.is_fine,
            "is_amalgam": self.amalgam,
            "is_composite": self.is_composite,
            "divisibility": dict(self.divisibility),
        }
        if self.fine_subgroup is not None:
            out["fine_subgroup"] = [list(g) for g in self.fine_subgroup.elements]
        if self.dg_table is not None:
            out["coset_slices"] = {
                ",".join(map(str, rep)): [list(g) for g in slc.elements]
                for rep, slc in self.dg_table.items()
            }
        if self.composite_witness is not None:
            a, b = self.composite_witness
            out["composite_a"] = [list(g) for g in a.elements]
            out["composite_b"] = [list(g) for g in b.elements]
        if self.not_ds_witness is not None:
            g1, c1, g2, c2 = self.not_ds_witness
            out["not_ds_witness"] = {
                "element_1": list(g1),
                "count_1": c1,
                "element_2": list(g2),
                "count_2": c2,
            }
        if self.failure_reason:
            out["failure_reason"] = self.failure_reason
        return out


def classify(D: GroupSubset, cap: int = 10000) -> DesignCertificate:
    """Full pipeline: difference set -> integer S -> fine -> amalgam ->
    composite, each stage gated on the previous one."""
    G = D.group
    lam = certify_difference_set(D)
    if lam is None:
        witness = non_ds_witness(D) if D.size else None
        return DesignCertificate(
            D, False, None, None, None, None, False, None, {},
            not_ds_witness=witness,
            failure_reason="empty set" if D.size == 0 else "not a difference set",
        )
    s = welch_integer_S(D.size, G.order) if D.size < G.order else None
    div = _divisibility_flags(D.size, G.order, s)
    if s is None:
        reason = (
            "Welch reciprocal S is undefined for the full group"
            if D.size >= G.order
            else "Welch reciprocal S is not an integer"
        )
        return DesignCertificate(
            D, True, lam, None, None, None, False, None, div,
            failure_reason=reason,
        )
    found = _fine_subgroup(D, s, cap)
    if found is None:
        return DesignCertificate(
            D, True, lam, s, None, None, False, None, div,
            failure_reason=f"no disjoint subgroup of order {G.order // (s + 1)}"
            if G.order % (s + 1) == 0
            else "S+1 does not divide the group order",
        )
    H, dg_table = found
    _appendix_counting_identity(lam, H, dg_table)
    amalgam = _is_amalgam(D, H, dg_table, 1e-9)
    witness = _is_composite(D, H, dg_table) if amalgam else None
    cert = DesignCertificate(
        D, True, lam, s, H, dg_table, amalgam, witness, div,
        failure_reason=None,
    )
    # hierarchy: composite => amalgam => fine, by construction of the gating
    if cert.is_composite and not cert.amalgam:
        raise AssertionError("composite certificate that is not amalgam")
    if cert.amalgam and not cert.is_fine:
        raise AssertionError("amalgam certificate that is not fine")
    return cert


def _divisibility_flags(d: int, g: int, s: int | None) -> dict:
    out = {}
    if s is not None:
        out["s_divides_d"] = d % s == 0
        out["s3_divides_d2"] = (d * d) % (s**3) == 0
    out["g_minus_d_divides_d_minus_1"] = (d - 1) % (g - d) == 0 if g > d else None
    return out


def _appendix_counting_identity(lam: int, H: Subgroup, dg_table: dict) -> None:
    # (H-1)*Lambda must equal the sum of |D_g| (|D_g|-1) over coset reps
    total = sum(s.size * (s.size - 1) for s in dg_table.values())
    if (H.order - 1) * lam != total:
        raise AssertionError(
            f"slice counting identity failed: {(H.order - 1) * lam} != {total}"
        )
