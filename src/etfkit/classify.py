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
from fractions import Fraction

from .designs import (
    GroupSubset,
    _check_spectrum,
    certify_difference_set,
    difference_counts,
    non_ds_witness,
    welch_integer_S,
)
from .groups import Element, Subgroup, _dft_at, subgroups_of_order


def compute_Dg(D: GroupSubset, H: Subgroup, g: Element) -> GroupSubset:
    """The slice H & (D - g), as a subset of H."""
    G = D.group
    dset = set(D.elements)
    els = tuple(h for h in H.elements if G.add(h, g) in dset)
    return GroupSubset(G, els)


def is_fine(D: GroupSubset, cap: int = 10000) -> Subgroup | None:
    """First subgroup of order G/(S+1) disjoint from D, in deterministic
    order, or None.  On success the three equivalent fineness conditions are
    cross-checked exactly; disagreement raises."""
    if certify_difference_set(D) is None:
        return None
    s = welch_integer_S(D.size, D.group.order)
    return None if s is None else _fine_subgroup(D, s, cap)


def _fine_subgroup(D: GroupSubset, s: int, cap: int) -> Subgroup | None:
    """``is_fine`` for a certified difference set with Welch reciprocal S."""
    G = D.group
    if G.order % (s + 1):
        return None
    dset = set(D.elements)
    for H in subgroups_of_order(G, G.order // (s + 1), cap=cap):
        if not (set(H.elements) & dset):
            _assert_fine_consistency(D, H, s)
            return H
    return None


def _assert_fine_consistency(D: GroupSubset, H: Subgroup, s: int) -> None:
    # (ii) the DFT of chi_D equals -D/S on the nontrivial annihilator, exactly
    target = Fraction(-D.size, s)
    chi_D = D.indicator()
    for chi in H.annihilator().elements:
        if chi == D.group.zero:
            continue
        if not (_dft_at(chi_D, chi) - target).is_zero():
            raise AssertionError(f"fineness Fourier condition failed at {chi}")
    # (iii) every coset off H meets D in exactly D/S points
    if D.size % s:
        raise AssertionError("S must divide D for a fine difference set")
    per = D.size // s
    for g, _ in H.cosets:
        size = compute_Dg(D, H, g).size
        want = 0 if H.contains(g) else per
        if size != want:
            raise AssertionError(f"coset slice at {g} has size {size}, expected {want}")


def _certify_slice_in_subgroup(Dg: GroupSubset, H: Subgroup) -> bool:
    """Difference-set check for a subset of H, within H; empty slices count."""
    n = len(Dg.elements)
    if n == 0:
        return True
    h = H.order
    if h == 1:
        return n == 1
    if (n * (n - 1)) % (h - 1):
        return False
    lam = n * (n - 1) // (h - 1)
    counts = difference_counts(Dg)
    return all(counts[g] == lam for g in H.elements if g != Dg.group.zero)


def is_amalgam(D: GroupSubset, H: Subgroup, tol: float = 1e-9) -> bool:
    """Whether every coset slice D_g is a difference set for H.

    Fast-path: S^3 must divide D^2.  Certified slices are cross-checked
    against the closed-form Fourier magnitude pattern of small difference
    sets inside a fine set.
    """
    G = D.group
    s = G.order // H.order - 1
    if (D.size**2) % (s**3):
        return False
    slices = []
    for g, _ in H.cosets:
        Dg = compute_Dg(D, H, g)
        if not _certify_slice_in_subgroup(Dg, H):
            return False
        slices.append(Dg)
    # |DFT(chi_B)|^2 == (D^2/S^3) * (1 + (S-1) chi_ann) for each nonempty slice
    ann = H.annihilator()
    base = D.size**2 / s**3
    for Dg in slices:
        if Dg.size:
            _check_spectrum(Dg, ann, base * s, base, tol, 1.0)
    return True


def is_composite(D: GroupSubset, H: Subgroup) -> tuple[GroupSubset, GroupSubset] | None:
    """Witness (A, B) with chi_D = chi_A * chi_B, or None.

    B is the slice at the first nonidentity coset representative; each other
    coset is searched for the unique translate-matching representative.
    """
    from .designs import convolve_indicators

    G = D.group
    coset_list = H.cosets
    nontrivial = [(g, members) for g, members in coset_list if not H.contains(g)]
    if not nontrivial:
        return None
    g0 = nontrivial[0][0]
    B = compute_Dg(D, H, g0)
    if B.size == 0 or not _certify_slice_in_subgroup(B, H):
        return None
    b_set = set(B.elements)
    reps = []
    for _, members in nontrivial:
        match = next(
            (a for a in members if set(compute_Dg(D, H, a).elements) == b_set), None
        )
        if match is None:
            return None
        reps.append(match)
    A = GroupSubset(G, tuple(reps))
    if not convolve_indicators(A, B) == D.indicator():
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
    H = _fine_subgroup(D, s, cap)
    if H is None:
        return DesignCertificate(
            D, True, lam, s, None, None, False, None, div,
            failure_reason=f"no disjoint subgroup of order {G.order // (s + 1)}"
            if G.order % (s + 1) == 0
            else "S+1 does not divide the group order",
        )
    dg_table = {g: compute_Dg(D, H, g) for g, _ in H.cosets}
    _appendix_counting_identity(lam, H, dg_table)
    amalgam = is_amalgam(D, H)
    witness = is_composite(D, H) if amalgam else None
    cert = DesignCertificate(
        D, True, lam, s, H, dg_table, amalgam, witness, div,
        failure_reason=None,
    )
    # hierarchy: composite => amalgam => fine, by construction of the gating
    assert not (cert.is_composite and not cert.amalgam)
    assert not (cert.amalgam and not cert.is_fine)
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
