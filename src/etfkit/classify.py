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
from functools import cached_property

import numpy as np

from .designs import GroupSubset, _certificate, certify_difference_set, welch_integer_S
from .groups import Element, Subgroup, VerdictDisagreement, _subgroup_search, _sum_counts


class _SliceTable:
    """The coset slices Y_a = (D - r_a) & H, for the coset representatives
    r_0 = 0, r_1, ..., r_S of H, as (S+1) x n indicators over the positions
    of H.elements (n = |H|).  Every check that depends only on H and G/H
    reads them.  Fineness reads the slice sizes alone; the counts, the
    spectrum and the addition tables work in H's own coordinates
    (``Subgroup._coordinates``), which they build on first use."""

    def __init__(self, D: GroupSubset, H: Subgroup) -> None:
        G = D.group
        if G != H.group:
            raise ValueError("subset and subgroup must live in the same group")
        self.D, self.H, self.s = D, H, G.order // H.order - 1
        first, index = H._coset_index
        self.reps = tuple(G._elements_at(first))
        self.h_index = G.indices(H.elements)  # ascending
        at = D._rows @ G.strides
        self.in_d = np.zeros(G.order, dtype=bool)
        self.in_d[at] = True
        # d = r_a + h for a the index of d's coset and h = d - r_a in H
        a = index[at]
        h = (D._rows - G._rows_at(first[a])) % G.cyclic_orders @ G.strides
        self.hits = np.zeros((len(first), H.order), dtype=bool)
        self.hits[a, np.searchsorted(self.h_index, h)] = True
        self.sizes = self.hits.sum(axis=1)

    @cached_property
    def slices(self) -> dict:  # {r_a: Y_a}
        els = self.H.elements
        return {r: GroupSubset(self.D.group, tuple(els[j] for j in np.flatnonzero(row).tolist()))
                for r, row in zip(self.reps, self.hits)}

    @cached_property
    def not_fine(self) -> str | None:
        """Why D fails (iii), each coset off H meeting D in |D|/S points."""
        if self.s <= 0 or self.D.size % self.s:
            return "S does not divide |D|"
        if self.sizes[0]:
            return "it meets H"
        if (self.sizes[1:] != self.D.size // self.s).any():
            return "uneven coset slices"
        return None

    def require_fine(self) -> "_SliceTable":
        if self.not_fine is not None:
            raise ValueError(f"subset is not fine for H: {self.not_fine}")
        return self

    @cached_property
    def counts(self) -> np.ndarray:
        """(S+1) x n int64: at (a, u), the pairs (x, y) of Y_a with x - y = h_u."""
        return self.cross_counts(None)

    def cross_counts(self, other) -> np.ndarray:
        """(S+1) x n int64: at (a, u), the pairs (x, y) of Y_a and of the
        subset of H with indicator row ``other`` (Y_a itself for None) with
        x - y = h_u, one ``_sum_counts`` over H's coordinates per nonempty
        slice."""
        C, at, _ = self.H._coordinates
        rows, out = C._rows_at(at), np.zeros(self.hits.shape, dtype=np.int64)
        for a in np.flatnonzero(self.sizes):
            y = rows[self.hits[a]]
            minus = -rows[self.hits[a] if other is None else other] % C.cyclic_orders
            out[a] = _sum_counts(C, y, minus)[at]
        return out

    def is_difference_set(self, a: int) -> bool:
        """Whether Y_a is a difference set of H: the counts off 0 add up to
        k (k - 1), k = |Y_a|, so each must be k (k - 1) / (n - 1)."""
        k, n = int(self.sizes[a]), self.H.order
        return n == 1 or bool((self.counts[a, 1:] * (n - 1) == k * (k - 1)).all())

    def amalgam_slices(self, rows, d: int) -> bool:
        """Whether each Y_a, a in ``rows``, is a difference set of H with
        |Y_a| = d/S and S^3 (|Y_a| - Lambda) = d^2, as every slice of an
        amalgam of d points with Welch reciprocal S is."""
        n = self.H.order
        for a in rows:
            k = int(self.sizes[a])
            lam = k * (k - 1) // (n - 1) if n > 1 else 0
            if self.s * k != d or self.s**3 * (k - lam) != d * d or not self.is_difference_set(a):
                return False
        return True

    @cached_property
    def amalgam(self) -> bool:
        d = self.D.size
        return d * d % self.s**3 == 0 and self.amalgam_slices(np.flatnonzero(self.sizes), d)

    @cached_property
    def labels(self) -> tuple:  # annihilator coset representatives: on H, the eta_k
        return tuple(self.D.group._elements_at(self.H.annihilator()._coset_index[0]))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """(S+1) x n: F_a(eta_k), the sum of eta_k over Y_a.  In H's
        coordinates that is the unscaled inverse DFT of Y_a at eta_k's
        coordinates, one FFT over C's axes for all S+1 rows.  Row d of
        E_gamma has one entry, in the column of d's coset, so E_gamma*
        E_gamma' is diagonal with entry a = (S/|D|) (gamma' - gamma)(r_a)
        F_a(eta), eta the restriction of gamma' - gamma."""
        C, at, eta = self.H._coordinates
        grid = np.zeros((len(self.hits), C.order))
        grid[:, at] = self.hits
        axes = tuple(range(1, 1 + len(C.cyclic_orders)))
        spectrum = np.fft.ifftn(grid.reshape(-1, *C.cyclic_orders), axes=axes, norm="forward")
        return spectrum.reshape(len(grid), -1)[:, eta]

    @cached_property
    def h_add(self) -> np.ndarray:  # position of h_i + h_j
        return self._sums(self.H._coordinates[1])

    @cached_property
    def eta_add(self) -> np.ndarray:  # index of eta_i + eta_j
        return self._sums(self.H._coordinates[2])

    def _sums(self, at: np.ndarray) -> np.ndarray:
        """At (i, j), the index in ``at`` of at_i + at_j, for C-positions
        ``at`` that list every point of H's coordinates C once."""
        C = self.H._coordinates[0]
        rows = C._rows_at(at)
        return np.argsort(at)[C._sum_indices(rows, rows)]


def compute_Dg(D: GroupSubset, H: Subgroup, g: Element) -> GroupSubset:
    """The slice H & (D - g), as a subset of H: D_r - (g - r) for the
    representative r of g's coset."""
    G = D.group
    if not G.contains(g):
        raise ValueError(f"{g} is not an element of the group")
    t = _SliceTable(D, H)
    rep = t.reps[H._coset_index[1][G.index_of(g)]]
    return GroupSubset(G, tuple(G.add(y, G.sub(rep, g)) for y in t.slices[rep].elements))


def is_fine(D: GroupSubset, cap: int = 10000) -> Subgroup | None:
    """First subgroup of order G/(S+1) disjoint from D, in deterministic
    order, or None.  On success the equivalent fineness conditions are
    cross-checked; disagreement raises."""
    if certify_difference_set(D) is None:
        return None
    s = welch_integer_S(D.size, D.group.order)
    found = None if s is None else _fine_subgroup(D, s, cap)
    return None if found is None else found.H


def _fine_subgroup(D: GroupSubset, s: int, cap: int) -> _SliceTable | None:
    """``is_fine`` for a certified difference set with Welch reciprocal S,
    as the slice table of D over the subgroup found, checked to be fine."""
    G = D.group
    if G.order % (s + 1):
        return None
    k = G.order // (s + 1)
    in_d = np.zeros(G.order, dtype=bool)
    in_d[D._rows @ G.strides] = True
    found = _subgroup_search(G, k, cap, in_d, first=True)  # the lex-first one missing D
    if not found:
        return None
    t = _SliceTable(D, Subgroup(G, tuple(G._elements_at(found[0]))))
    # (iii), every coset off H meeting D in |D|/S points, decides.  On the
    # annihilator the DFT of chi_D is the DFT over G/H of the coset counts,
    # so by Fourier inversion there (iii) is (ii), the DFT of chi_D equal to
    # -|D|/S on the nontrivial annihilator; the floats cross-check it
    ann = G.indices(t.H.annihilator().elements[1:])  # [0] is the trivial character
    spectrum = np.fft.fftn(t.in_d.reshape(G.cyclic_orders)).ravel()[ann]
    if (np.abs(spectrum + D.size / s).max(initial=0.0) <= 1e-9 * D.size) != (t.not_fine is None):
        raise VerdictDisagreement("fineness Fourier condition disagrees with the coset slice sizes")
    if t.not_fine is not None:
        raise AssertionError(f"a disjoint subgroup of order G/(S+1) is not fine: {t.not_fine}")
    return t


def is_amalgam(D: GroupSubset, H: Subgroup, tol: float = 1e-9) -> bool:
    """Whether every nonempty coset slice D_g is a difference set for H with
    |D_g| = D/S and S^3 (|D_g| - Lambda_g) = D^2.

    Fast-path: S^3 must divide D^2.  Certified slices are cross-checked
    against the closed-form Fourier magnitude pattern of small difference
    sets inside a fine set.
    """
    return _checked_amalgam(_SliceTable(D, H), tol)


def _checked_amalgam(t: _SliceTable, tol: float) -> bool:
    """``is_amalgam`` on the slice table of D and H."""
    if t.s == 0:
        raise ValueError("H must be a proper subgroup")
    if not t.amalgam:
        return False
    # by Fourier inversion on H, the slice conditions are exactly
    # |F_a(eta)|^2 == (D^2/S^3) * (1 + (S-1) [eta = 0]) for each nonempty slice
    power = np.abs(t.spectrum[t.sizes > 0]) ** 2
    want = np.full(len(t.labels), t.D.size**2 / t.s**3)
    want[0] = (t.D.size // t.s) ** 2
    bad = np.argwhere(np.abs(power - want) > tol * np.maximum(1.0, want))
    if bad.size:
        a, k = bad[0]
        raise VerdictDisagreement(
            f"Fourier cross-check failed at {t.labels[k]}: {power[a, k]} vs {want[k]}")
    return True


def is_composite(D: GroupSubset, H: Subgroup) -> tuple[GroupSubset, GroupSubset] | None:
    """Witness (A, B) with chi_D = chi_A * chi_B, or None.

    B is the slice at the first nonidentity coset representative; each other
    coset is searched for the least translate-matching representative.
    """
    return _is_composite(_SliceTable(D, H))


def _is_composite(t: _SliceTable):
    """``is_composite`` on the slice table of D and H.

    The slice D_a contains B exactly when a + B lies in D; it is B when
    also |D_a| = |B|, and |D_a| is the same across a coset, since D_{g+h} =
    D_g - h.  For a = r_a + h_u that is D_a = Y_a - h_u, so D_a contains B
    when the pairs of Y_a and B with difference h_u number |B|.
    """
    G = t.D.group
    nontrivial = t.reps[1:]
    if not nontrivial:
        return None
    B = t.slices[nontrivial[0]]
    if B.size == 0 or (t.sizes[1:] != B.size).any() or not t.is_difference_set(1):
        return None
    row, u = np.nonzero(t.cross_counts(t.hits[1]) == B.size)
    least = np.full(len(t.reps), G.order)  # per coset, the least a with D_a = B
    a = G._residues(t.reps)[row] + G._rows_at(t.h_index[u])
    np.minimum.at(least, row, a % G.cyclic_orders @ G.strides)
    if (least[1:] == G.order).any():
        return None
    A = GroupSubset(G, tuple(G._elements_at(least[1:])))
    if not np.array_equal(_sum_counts(G, A._rows, B._rows), t.in_d):
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
    lam, witness = _certificate(D)
    if lam is None:
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
    t = _fine_subgroup(D, s, cap)
    if t is None:
        return DesignCertificate(
            D, True, lam, s, None, None, False, None, div,
            failure_reason=f"no disjoint subgroup of order {G.order // (s + 1)}"
            if G.order % (s + 1) == 0
            else "S+1 does not divide the group order",
        )
    _appendix_counting_identity(lam, t)
    amalgam = _checked_amalgam(t, 1e-9)
    witness = _is_composite(t) if amalgam else None
    cert = DesignCertificate(
        D, True, lam, s, t.H, t.slices, amalgam, witness, div,
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


def _appendix_counting_identity(lam: int, t: _SliceTable) -> None:
    # (H-1)*Lambda must equal the sum of |D_g| (|D_g|-1) over coset reps
    total = int((t.sizes * (t.sizes - 1)).sum())
    if (t.H.order - 1) * lam != total:
        raise AssertionError(
            f"slice counting identity failed: {(t.H.order - 1) * lam} != {total}"
        )
