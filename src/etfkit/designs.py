"""Difference sets and relative difference sets: certification and families.

Certification is by exact integer difference tables (via group convolution),
cross-checked on the Fourier side.  The families built here are Singer
complements, twin-prime-power complements, McFarland sets, and the quadratic
simplicial relative difference sets, all realized with exact group and field
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .fields import FiniteField, ff_new, prime_power, squares_nonsquares
from .groups import (
    AbelianGroup,
    Element,
    IntVector,
    Quotient,
    Subgroup,
    convolve,
    dft_numeric,
    group_new,
    involution,
    quotient_group,
)


@dataclass(frozen=True)
class GroupSubset:
    """A subset of a finite abelian group, canonically sorted.

    ``display_order`` optionally fixes the row order of matrices built from
    the subset; identity and certification ignore it.
    """

    group: AbelianGroup
    elements: tuple
    display_order: tuple | None = None

    def __post_init__(self) -> None:
        els = tuple(sorted(set(self.elements)))
        for g in els:
            if not self.group.contains(g):
                raise ValueError(f"{g} is not an element of the group")
        object.__setattr__(self, "elements", els)
        if self.display_order is not None:
            disp = tuple(self.display_order)
            if sorted(disp) != list(els):
                raise ValueError("display_order must be a permutation of the elements")
            object.__setattr__(self, "display_order", disp)

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def ordered(self) -> tuple:
        return self.display_order if self.display_order is not None else self.elements

    def indicator(self) -> IntVector:
        return IntVector.indicator(self.group, self.elements)

    def contains(self, g) -> bool:
        return g in set(self.elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupSubset):
            return NotImplemented
        return self.group == other.group and self.elements == other.elements

    def __hash__(self):
        return hash((self.group, self.elements))


def subset(group: AbelianGroup, elements, display_order=None) -> GroupSubset:
    norm = tuple(tuple(g) if not isinstance(g, tuple) else g for g in elements)
    disp = None
    if display_order is not None:
        disp = tuple(tuple(g) if not isinstance(g, tuple) else g for g in display_order)
    return GroupSubset(group, norm, disp)


def cyclic_subset(n: int, values, display_order=None) -> GroupSubset:
    """Convenience constructor for subsets of Z_n given as plain integers."""
    g = group_new([n])
    disp = tuple((v % n,) for v in display_order) if display_order is not None else None
    return GroupSubset(g, tuple((v % n,) for v in values), disp)


@dataclass(frozen=True)
class RdsParams:
    m: int  # G/H
    h: int
    d: int
    lam: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.m, self.h, self.d, self.lam)


# ---------------------------------------------------------------------------
# certification


def difference_counts(D: GroupSubset) -> IntVector:
    """How many ways each group element is a difference of members of D."""
    chi = D.indicator()
    return convolve(chi, involution(chi))


def convolve_indicators(A: GroupSubset, B: GroupSubset) -> IntVector:
    return convolve(A.indicator(), B.indicator())


def certify_difference_set(D: GroupSubset) -> int | None:
    """Lambda if D is a difference set (every nonzero element is a difference
    exactly Lambda times), else None."""
    if D.size == 0:
        return None
    G = D.group.order
    if G == 1:
        return 0
    num = D.size * (D.size - 1)
    if num % (G - 1):
        return None
    lam = num // (G - 1)
    counts = difference_counts(D)
    expected = {g: lam for g in D.group.elements if g != D.group.zero}
    expected[D.group.zero] = D.size
    return lam if counts.values == {g: v for g, v in expected.items() if v} else None


def non_ds_witness(D: GroupSubset) -> tuple[tuple, int, tuple, int] | None:
    """Two nonzero elements with differing difference counts, if any."""
    counts = difference_counts(D)
    nonzero = [g for g in D.group.elements if g != D.group.zero]
    vals = {g: counts[g] for g in nonzero}
    distinct = sorted(set(vals.values()))
    if len(distinct) <= 1:
        return None
    g1 = next(g for g in nonzero if vals[g] == distinct[0])
    g2 = next(g for g in nonzero if vals[g] == distinct[-1])
    return (g1, vals[g1], g2, vals[g2])


def certify_rds(D: GroupSubset, H: Subgroup, tol: float = 1e-9) -> RdsParams | None:
    """RDS parameters if D is an H-relative difference set, else None.

    Exact check: the difference counts equal D*delta_0 + Lambda*(1 - chi_H).
    A float Fourier cross-check (|DFT|^2 pattern) guards the exact path.
    """
    if D.group != H.group:
        raise ValueError("subset and subgroup must live in the same group")
    if D.size == 0:
        return None
    G, h, d = D.group.order, H.order, D.size
    if G == h:
        return RdsParams(1, h, d, 0) if d == 1 else None
    num = d * (d - 1)
    if num % (G - h):
        return None
    lam = num // (G - h)
    counts = difference_counts(D)
    expected = {D.group.zero: d}
    for g in D.group.elements:
        if g != D.group.zero and not H.contains(g):
            expected[g] = lam
    if counts.values != {g: v for g, v in expected.items() if v}:
        return None
    _check_spectrum(D, H.annihilator(), d - lam * h, d, tol, d * d)
    return RdsParams(G // h, h, d, lam)


def _check_spectrum(
    X: GroupSubset, ann: Subgroup, on: float, off: float, tol: float, floor: float
) -> None:
    """Float cross-check of a two-level spectrum: |DFT(chi_X)|^2 must be
    ``on`` on the characters in ``ann`` and ``off`` elsewhere (|X|^2 at the
    trivial character), each within tol * max(floor, expected value)."""
    G = X.group
    in_ann = np.zeros(G.order, dtype=bool)
    in_ann[G.indices(ann.elements)] = True
    want = np.where(in_ann, float(on), float(off))
    want[0] = X.size**2
    spectrum = np.abs(dft_numeric(X.indicator())) ** 2
    bad = np.flatnonzero(np.abs(spectrum - want) > tol * np.maximum(floor, want))
    if bad.size:
        j = bad[0]
        raise AssertionError(
            f"Fourier cross-check failed at {G.characters[j]}: {spectrum[j]} vs {want[j]}"
        )


def welch_integer_S(d: int, g: int) -> int | None:
    """Integer S with S^2 = D(G-1)/(G-D), if it exists."""
    if not 0 < d < g:
        return None
    s_sq = Fraction(d * (g - 1), g - d)
    if s_sq.denominator != 1:
        return None
    s = isqrt(s_sq.numerator)
    return s if s * s == s_sq.numerator else None


def complement(D: GroupSubset) -> GroupSubset:
    els = tuple(g for g in D.group.elements if g not in set(D.elements))
    return GroupSubset(D.group, els)


# ---------------------------------------------------------------------------
# quotients of relative difference sets


@dataclass(frozen=True)
class QuotientRds:
    quotient: Quotient
    image: GroupSubset
    forbidden: Subgroup  # image of H in G/K
    params: RdsParams


def quotient_rds(D: GroupSubset, H: Subgroup, K: Subgroup) -> QuotientRds:
    """Push an H-RDS through g -> g+K (K <= H); Lambda multiplies by |K|."""
    base = certify_rds(D, H)
    if base is None:
        raise ValueError("D is not a certified H-relative difference set")
    if not set(K.elements) <= set(H.elements):
        raise ValueError("K must be contained in H")
    q = quotient_group(K)
    image_els = {q.project(g) for g in D.elements}
    if len(image_els) != D.size:
        raise AssertionError("RDS quotient must stay injective on D")
    image = GroupSubset(q.group, tuple(sorted(image_els)))
    forbidden = Subgroup(q.group, tuple(sorted({q.project(h) for h in H.elements})))
    out = certify_rds(image, forbidden)
    if out is None or out.lam != base.lam * K.order:
        raise AssertionError("quotient of an RDS failed recertification")
    return QuotientRds(q, image, forbidden, out)


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class SingerComplement:
    """Shifted Singer-complement difference set with its composite factors."""

    group: AbelianGroup
    D: GroupSubset
    H: Subgroup
    A: GroupSubset
    B: GroupSubset
    q: int
    j: int


def singer_complement(q: int, j: int) -> SingerComplement:
    """Composite difference set of size q^(2j-1) in the cyclic group of order
    (q^(2j)-1)/(q-1), realized through discrete logs of GF(q^(2j)).

    The defining hyperplane condition is trace(x) != 0; for odd q everything
    is shifted by alpha^((q^j+1)/2) so the set avoids the subgroup H.
    """
    pp = prime_power(q)
    if pp is None:
        raise ValueError(f"{q} is not a prime power")
    if j < 2:
        raise ValueError("j must be >= 2")
    p, e = pp
    F = ff_new(p, 2 * e * j)
    alpha = F.generator
    n_quot = (q ** (2 * j) - 1) // (q - 1)
    G = group_new([n_quot])
    shift = F.one if q % 2 == 0 else F.pow(alpha, (q**j + 1) // 2)

    d_els, a_els = set(), set()
    for x in F.units():
        sx = F.mul(shift, x)
        if F.trace(x, e) != F.zero:
            d_els.add((F.dlog(sx) % n_quot,))
        if F.trace(x, e * j) == F.one:
            a_els.add((F.dlog(sx) % n_quot,))
    D = GroupSubset(G, tuple(sorted(d_els)))
    A = GroupSubset(G, tuple(sorted(a_els)))

    h_order = (q**j - 1) // (q - 1)
    H = Subgroup.generated_by(G, [((q**j + 1) % n_quot,)])
    assert H.order == h_order

    b_els = set()
    step = q**j + 1  # F_{q^j}^x = <alpha^step>
    for k in range(q**j - 1):
        z = F.pow(alpha, k * step)
        if F.partial_frobenius_sum(z, e, j) != F.zero:
            b_els.add((F.dlog(z) % n_quot,))
    B = GroupSubset(G, tuple(sorted(b_els)))

    assert D.size == q ** (2 * j - 1) and A.size == q**j
    assert set(B.elements) <= set(H.elements)
    assert convolve(A.indicator(), B.indicator()) == D.indicator(), (
        "Singer factors must convolve to the difference set"
    )
    return SingerComplement(G, D, H, A, B, q, j)


@dataclass(frozen=True)
class SimplicialRds:
    group: AbelianGroup
    A: GroupSubset
    K: Subgroup
    q: int


def simplicial_rds_quadratic(q: int) -> SimplicialRds:
    """Simplicial RDS(q+1, q-1, q, 1) in Z_{q^2-1}, from the trace-one
    hyperplane of GF(q^2), shifted off the subgroup for odd q."""
    pp = prime_power(q)
    if pp is None:
        raise ValueError(f"{q} is not a prime power")
    p, e = pp
    F = ff_new(p, 2 * e)
    alpha = F.generator
    G = group_new([q**2 - 1])
    shift = F.one if q % 2 == 0 else F.pow(alpha, (q + 1) // 2)
    a_els = {
        (F.dlog(F.mul(shift, x)),)
        for x in F.units()
        if F.trace(x, e) == F.one
    }
    A = GroupSubset(G, tuple(sorted(a_els)))
    K = Subgroup.generated_by(G, [((q + 1) % (q**2 - 1),)])
    assert A.size == q and K.order == q - 1
    assert not (set(A.elements) & set(K.elements)), "A must avoid the subgroup"
    params = certify_rds(A, K)
    assert params is not None and params.as_tuple() == (q + 1, q - 1, q, 1)
    # the quotient by K must cover every nonidentity coset exactly once
    reps = {K.coset_rep[a] for a in A.elements}
    assert len(reps) == q and K.coset_rep[G.zero] not in reps
    return SimplicialRds(G, A, K, q)


@dataclass(frozen=True)
class TppComplement:
    group: AbelianGroup
    D: GroupSubset
    H: Subgroup
    q: int
    field_q: FiniteField
    field_q2: FiniteField


def tpp_complement(q: int) -> TppComplement:
    """Twin-prime-power complement difference set in F_q x F_{q+2}:
    ({0} x units) | (squares x nonsquares) | (nonsquares x squares)."""
    pp1, pp2 = prime_power(q), prime_power(q + 2)
    if pp1 is None or pp2 is None or q % 2 == 0:
        raise ValueError(f"{q} and {q + 2} must both be odd prime powers")
    (p1, e1), (p2, e2) = pp1, pp2
    F1, F2 = ff_new(p1, e1), ff_new(p2, e2)
    G = group_new([p1] * e1 + [p2] * e2)

    def emb(x, y):
        return tuple(x) + tuple(y)

    s1, n1 = squares_nonsquares(F1)
    s2, n2 = squares_nonsquares(F2)
    d_els = {emb(F1.zero, y) for y in F2.units()}
    d_els |= {emb(x, y) for x in s1 for y in n2}
    d_els |= {emb(x, y) for x in n1 for y in s2}
    D = GroupSubset(G, tuple(sorted(d_els)))
    H = Subgroup(G, tuple(sorted(emb(x, F2.zero) for x in F1.elements)))
    assert D.size == (q + 1) ** 2 // 2 and H.order == q
    assert not (set(D.elements) & set(H.elements))
    return TppComplement(G, D, H, q, F1, F2)


@dataclass(frozen=True)
class McFarlandSet:
    group: AbelianGroup
    D: GroupSubset
    H: Subgroup
    q: int
    j: int
    k_orders: tuple[int, ...]


def mcfarland(q: int, j: int, k_orders=None) -> McFarlandSet:
    """McFarland difference set in K x F_q^j: one hyperplane per nonzero
    element of K, hyperplanes enumerated canonically (functionals with first
    nonzero coordinate 1, sorted) against nonzero K elements in order."""
    pp = prime_power(q)
    if pp is None:
        raise ValueError(f"{q} is not a prime power")
    if j < 2:
        raise ValueError("j must be >= 2")
    p, e = pp
    F = ff_new(p, e)
    m = (q**j - 1) // (q - 1) + 1
    k_orders = tuple(int(n) for n in k_orders) if k_orders is not None else (m,)
    K = group_new(k_orders)
    if K.order != m:
        raise ValueError(f"K must have order {m}, got {K.order}")
    G = group_new(list(k_orders) + [p] * (e * j))

    vectors = list(_vectors(F, j))
    functionals = sorted(
        v for v in vectors if _first_nonzero_is_one(F, v)
    )
    k_nonzero = [k for k in K.elements if k != K.zero]
    assert len(functionals) == len(k_nonzero) == m - 1

    def flat(vec):
        out = ()
        for comp in vec:
            out += tuple(comp)
        return out

    d_els = set()
    for k, c in zip(k_nonzero, functionals):
        for v in vectors:
            if _dot(F, c, v) == F.zero:
                d_els.add(tuple(k) + flat(v))
    D = GroupSubset(G, tuple(sorted(d_els)))
    H = Subgroup(G, tuple(sorted(tuple(K.zero) + flat(v) for v in vectors)))
    assert D.size == q ** (j - 1) * (m - 1)
    assert not (set(D.elements) & set(H.elements))
    return McFarlandSet(G, D, H, q, j, k_orders)


def _vectors(F: FiniteField, j: int):
    from itertools import product as iproduct

    return iproduct(F.elements, repeat=j)


def _first_nonzero_is_one(F: FiniteField, v) -> bool:
    for comp in v:
        if comp != F.zero:
            return comp == F.one
    return False


def _dot(F: FiniteField, a, b):
    out = F.zero
    for x, y in zip(a, b):
        out = F.add(out, F.mul(x, y))
    return out
