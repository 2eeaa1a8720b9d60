"""Difference sets and relative difference sets: certification and families.

Certification is by exact integer difference counts (``groups._sum_counts``),
cross-checked on the Fourier side.  The families built here are Singer
complements, twin-prime-power complements, McFarland sets, and the quadratic
simplicial relative difference sets, all realized with exact group and field
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt

import numpy as np

from .fields import FiniteField, _power_images, ff_new, prime_power
from .groups import (
    AbelianGroup,
    IntVector,
    Quotient,
    Subgroup,
    VerdictDisagreement,
    _sum_counts,
    convolve,
    dft_numeric,
    group_new,
    quotient_group,
)


@dataclass(frozen=True)
class GroupSubset:
    """A subset of a finite abelian group, canonically sorted.

    ``display_order`` optionally fixes the row order of matrices built from
    the subset; identity and certification ignore it.  ``_rows`` holds the
    elements as residue rows, in the same order.
    """

    group: AbelianGroup
    elements: tuple
    display_order: tuple | None = field(default=None, compare=False)
    _rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        els = tuple(sorted(set(self.elements)))
        object.__setattr__(self, "_rows", self.group._residues(els))
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
        return g in self._member_set

    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self.elements)


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
    return IntVector._from_dense(D.group, _difference_vector(D))


def _difference_vector(D: GroupSubset) -> np.ndarray:
    """Dense int64 difference counts over enumeration positions: at g, the
    number of pairs (x, y) of D with x - y = g (position 0 is the identity)."""
    return _sum_counts(D.group, D._rows, -D._rows % D.group.cyclic_orders)


def certify_difference_set(D: GroupSubset) -> int | None:
    """Lambda if D is a difference set (every nonzero element is a difference
    exactly Lambda times), else None."""
    return _certificate(D, witness=False)[0]


def non_ds_witness(D: GroupSubset) -> tuple[tuple, int, tuple, int] | None:
    """Two nonzero elements with differing difference counts, if any: the
    first with the least count and the first with the greatest."""
    return _certificate(D)[1]


def _certificate(D: GroupSubset, witness: bool = True) -> tuple[int | None, tuple | None]:
    """(Lambda, None) for a difference set, else (None, ``non_ds_witness(D)``
    or None without ``witness``), from at most one count vector."""
    n, d = D.group.order, D.size
    lam, rem = divmod(d * (d - 1), max(n - 1, 1))
    if d == 0 or (rem and not witness):
        return None, None
    # the counts off zero add up to Lambda (n - 1), so each occurring count
    # is Lambda iff all n - 1 are; unequal counts have a least and a greatest
    counts = _difference_vector(D)[1:]
    if not rem and (counts[counts != 0] == lam).all():
        return lam, None
    i, j = int(np.argmin(counts)), int(np.argmax(counts))
    g1, g2 = D.group._elements_at([i + 1, j + 1])
    return None, (g1, int(counts[i]), g2, int(counts[j])) if witness else None


def certify_rds(D: GroupSubset, H: Subgroup, tol: float = 1e-9) -> RdsParams | None:
    """RDS parameters if D is an H-relative difference set, else None.

    Exact check: the difference counts equal D*delta_0 + Lambda*(1 - chi_H).
    A float Fourier cross-check (|DFT|^2 pattern) guards the exact path.
    """
    if D.group != H.group:
        raise ValueError("subset and subgroup must live in the same group")
    if D.size == 0:
        return None
    G, h, d = D.group, H.order, D.size
    if G.order == h:
        return RdsParams(1, h, d, 0) if d == 1 else None
    num = d * (d - 1)
    if num % (G.order - h):
        return None
    lam = num // (G.order - h)
    expected = np.full(G.order, lam, dtype=np.int64)
    expected[G.indices(H.elements)] = 0
    expected[0] = d
    if not np.array_equal(_difference_vector(D), expected):
        return None
    # float cross-check of the exact verdict: |DFT(chi_D)|^2 is D - Lambda h
    # on the annihilator of H and D elsewhere (D^2 at the trivial character),
    # each within tol * max(D^2, expected value); a miss raises
    in_ann = np.zeros(G.order, dtype=bool)
    in_ann[G.indices(H.annihilator().elements)] = True
    want = np.where(in_ann, float(d - lam * h), float(d))
    want[0] = d * d
    spectrum = np.abs(dft_numeric(D.indicator())) ** 2
    bad = np.flatnonzero(np.abs(spectrum - want) > tol * np.maximum(d * d, want))
    if bad.size:
        j = bad[0]
        raise VerdictDisagreement(
            f"Fourier cross-check failed at {G._elements_at([j])[0]}: {spectrum[j]} vs {want[j]}"
        )
    return RdsParams(G.order // h, h, d, lam)


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
    outside = np.ones(D.group.order, dtype=bool)
    outside[D.group.indices(D._rows)] = False
    return GroupSubset(D.group, tuple(D.group._elements_at(np.flatnonzero(outside))))


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
    is shifted by alpha^((q^j+1)/2) so the set avoids the subgroup H.  Each
    unit is read as x = alpha^k, so its log is k and every trace is one
    linear map of the rows of the field's power table.
    """
    pp = prime_power(q)
    if pp is None:
        raise ValueError(f"{q} is not a prime power")
    if j < 2:
        raise ValueError("j must be >= 2")
    p, e = pp
    F = ff_new(p, 2 * e * j)
    n_quot = (q ** (2 * j) - 1) // (q - 1)
    G = group_new([n_quot])
    shift = 0 if q % 2 == 0 else (q**j + 1) // 2  # shift = alpha^shift

    logs = np.arange(F.q - 1) + shift
    D = _log_subset(G, logs[_power_images(F, lambda x: F.trace(x, e)).any(axis=1)])
    A = _log_subset(G, logs[_trace_is_one(F, e * j)])

    h_order = (q**j - 1) // (q - 1)
    H = Subgroup.generated_by(G, [((q**j + 1) % n_quot,)])
    if H.order != h_order:
        raise AssertionError(f"H has order {H.order}, expected {h_order}")

    # F_{q^j}^x = <alpha^(q^j+1)>
    sub_logs = np.arange(q**j - 1) * (q**j + 1)
    in_b = _power_images(F, lambda x: F.partial_frobenius_sum(x, e, j), sub_logs).any(axis=1)
    B = _log_subset(G, sub_logs[in_b])

    if not (D.size == q ** (2 * j - 1) and A.size == q**j):
        raise AssertionError(f"Singer sets have sizes {D.size} and {A.size}")
    if not set(B.elements) <= set(H.elements):
        raise AssertionError("B must lie in the subgroup H")
    if convolve(A.indicator(), B.indicator()) != D.indicator():
        raise AssertionError("Singer factors must convolve to the difference set")
    return SingerComplement(G, D, H, A, B, q, j)


def _trace_is_one(F: FiniteField, sub_degree: int) -> np.ndarray:
    """Mask over k = 0..q-2: whether alpha^k has relative trace one."""
    traces = _power_images(F, lambda x: F.trace(x, sub_degree))
    return (traces == F.one).all(axis=1)


def _log_subset(G: AbelianGroup, logs: np.ndarray) -> GroupSubset:
    """The subset of the cyclic group G of the residues of the given logs."""
    member = np.zeros(G.order, dtype=bool)
    member[logs % G.order] = True
    return GroupSubset(G, tuple((v,) for v in np.flatnonzero(member).tolist()))


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
    G = group_new([q**2 - 1])
    shift = 0 if q % 2 == 0 else (q + 1) // 2  # shift = alpha^shift
    A = _log_subset(G, np.flatnonzero(_trace_is_one(F, e)) + shift)
    K = Subgroup.generated_by(G, [((q + 1) % (q**2 - 1),)])
    if not (A.size == q and K.order == q - 1):
        raise AssertionError(f"A has size {A.size} and K order {K.order}")
    if set(A.elements) & set(K.elements):
        raise AssertionError("A must avoid the subgroup")
    params = certify_rds(A, K)
    if params is None or params.as_tuple() != (q + 1, q - 1, q, 1):
        raise AssertionError(f"A is not an RDS({q + 1}, {q - 1}, {q}, 1): {params}")
    # the quotient by K must cover every nonidentity coset exactly once
    cosets = set(K._coset_index[1][A._rows @ G.strides].tolist())  # the coset of K is index 0
    if len(cosets) != q or 0 in cosets:
        raise AssertionError("A must meet every nonidentity coset of K once")
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
    ({0} x units) | (squares x nonsquares) | (nonsquares x squares).

    The squares are the even and the nonsquares the odd powers of each
    field's generator, read from its power table."""
    pp1, pp2 = prime_power(q), prime_power(q + 2)
    if pp1 is None or pp2 is None or q % 2 == 0:
        raise ValueError(f"{q} and {q + 2} must both be odd prime powers")
    (p1, e1), (p2, e2) = pp1, pp2
    F1, F2 = ff_new(p1, e1), ff_new(p2, e2)
    G = group_new([p1] * e1 + [p2] * e2)

    def pairs(xs, ys):
        # every x followed by every y, as rows of group residues
        return np.hstack([np.repeat(xs, len(ys), axis=0), np.tile(ys, (len(xs), 1))])

    u1, u2 = F1._powers.astype(np.int64), F2._powers.astype(np.int64)
    d_rows = np.vstack([
        pairs(np.zeros((1, e1), dtype=np.int64), u2),
        pairs(u1[0::2], u2[1::2]),
        pairs(u1[1::2], u2[0::2]),
    ])
    D = GroupSubset(G, tuple(map(tuple, d_rows.tolist())))
    H = Subgroup(G, tuple(sorted(tuple(x) + F2.zero for x in F1.elements)))
    if not (D.size == (q + 1) ** 2 // 2 and H.order == q):
        raise AssertionError(f"D has size {D.size} and H order {H.order}")
    if set(D.elements) & set(H.elements):
        raise AssertionError("D must avoid the subgroup H")
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
    if not len(functionals) == len(k_nonzero) == m - 1:
        raise AssertionError("McFarland needs one hyperplane per nonzero element of K")

    def flat(vec):
        out = ()
        for comp in vec:
            out += tuple(comp)
        return out

    d_els = set()
    for k, c in zip(k_nonzero, functionals):
        for v in vectors:
            if _inner(F, c, v) == F.zero:
                d_els.add(tuple(k) + flat(v))
    D = GroupSubset(G, tuple(sorted(d_els)))
    H = Subgroup(G, tuple(sorted(tuple(K.zero) + flat(v) for v in vectors)))
    if D.size != q ** (j - 1) * (m - 1):
        raise AssertionError(f"McFarland set has size {D.size}")
    if set(D.elements) & set(H.elements):
        raise AssertionError("D must avoid the subgroup H")
    return McFarlandSet(G, D, H, q, j, k_orders)


def _vectors(F: FiniteField, j: int):
    from itertools import product as iproduct

    return iproduct(F.elements, repeat=j)


def _first_nonzero_is_one(F: FiniteField, v) -> bool:
    for comp in v:
        if comp != F.zero:
            return comp == F.one
    return False


def _inner(F: FiniteField, a, b):
    out = F.zero
    for x, y in zip(a, b):
        out = F.add(out, F.mul(x, y))
    return out
