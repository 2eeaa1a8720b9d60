"""Finite abelian groups: exact characters, DFT, convolution, subgroups, quotients.

A group is a product of cyclic factors Z_{n_1} x ... x Z_{n_k}; elements are
residue tuples and characters are exponent tuples under the componentwise
self-duality.  Enumeration order is lexicographic on those tuples and every
matrix built downstream inherits it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm, prod

import numpy as np

from .cyclotomic import Cyclotomic, RootOfUnity

Element = tuple[int, ...]
Character = tuple[int, ...]


class SearchCapExceeded(RuntimeError):
    """Raised when a subgroup search would not be exhaustive under the cap."""


@dataclass(frozen=True)
class AbelianGroup:
    cyclic_orders: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.cyclic_orders:
            raise ValueError("at least one cyclic factor is required")
        if any(n < 1 for n in self.cyclic_orders):
            raise ValueError(f"cyclic orders must be positive: {self.cyclic_orders}")

    # -- basic structure ------------------------------------------------
    @cached_property
    def order(self) -> int:
        out = 1
        for n in self.cyclic_orders:
            out *= n
        return out

    @cached_property
    def exponent(self) -> int:
        return lcm(*self.cyclic_orders)

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        return tuple(product(*(range(n) for n in self.cyclic_orders)))

    @cached_property
    def strides(self) -> np.ndarray:
        """Mixed-radix place values: ``residues @ strides`` is the position of
        a residue tuple in enumeration order."""
        orders = self.cyclic_orders
        return np.array([prod(orders[k + 1:]) for k in range(len(orders))], dtype=np.int64)

    def indices(self, elements) -> np.ndarray:
        """Enumeration positions of a sequence of residue tuples."""
        residues = np.array(elements, dtype=np.int64).reshape(-1, len(self.cyclic_orders))
        return residues @ self.strides

    def index_of(self, g: Element) -> int:
        if not self.contains(g):
            raise KeyError(g)
        return int(self.indices([g])[0])

    @property
    def zero(self) -> Element:
        return (0,) * len(self.cyclic_orders)

    def contains(self, g) -> bool:
        return (
            isinstance(g, tuple)
            and len(g) == len(self.cyclic_orders)
            and all(0 <= r < n for r, n in zip(g, self.cyclic_orders))
        )

    @cached_property
    def is_cyclic(self) -> bool:
        return self.exponent == self.order

    # -- arithmetic -------------------------------------------------------
    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.cyclic_orders))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % n for x, n in zip(a, self.cyclic_orders))

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % n for x, y, n in zip(a, b, self.cyclic_orders))

    def scale(self, k: int, a: Element) -> Element:
        return tuple((k * x) % n for x, n in zip(a, self.cyclic_orders))

    def element_order(self, a: Element) -> int:
        return lcm(*(n // gcd(n, x) if x else 1 for x, n in zip(a, self.cyclic_orders)))

    # -- characters ---------------------------------------------------------
    @property
    def characters(self) -> tuple[Character, ...]:
        return self.elements

    def char_exponent(self, chi: Character, g: Element) -> int:
        L = self.exponent
        return sum(m * r * (L // n) for m, r, n in zip(chi, g, self.cyclic_orders)) % L

    def char_value(self, chi: Character, g: Element) -> RootOfUnity:
        if len(chi) != len(self.cyclic_orders) or len(g) != len(self.cyclic_orders):
            raise ValueError("character/element length does not match the group rank")
        return RootOfUnity(self.char_exponent(chi, g), self.exponent)


def group_new(cyclic_orders) -> AbelianGroup:
    return AbelianGroup(tuple(int(n) for n in cyclic_orders))


def char_value(group: AbelianGroup, chi: Character, g: Element) -> RootOfUnity:
    return group.char_value(chi, g)


# ---------------------------------------------------------------------------
# integer vectors on a group


@dataclass(frozen=True)
class IntVector:
    """Integer-valued function on a group, sparse over its support."""

    group: AbelianGroup
    values: dict

    def __post_init__(self) -> None:
        clean = {}
        for g, v in self.values.items():
            if not self.group.contains(g):
                raise ValueError(f"{g} is not an element of the group")
            if v:
                clean[g] = int(v)
        object.__setattr__(self, "values", clean)

    @classmethod
    def indicator(cls, group: AbelianGroup, elements) -> "IntVector":
        els = list(elements)
        if len(set(els)) != len(els):
            raise ValueError("indicator support must not contain duplicates")
        return cls(group, {g: 1 for g in els})

    @classmethod
    def delta(cls, group: AbelianGroup, g: Element) -> "IntVector":
        return cls(group, {g: 1})

    @classmethod
    def ones(cls, group: AbelianGroup) -> "IntVector":
        return cls(group, {g: 1 for g in group.elements})

    def __getitem__(self, g: Element) -> int:
        return self.values.get(g, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntVector):
            return NotImplemented
        return self.group == other.group and self.values == other.values

    def __hash__(self):
        return hash((self.group, tuple(sorted(self.values.items()))))

    def dense(self) -> np.ndarray:
        out = np.zeros(self.group.order, dtype=np.int64)
        out[self.group.indices(list(self.values))] = list(self.values.values())
        return out


def involution(x: IntVector) -> IntVector:
    return IntVector(x.group, {x.group.neg(g): v for g, v in x.values.items()})


def convolve(x: IntVector, y: IntVector) -> IntVector:
    """(x*y)(g) = sum_{g'} x(g') y(g - g'), exact integers.

    Each pair (a, b) of support points adds x(a) y(b) at the index of a + b,
    found by mixed-radix addition one cyclic factor at a time, so work and
    memory are O(|x| |y|), never O(G^2).
    """
    if x.group != y.group:
        raise ValueError("convolution requires both vectors on the same group")
    G = x.group
    rank = len(G.cyclic_orders)
    rx = np.array(list(x.values), dtype=np.int64).reshape(-1, rank)
    ry = np.array(list(y.values), dtype=np.int64).reshape(-1, rank)
    targets = np.zeros((len(rx), len(ry)), dtype=np.int64)
    for k, (n, stride) in enumerate(zip(G.cyclic_orders, G.strides)):
        targets += (rx[:, k, None] + ry[None, :, k]) % n * stride
    vx = np.array(list(x.values.values()), dtype=np.int64)
    vy = np.array(list(y.values.values()), dtype=np.int64)
    out = np.zeros(G.order, dtype=np.int64)
    np.add.at(out, targets.ravel(), np.outer(vx, vy).ravel())
    els = G.elements
    return IntVector(G, {els[i]: int(out[i]) for i in np.flatnonzero(out)})


def dft(x: IntVector) -> dict[Character, Cyclotomic]:
    """Exact DFT: (F*x)(chi) = sum_g conj(chi(g)) x(g), for every character."""
    return {chi: _dft_at(x, chi) for chi in x.group.characters}


def _dft_at(x: IntVector, chi: Character) -> Cyclotomic:
    """The exact DFT of x at one character."""
    G = x.group
    L = G.exponent
    coeffs: dict[int, Fraction] = {}
    for g, v in x.values.items():
        e = (-G.char_exponent(chi, g)) % L
        coeffs[e] = coeffs.get(e, Fraction(0)) + v
    return Cyclotomic(L, coeffs)


def dft_numeric(x: IntVector) -> np.ndarray:
    """DFT in complex doubles, indexed by character enumeration order: one
    multidimensional FFT over the cyclic factors."""
    return np.fft.fftn(x.dense().reshape(x.group.cyclic_orders)).ravel()


# ---------------------------------------------------------------------------
# subgroups, cosets, quotients


@dataclass(frozen=True)
class Subgroup:
    group: AbelianGroup
    elements: tuple

    def __post_init__(self) -> None:
        els = tuple(sorted(set(self.elements)))
        object.__setattr__(self, "elements", els)
        if self.group.zero not in els:
            raise ValueError("a subgroup must contain the identity")
        member = set(els)
        for a in els:
            if self.group.neg(a) not in member:
                raise ValueError(f"subgroup is not closed under negation at {a}")
            for b in els:
                if self.group.add(a, b) not in member:
                    raise ValueError(f"subgroup is not closed under addition at {a}+{b}")

    @classmethod
    def trivial(cls, group: AbelianGroup) -> "Subgroup":
        return cls(group, (group.zero,))

    @classmethod
    def full(cls, group: AbelianGroup) -> "Subgroup":
        return cls(group, group.elements)

    @classmethod
    def generated_by(cls, group: AbelianGroup, generators) -> "Subgroup":
        return cls(group, tuple(_closure(group, generators)))

    @property
    def order(self) -> int:
        return len(self.elements)

    def contains(self, g: Element) -> bool:
        return g in self._member_set

    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self.elements)

    @cached_property
    def cosets(self) -> tuple[tuple[Element, tuple[Element, ...]], ...]:
        """Disjoint cosets as (representative, elements); reps are lex-minimal."""
        out = []
        seen = set()
        for g in self.group.elements:
            if g in seen:
                continue
            members = tuple(sorted(self.group.add(g, h) for h in self.elements))
            seen.update(members)
            out.append((g, members))
        return tuple(out)

    @cached_property
    def coset_rep(self) -> dict:
        rep = {}
        for r, members in self.cosets:
            for g in members:
                rep[g] = r
        return rep

    def annihilator(self) -> "Subgroup":
        """Characters trivial on this subgroup, as a Subgroup of the dual."""
        G = self.group
        ann = [
            chi
            for chi in G.characters
            if all(G.char_exponent(chi, h) == 0 for h in self.elements)
        ]
        out = Subgroup(G, tuple(ann))
        assert out.order * self.order == G.order
        return out


def _closure(group: AbelianGroup, generators) -> list:
    members = {group.zero}
    for g in generators:
        if not group.contains(g):
            raise ValueError(f"{g} is not an element of the group")
        if g in members:
            continue
        # extend by all multiples of g added to the current subgroup
        shifts = [group.zero]
        y = g
        while y not in members:
            shifts.append(y)
            y = group.add(y, g)
        members = {group.add(x, s) for x in members for s in shifts}
    return sorted(members)


def cosets(subgroup: Subgroup):
    return subgroup.cosets


def annihilator(subgroup: Subgroup) -> Subgroup:
    return subgroup.annihilator()


@dataclass(frozen=True)
class Quotient:
    """A quotient group together with the projection homomorphism."""

    group: AbelianGroup
    _v: tuple[tuple[int, ...], ...]
    _orders: tuple[int, ...]
    _keep: tuple[int, ...]

    def project(self, g: Element) -> Element:
        y = [sum(g[i] * self._v[i][j] for i in range(len(g))) for j in range(len(self._orders))]
        full = tuple(y[j] % self._orders[j] for j in range(len(self._orders)))
        return tuple(full[j] for j in self._keep) if self._keep else (0,)


def quotient_group(subgroup: Subgroup) -> Quotient:
    """G/H with cyclic invariants from the Smith normal form of the relations."""
    G = subgroup.group
    k = len(G.cyclic_orders)
    rows = [[G.cyclic_orders[i] if j == i else 0 for j in range(k)] for i in range(k)]
    rows += [list(h) for h in subgroup.elements if h != G.zero]
    diag, v = _smith_diagonal(rows, k)
    keep = tuple(j for j, d in enumerate(diag) if d != 1)
    orders = tuple(diag)
    quot_orders = tuple(diag[j] for j in keep) if keep else (1,)
    q = Quotient(AbelianGroup(quot_orders), tuple(tuple(r) for r in v), orders, keep)
    assert q.group.order * subgroup.order == G.order
    return q


def _smith_diagonal(rows: list[list[int]], k: int) -> tuple[list[int], list[list[int]]]:
    """Diagonalize an integer relation matrix; returns (|diagonal|, V) where the
    tracked column operations V satisfy lattice(rows) * V = diag * Z^k."""
    a = [list(r) for r in rows]
    m = len(a)
    v = [[1 if i == j else 0 for j in range(k)] for i in range(k)]

    def swap_cols(j1, j2):
        for r in a:
            r[j1], r[j2] = r[j2], r[j1]
        for r in v:
            r[j1], r[j2] = r[j2], r[j1]

    def addmul_col(dst, src, q):
        for r in a:
            r[dst] += q * r[src]
        for r in v:
            r[dst] += q * r[src]

    for t in range(k):
        while True:
            pivot = None
            best = None
            for i in range(t, m):
                for j in range(t, k):
                    val = a[i][j]
                    if val and (best is None or abs(val) < best):
                        best, pivot = abs(val), (i, j)
            if pivot is None:
                raise ValueError("relation lattice does not have full rank")
            pi, pj = pivot
            a[t], a[pi] = a[pi], a[t]
            if pj != t:
                swap_cols(t, pj)
            p = a[t][t]
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // p
                    for j in range(t, k):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, k):
                if a[t][j]:
                    q = a[t][j] // p
                    addmul_col(j, t, -q)
                    if a[t][j]:
                        dirty = True
            if not dirty:
                break
    return [abs(a[t][t]) for t in range(k)], v


def subgroups_of_order(group: AbelianGroup, order: int, cap: int = 10000) -> list[Subgroup]:
    """All subgroups of the given order, in a deterministic order.

    Cyclic groups shortcut to the unique subgroup per divisor; otherwise a
    breadth-first closure enumeration is used, exhaustive for group orders
    up to ``cap``.
    """
    if order < 1 or group.order % order:
        raise ValueError(f"{order} does not divide the group order {group.order}")
    if order == 1:
        return [Subgroup.trivial(group)]
    if group.is_cyclic:
        gen = next(g for g in group.elements if group.element_order(g) == group.order)
        sub = Subgroup.generated_by(group, [group.scale(group.order // order, gen)])
        assert sub.order == order
        return [sub]
    if group.order > cap:
        raise SearchCapExceeded(
            f"subgroup search not exhaustive: group order {group.order} exceeds cap {cap}"
        )
    # only elements whose order divides the target can lie in a solution
    candidates = [g for g in group.elements if order % group.element_order(g) == 0]
    found = set()
    seen = {frozenset({group.zero})}
    frontier = [tuple([group.zero])]
    while frontier:
        current = frontier.pop()
        cur_set = set(current)
        if len(current) == order:
            found.add(tuple(sorted(current)))
            continue
        for g in candidates:
            if g in cur_set:
                continue
            closed = _closure_with(group, cur_set, g)
            if order % len(closed):
                continue
            key = frozenset(closed)
            if key not in seen:
                seen.add(key)
                frontier.append(tuple(closed))
    return [Subgroup(group, els) for els in sorted(found)]


def _closure_with(group: AbelianGroup, base: set, g: Element) -> list:
    shifts = [group.zero]
    y = g
    while y not in base:
        shifts.append(y)
        y = group.add(y, g)
    return sorted({group.add(x, s) for x in base for s in shifts})


def all_subgroups(group: AbelianGroup, cap: int = 10000) -> list[Subgroup]:
    """Every subgroup of the group (exhaustive up to the cap)."""
    if group.order > cap:
        raise SearchCapExceeded(
            f"subgroup search not exhaustive: group order {group.order} exceeds cap {cap}"
        )
    found = {frozenset({group.zero})}
    frontier = [frozenset({group.zero})]
    while frontier:
        current = frontier.pop()
        for g in group.elements:
            if g in current:
                continue
            closed = frozenset(_closure_with(group, set(current), g))
            if closed not in found:
                found.add(closed)
                frontier.append(closed)
    return [Subgroup(group, tuple(sorted(els))) for els in sorted(found, key=lambda s: (len(s), sorted(s)))]
