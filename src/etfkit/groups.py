"""Finite abelian groups: exact characters, DFT, convolution, subgroups, quotients.

A group is a product of cyclic factors Z_{n_1} x ... x Z_{n_k}; elements are
residue tuples and characters are exponent tuples under the componentwise
self-duality.  Enumeration order is lexicographic on those tuples and every
matrix built downstream inherits it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import gcd, lcm, prod

import numpy as np

from .cyclotomic import Cyclotomic, RootOfUnity

Element = tuple[int, ...]
Character = tuple[int, ...]


# pairs per index-array block of the pair sums (``_pair_blocks``)
_PAIR_CHUNK = 1 << 20
# group-order cap: a dense int64 vector over the group stays within 128 MB
_MAX_GROUP_ORDER = 1 << 24


class SearchCapExceeded(RuntimeError):
    """Raised when a subgroup search would not be exhaustive under the cap."""


class VerdictDisagreement(AssertionError):
    """Raised when a float cross-check disagrees with the exact verdict."""


@dataclass(frozen=True)
class AbelianGroup:
    cyclic_orders: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.cyclic_orders:
            raise ValueError("at least one cyclic factor is required")
        if any(n < 1 for n in self.cyclic_orders):
            raise ValueError(f"cyclic orders must be positive: {self.cyclic_orders}")
        if (order := prod(self.cyclic_orders)) > _MAX_GROUP_ORDER:
            raise ValueError(f"group order {order} exceeds the group-order cap {_MAX_GROUP_ORDER}")

    # -- basic structure ------------------------------------------------
    @cached_property
    def order(self) -> int:
        return prod(self.cyclic_orders)

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

    def _elements_at(self, positions) -> list[Element]:
        """Residue tuples at enumeration positions, without the element table."""
        columns = np.unravel_index(np.asarray(positions, dtype=np.int64), self.cyclic_orders)
        return list(zip(*(c.tolist() for c in columns)))

    def _residues(self, elements) -> np.ndarray:
        """Residue rows, one per element, of a sequence of group elements;
        raises ValueError naming the first one that is not an element."""
        rank = len(self.cyclic_orders)
        try:
            rows = np.array(elements)
        except ValueError:  # rows of differing lengths
            rows = np.zeros(0)
        if (rows.shape == (len(elements), rank) and rows.dtype.kind in "iu"
                and ((rows >= 0) & (rows < self.cyclic_orders)).all()):
            return rows.astype(np.int64, copy=False)
        bad = next((g for g in elements if not self.contains(g)), None)
        if bad is not None:
            raise ValueError(f"{bad} is not an element of the group")
        return np.array(elements, dtype=np.int64).reshape(-1, rank)

    def _sum_indices(self, a, b) -> np.ndarray:
        """Enumeration positions of x + y for every x in a (rows) and y in b
        (columns), by mixed-radix addition one cyclic factor at a time."""
        rank = len(self.cyclic_orders)
        ra = np.asarray(a, dtype=np.int64).reshape(-1, rank)
        rb = np.asarray(b, dtype=np.int64).reshape(-1, rank)
        out = np.zeros((len(ra), len(rb)), dtype=np.int64)
        for k, (n, stride) in enumerate(zip(self.cyclic_orders, self.strides)):
            out += (ra[:, k, None] + rb[None, :, k]) % n * stride
        return out

    def _pair_blocks(self, a, b):
        """(row slice, column slice, ``_sum_indices`` of those rows of a and
        columns of b) over blocks of at most ``_PAIR_CHUNK`` pairs."""
        cols = max(1, min(len(b), _PAIR_CHUNK))
        rows = _PAIR_CHUNK // cols
        for i in range(0, len(a), rows):
            for j in range(0, len(b), cols):
                r, c = slice(i, i + rows), slice(j, j + cols)
                yield r, c, self._sum_indices(a[r], b[c])

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

    def _pair_exponents(self, characters, elements) -> np.ndarray:
        """Exponent mod L of chi(g) for every (chi, g) pair, one integer
        product: (characters * L/n) @ elements^T."""
        rank = len(self.cyclic_orders)
        weights = np.array([self.exponent // n for n in self.cyclic_orders], dtype=np.int64)
        chars = np.array(characters, dtype=np.int64).reshape(-1, rank) * weights
        els = np.array(elements, dtype=np.int64).reshape(-1, rank)
        return (chars @ els.T) % self.exponent

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
        self.group._residues(list(self.values))  # raises on a key outside the group
        clean = {g: int(v) for g, v in self.values.items() if v}
        object.__setattr__(self, "values", clean)

    @classmethod
    def _from_dense(cls, group: AbelianGroup, dense: np.ndarray) -> "IntVector":
        """The vector whose value at each enumeration position is ``dense``'s."""
        support = np.flatnonzero(dense)
        return cls(group, dict(zip(group._elements_at(support), dense[support].tolist())))

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

    def __hash__(self):
        return hash((self.group, tuple(sorted(self.values.items()))))

    def dense(self) -> np.ndarray:
        out = np.zeros(self.group.order, dtype=np.int64)
        out[self.group.indices(list(self.values))] = list(self.values.values())
        return out


def involution(x: IntVector) -> IntVector:
    return IntVector(x.group, {x.group.neg(g): v for g, v in x.values.items()})


def convolve(x: IntVector, y: IntVector) -> IntVector:
    """(x*y)(g) = sum_{g'} x(g') y(g - g'), exact integers, from ``_sum_counts``
    over the two supports."""
    if x.group != y.group:
        raise ValueError("convolution requires both vectors on the same group")
    G = x.group
    weights = tuple(np.array(list(v.values.values()), dtype=np.int64) for v in (x, y))
    counts = _sum_counts(G, G._residues(list(x.values)), G._residues(list(y.values)), weights)
    return IntVector._from_dense(G, counts)


def _sum_counts(G: AbelianGroup, a: np.ndarray, b: np.ndarray, weights=None) -> np.ndarray:
    """Dense int64 vector over enumeration positions of the sum of
    w_a(x) w_b(y) at x + y, over x in a and y in b (residue row arrays);
    ``weights`` is the pair (w_a, w_b) of int64 arrays, or None for ones.
    Work is O(|a| |b|), memory O(G) plus one block of pairs, never O(G^2)."""
    out = np.zeros(G.order, dtype=np.int64)
    for r, c, positions in G._pair_blocks(a, b):
        if weights is None:
            out += np.bincount(positions.ravel(), minlength=G.order)
        else:
            np.add.at(out, positions.ravel(), np.outer(weights[0][r], weights[1][c]).ravel())
    return out


def dft(x: IntVector) -> dict[Character, Cyclotomic]:
    """Exact DFT: (F*x)(chi) = sum_g conj(chi(g)) x(g), for every character.

    The exponents of every (character, support point) pair come from one
    integer product; each character's value counts them.
    """
    G = x.group
    L = G.exponent
    values = list(x.values.values())
    table = (-G._pair_exponents(G.characters, list(x.values))) % L
    out = {}
    for chi, row in zip(G.characters, table.tolist()):
        counts: dict[int, int] = {}
        for e, v in zip(row, values):
            counts[e] = counts.get(e, 0) + v
        out[chi] = Cyclotomic(L, counts)
    return out


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
    _generators: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        els = tuple(sorted(set(self.elements)))
        object.__setattr__(self, "elements", els)
        G = self.group
        if G.zero not in els:
            raise ValueError("a subgroup must contain the identity")
        rows = G._residues(els)
        positions = rows @ G.strides
        generators = _generating_set(G, rows, positions)
        if generators is not None:
            object.__setattr__(self, "_generators", tuple(els[i] for i in generators))
            return
        # the failure reported is the first of a loop over a (negation of a,
        # then a + b for every b)
        member = np.zeros(G.order, dtype=bool)
        member[positions] = True
        negated = member[(-rows % G.cyclic_orders) @ G.strides]
        for a, row, closed in zip(els, rows, negated):
            if not closed:
                raise ValueError(f"subgroup is not closed under negation at {a}")
            summed = member[G._sum_indices(row, rows)[0]]
            if not summed.all():
                b = els[int(np.argmin(summed))]
                raise ValueError(f"subgroup is not closed under addition at {a}+{b}")
        raise AssertionError("the span of the greedy generators disagrees with the pair sums")

    @classmethod
    def trivial(cls, group: AbelianGroup) -> "Subgroup":
        return cls(group, (group.zero,))

    @classmethod
    def full(cls, group: AbelianGroup) -> "Subgroup":
        return cls(group, group.elements)

    @classmethod
    def generated_by(cls, group: AbelianGroup, generators) -> "Subgroup":
        return cls(group, _closure(group, generators))

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
        return self._annihilator

    @cached_property
    def _annihilator(self) -> "Subgroup":
        # a character trivial on a generating set is trivial on the subgroup
        G = self.group
        trivial = (G._pair_exponents(G.characters, self._generators) == 0).all(axis=1)
        out = Subgroup(G, tuple(chi for chi, t in zip(G.characters, trivial) if t))
        if out.order * self.order != G.order:
            raise AssertionError(f"annihilator of order {out.order} for a subgroup of {self.order}")
        return out


def _generating_set(G: AbelianGroup, rows: np.ndarray, positions: np.ndarray) -> list[int] | None:
    """Indices of a greedy generating set of the sorted set with residue rows
    ``rows`` and enumeration ``positions``, if it is a subgroup, else None.
    Each generator is the first element outside the span so far, and adds
    its multiples up to the first one back in it, so it at least doubles the
    span: at most log2 |set| rounds.  No span may outgrow the set, so the set
    is a subgroup exactly when the span comes to cover it."""
    orders = np.array(G.cyclic_orders)
    span = np.zeros(G.order, dtype=bool)
    span[0] = True
    span_rows, generators = rows[:1, None], []  # the identity leads every span
    steps = np.arange(len(rows) + 1)[:, None]
    while True:
        inside = span[positions]
        i = inside.argmin()
        if inside[i]:
            return generators
        grown = (span_rows + steps[:len(rows) // len(span_rows) + 1] * rows[i]) % orders
        grown_at = np.dot(grown, G.strides)
        back = span[grown_at[0, 1:]]  # the multiples of the new generator
        t = back.argmax() + 1
        if not back[t - 1]:
            return None
        span[grown_at[:, :t]] = True
        span_rows = grown[:, :t].reshape(-1, 1, len(orders))
        generators.append(i)


def _closure(group: AbelianGroup, generators) -> tuple:
    members = (group.zero,)
    for g in generators:
        if not group.contains(g):
            raise ValueError(f"{g} is not an element of the group")
        members = _closure_with(group, set(members), g)
    return members


def _closure_with(group: AbelianGroup, base: set, g: Element) -> tuple:
    """The subgroup generated by the subgroup ``base`` and g, sorted."""
    # extend by all multiples of g added to the current subgroup
    shifts = [group.zero]
    y = g
    while y not in base:
        shifts.append(y)
        y = group.add(y, g)
    return tuple(sorted({group.add(x, s) for x in base for s in shifts}))


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
    if q.group.order * subgroup.order != G.order:
        raise AssertionError(f"quotient of order {q.group.order} by a subgroup of {subgroup.order}")
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


def _subgroup_sets(group: AbelianGroup, order: int, cap: int, avoid=()) -> list[tuple]:
    """Sorted element tuples of every subgroup whose order divides ``order``
    and that misses ``avoid``, sorted by (order, elements).

    Cyclic groups have one subgroup per divisor.  Otherwise subgroups grow
    one element at a time from the trivial one, exhaustive for group orders
    up to ``cap``; a subgroup that meets ``avoid`` is never extended, which
    loses nothing because every subgroup missing ``avoid`` is reached through
    a chain of its own subgroups, each missing ``avoid`` too.
    """
    blocked = frozenset(avoid)
    if group.is_cyclic:
        gen = next(g for g in group.elements if group.element_order(g) == group.order)
        subs = [_closure_with(group, {group.zero}, group.scale(group.order // d, gen))
                for d in range(1, order + 1) if order % d == 0]
        return [els for els in subs if blocked.isdisjoint(els)]
    # the trivial subgroup alone needs no search
    if order > 1 and group.order > cap:
        raise SearchCapExceeded(
            f"subgroup search not exhaustive: group order {group.order} exceeds cap {cap}"
        )
    if group.zero in blocked:
        return []
    # only elements whose order divides the target can lie in a solution
    candidates = [g for g in group.elements
                  if order % group.element_order(g) == 0 and g not in blocked]
    start = (group.zero,)
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        members = set(current)
        tried = set(current)
        for g in candidates:
            if g in tried:
                continue
            # the closure with g depends only on the coset g + current
            tried.update(group.add(g, h) for h in current)
            closed = _closure_with(group, members, g)
            if order % len(closed) or not blocked.isdisjoint(closed) or closed in seen:
                continue
            seen.add(closed)
            frontier.append(closed)
    return sorted(seen, key=lambda els: (len(els), els))


def subgroups_of_order(group: AbelianGroup, order: int, cap: int = 10000) -> list[Subgroup]:
    """All subgroups of the given order, in a deterministic order.

    Cyclic groups shortcut to the unique subgroup per divisor; otherwise the
    search is exhaustive for group orders up to ``cap``.
    """
    if order < 1 or group.order % order:
        raise ValueError(f"{order} does not divide the group order {group.order}")
    return [Subgroup(group, els) for els in _subgroup_sets(group, order, cap) if len(els) == order]


def all_subgroups(group: AbelianGroup, cap: int = 10000) -> list[Subgroup]:
    """Every subgroup of the group (exhaustive up to the cap)."""
    if group.order > cap:
        raise SearchCapExceeded(
            f"subgroup search not exhaustive: group order {group.order} exceeds cap {cap}"
        )
    return [Subgroup(group, els) for els in _subgroup_sets(group, group.order, cap)]
