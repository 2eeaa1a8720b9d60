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
# the number-theoretic transform of ``_ntt_counts``: p = 7 * 2^26 + 1 has
# primitive root 3 and 2^26-th roots of unity, and a product of two residues
# is below 2^58, so int64 arithmetic is exact (Pollard, Math. Comp. 25, 1971)
_NTT_PRIME, _NTT_ROOT, _NTT_MAX_LENGTH = 469762049, 3, 1 << 26
# cost model of ``_sum_counts``: the transform of length L costs about as
# much as _NTT_COST L log2 L pairs plus a fixed _NTT_OVERHEAD pairs (its 20-odd
# numpy calls per step), calibrated on a 2-vCPU x86 host
_NTT_COST, _NTT_OVERHEAD = 2, 1 << 15


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

    def _rows_at(self, positions) -> np.ndarray:
        """Residue rows at enumeration positions, one per position."""
        return np.stack(np.unravel_index(np.asarray(positions, dtype=np.int64), self.cyclic_orders), axis=-1)

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
    Exact either way: by ``_ntt_counts`` in O(L log L) when it is exact and
    its cost model beats the pairs, else in blocks of pairs, O(|a| |b|) work
    and memory O(G) plus one block, never O(G^2)."""
    length = prod(_ntt_shape(G))
    if len(a) * len(b) > _NTT_COST * length * (length.bit_length() - 1) + _NTT_OVERHEAD:
        counts = _ntt_counts(G, a, b, weights)
        if counts is not None:
            return counts
    out = np.zeros(G.order, dtype=np.int64)
    for r, c, positions in G._pair_blocks(a, b):
        if weights is None:
            out += np.bincount(positions.ravel(), minlength=G.order)
        else:
            np.add.at(out, positions.ravel(), np.outer(weights[0][r], weights[1][c]).ravel())
    return out


def _ntt_shape(G: AbelianGroup) -> tuple[int, ...]:
    """Transform length per cyclic factor: n_k itself when it is a power of
    two (a cyclic transform), else the power of two at or above 2 n_k - 1 (a
    linear one, folded back mod n_k)."""
    return tuple([n if n & (n - 1) == 0 else 1 << (2 * n - 2).bit_length() for n in G.cyclic_orders])


def _ntt_counts(G: AbelianGroup, a: np.ndarray, b: np.ndarray, weights=None) -> np.ndarray | None:
    """``_sum_counts`` by one number-theoretic transform mod ``_NTT_PRIME``
    along each cyclic factor, or None when its length L passes 2^26 or a
    count might reach p/2.  With the rows of a and of b distinct, as every
    caller's are, each point has at most one partner per sum, so |count| <=
    min(sum|w_a| max|w_b|, max|w_a| sum|w_b|); residues above p/2 are the
    negatives.  The three L-long rows and the tables of the longest axis
    are allocated before the first count, so that count is the peak."""
    p, half, shape = _NTT_PRIME, _NTT_PRIME // 2, _ntt_shape(G)
    if weights is None:
        bound = min(len(a), len(b))
    else:
        ends = [(sum(map(abs, w.tolist())), max(map(abs, w.tolist()), default=0)) for w in weights]
        bound = min(ends[0][0] * ends[1][1], ends[0][1] * ends[1][0])
    if prod(shape) > _NTT_MAX_LENGTH or bound > half:
        return None
    strides = np.array([prod(shape[k + 1:]) for k in range(len(shape))])
    xa, xb, spare = np.empty((3, prod(shape)), dtype=np.int64)
    roots, twiddles = np.empty((2, max(shape)), dtype=np.int64)
    for x, rows, w in zip((xa, xb), (a, b), weights or (None, None)):
        at = np.asarray(rows, dtype=np.int64).reshape(-1, len(shape)) @ strides
        if w is None:
            x[:] = np.bincount(at, minlength=x.size)
        else:
            x.fill(0)
            np.add.at(x, at, w % p)
    _fill_roots(roots, inverse=False)
    for x in (xa, xb):
        x %= p
        _ntt(x, shape, spare, roots, twiddles, inverse=False)
    xa *= xb
    xa %= p
    xa *= pow(xa.size, -1, p)
    xa %= p
    _fill_roots(roots, inverse=True)
    _ntt(xa, shape, spare, roots, twiddles, inverse=True)
    np.subtract(xa, p, out=xa, where=xa > half)
    out = xa.reshape(shape)
    for k, n in enumerate(G.cyclic_orders):
        if shape[k] != n:  # fold the linear convolution back mod n
            lead = (slice(None),) * k
            out[lead + (slice(n - 1),)] += out[lead + (slice(n, 2 * n - 1),)]
            out = out[lead + (slice(n),)]
    return np.ascontiguousarray(out).reshape(-1)


def _fill_roots(roots: np.ndarray, inverse: bool) -> None:
    """roots[j] = w^j for the primitive len(roots)-th root of unity w mod
    ``_NTT_PRIME`` (its inverse for ``inverse``), by doubling in place."""
    p, top, m = _NTT_PRIME, len(roots), 1
    root = pow(_NTT_ROOT, (p - 1) // top * (top - 1 if inverse else 1), p)
    roots[0] = 1
    while m < top:
        np.multiply(roots[:m], pow(root, m, p), out=roots[m:2 * m])
        np.remainder(roots[m:2 * m], p, out=roots[m:2 * m])
        m *= 2


def _ntt(x: np.ndarray, shape: tuple, spare: np.ndarray, roots: np.ndarray, twiddles: np.ndarray,
         inverse: bool) -> None:
    """Transform mod ``_NTT_PRIME`` of the flat C-order array x of the given
    power-of-two shape along every axis, in place, from the powers ``roots``
    of a root of unity of order len(roots).  An axis of length n goes in
    radix-16 steps (Gentleman-Sande): a 16-point DFT across the blocks as an
    int64 matmul into ``spare`` (sums of 16 products stay below 2^62), then
    the twiddles, copied into ``twiddles`` from strided views of the roots.
    The forward transform leaves each axis in digit-reversed order; the
    inverse one undoes it from that order, unscaled."""
    p, top, src, dst = _NTT_PRIME, len(roots), x, spare
    for k, n in enumerate(shape):
        post = prod(shape[k + 1:])
        steps = [(n >> 4 * t, min(16, n >> 4 * t)) for t in range((n.bit_length() + 2) // 4)]
        for n, r in steps[::-1] if inverse else steps:
            i, m = np.arange(r * r), n // r
            dft = roots[i // r * (i % r) % r * (top // r)].reshape(r, r)
            twiddle = twiddles[:n].reshape(r, m)  # at (k1, j2): the n-th root to the power k1 j2
            twiddle[0] = 1
            for k1 in range(1, r):
                twiddle[k1] = roots[:k1 * m * (top // n):k1 * (top // n)]
            blocks, rows = (-1, r, m, post), (-1, r, m * post)
            if inverse and n > r:
                np.multiply(src.reshape(blocks), twiddle.reshape(r, m, 1), out=src.reshape(blocks))
                src %= p
            np.matmul(dft, src.reshape(rows), out=dst.reshape(rows))
            dst %= p
            if not inverse and n > r:
                np.multiply(dst.reshape(blocks), twiddle.reshape(r, m, 1), out=dst.reshape(blocks))
                dst %= p
            src, dst = dst, src
    if src is not x:
        x[...] = src


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
        member, rows = _trivial(group)
        for g in group._residues(list(generators)):  # raises on a non-element
            rows = _join(group, member, rows, g)
            member[rows @ group.strides] = True
        return cls(group, tuple(group._elements_at(np.flatnonzero(member))))

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
        # a stable sort by coset index lists each coset's positions in turn
        n, els = self.order, self.group._elements_at(np.argsort(self._coset_index[1], kind="stable"))
        return tuple((els[i], tuple(els[i:i + n])) for i in range(0, len(els), n))

    @cached_property
    def coset_rep(self) -> dict:
        return {g: r for r, members in self.cosets for g in members}

    def _coset_labels(self) -> tuple[tuple[int, ...], np.ndarray]:
        """(d, label): the Smith diagonal entries d_j != 1 of the relations
        (the cyclic orders and the generators) and, at each position of G,
        g V mod d as a mixed-radix position in C = prod Z_(d_j).  The
        relations span a lattice whose image under V is prod d_j Z, so
        g -> g V mod d is a homomorphism of G onto C with kernel this
        subgroup: g and g' share a coset exactly when their labels agree."""
        G, k = self.group, len(self.group.cyclic_orders)
        relations = [[n if j == i else 0 for j in range(k)] for i, n in enumerate(G.cyclic_orders)]
        diag, v = _smith_diagonal(relations + [list(g) for g in self._generators], k)
        label = np.zeros(G.cyclic_orders, dtype=np.int64)
        factors = [(d, column) for d, column in zip(diag, zip(*v)) if d != 1]  # g V is 0 mod 1
        for d, column in factors:
            y = np.zeros((), dtype=np.int64)  # (g V)_j mod d over all g, one factor at a time
            for n, c in zip(G.cyclic_orders, column):
                y = (y[..., None] + np.arange(n) * (c % d)) % d
            label = label * d + y
        return tuple(d for d, _ in factors), label.reshape(-1)

    @cached_property
    def _coset_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, index): the least position of each coset, ascending, and
        at each position of G the index of its coset in that order, which
        is the order of ``cosets``."""
        _, label = self._coset_labels()
        _, first, sizes = np.unique(label, return_index=True, return_counts=True)
        if (sizes != self.order).any():
            raise AssertionError("a coset label does not mark one coset")
        return np.sort(first), np.argsort(np.argsort(first))[label]

    @cached_property
    def _coordinates(self) -> tuple[AbelianGroup, np.ndarray, np.ndarray]:
        """(C, h, eta): this subgroup H in its own coordinates C = prod
        Z_(d_j), as the C-positions of its elements and of its characters,
        one per coset of the annihilator A, in ``A.cosets`` order.  The
        character at c' takes the element at c to exp(2 pi i sum_j c_j c'_j
        / d_j).  A's coset labels identify G^/A, and so H^, with C; chi_j,
        the least character labelled e_j, has d_j chi_j in A, so chi_j(h) is
        w^e, w = exp(2 pi i / L), with c_j = e d_j / L an integer.  h -> c is
        a homomorphism, one-to-one as the characters separate the points of
        H, and onto as |H| = |H^| = |C|.  For the trivial H, A is all of G^
        and C = Z_1."""
        G, ann = self.group, self.annihilator()
        diag, label = ann._coset_labels()
        C = AbelianGroup(diag or (1,))
        first = ann._coset_index[0]
        eta = label[first]
        chis = first[np.argsort(eta)[C.strides % C.order]]  # at the unit vectors; Z_1 has only 0
        exponents = G._pair_exponents(G._rows_at(chis), self.elements)
        h = (exponents * np.array(C.cyclic_orders)[:, None] // G.exponent).T @ C.strides
        if len(np.unique(h)) != self.order:
            raise AssertionError("the coordinates of a subgroup are not one-to-one")
        return C, h, eta

    def annihilator(self) -> "Subgroup":
        """Characters trivial on this subgroup, as a Subgroup of the dual."""
        return self._annihilator

    @cached_property
    def _annihilator(self) -> "Subgroup":
        # a character trivial on a generating set is trivial on the subgroup
        G = self.group
        trivial = (G._pair_exponents(G._rows_at(np.arange(G.order)), self._generators) == 0).all(axis=1)
        out = Subgroup(G, tuple(G._elements_at(np.flatnonzero(trivial))))
        if out.order * self.order != G.order:
            raise AssertionError(f"annihilator of order {out.order} for a subgroup of {self.order}")
        return out


def _generating_set(G: AbelianGroup, rows: np.ndarray, positions: np.ndarray) -> list[int] | None:
    """Indices of a greedy generating set of the sorted set with residue rows
    ``rows`` and enumeration ``positions``, if it is a subgroup, else None.
    Each generator is the first element outside the span so far, and adds
    its multiples up to the first one back in it, so it at least doubles the
    span: at most log2 |set| rounds.  No span may outgrow the set (its order
    must divide |set|), so the set is a subgroup exactly when the span comes
    to cover it."""
    (span, span_rows), generators = _trivial(G), []
    while True:
        inside = span[positions]
        i = inside.argmin()
        if inside[i]:
            return generators
        span_rows = _join(G, span, span_rows, rows[i], len(rows))
        if span_rows is None:
            return None
        span[span_rows @ G.strides] = True
        generators.append(i)


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


def _trivial(G: AbelianGroup) -> tuple[np.ndarray, np.ndarray]:
    """Bool mask over the positions of G and residue rows of {0}."""
    member = np.zeros(G.order, dtype=bool)
    member[0] = True
    return member, np.zeros((1, len(G.cyclic_orders)), dtype=np.int64)


def _join(G: AbelianGroup, member: np.ndarray, rows: np.ndarray, g: np.ndarray,
          order: int = 0) -> np.ndarray | None:
    """Residue rows of <S, g>, for the subgroup S with bool mask ``member``
    over the positions of G and residue ``rows``, and the residue row g: the
    sums s + m g for 0 <= m < t, t the least m > 0 with m g in S, one coset
    of S each.  None when ``order`` is nonzero and |S| t does not divide it."""
    n = np.array(G.cyclic_orders)
    # m g up to the order of g, or up to order / |S|, past which t is too large
    top = order // len(rows) if order else np.lcm.reduce(n // np.gcd(g, n))
    multiples = np.arange(top + 1)[:, None] * g % n
    back = member[multiples[1:] @ G.strides]
    t = int(back.argmax()) + 1
    if not back[t - 1] or order and order % (len(rows) * t):
        return None
    return ((rows[:, None] + multiples[:t]) % n).reshape(-1, len(n))


def _subgroup_search(G: AbelianGroup, order: int, cap: int, avoid: np.ndarray | None = None,
                     first: bool = False) -> list[np.ndarray]:
    """Ascending positions of every subgroup whose order divides ``order``
    and that misses the positions set in the bool mask ``avoid``, sorted by
    (order, positions); with ``first``, of the lex-first one of order
    ``order`` alone, or of none.  Cyclic groups have one subgroup per divisor.

    Otherwise a depth-first walk, exhaustive for group orders up to ``cap``,
    grows <S, g> from S for each candidate g (order dividing ``order``, not
    in ``avoid``) in increasing position, skipping g in the coset g' + S of
    an earlier g', and <S, g> when its order does not divide ``order``, it
    meets ``avoid`` or it was reached before.  Positions order residue tuples
    lexicographically, so if g = min(H - S) < min(H' - S) for subgroups H, H'
    over S, H precedes H'; and no earlier coset holds g (g - s would be a
    smaller element of H - S).  So the first hit is the lex-first subgroup,
    and without one the walk is exhaustive.  Each step at least doubles |S|,
    so the walk is at most log2 ``order`` deep."""
    blocked = np.zeros(G.order, dtype=bool) if avoid is None else avoid
    n, (trivial, zero) = np.array(G.cyclic_orders), _trivial(G)
    if G.is_cyclic:  # of order d: generated by n / gcd(n, d) in each factor Z_n
        divisors = [order] if first else [d for d in range(1, order + 1) if order % d == 0]
        found = (np.sort(_join(G, trivial, zero, n // np.gcd(n, d)) @ G.strides) for d in divisors)
        return [at for at in found if not blocked[at].any()]
    # the trivial subgroup alone needs no search
    if order > 1 and G.order > cap:
        raise SearchCapExceeded(f"subgroup search not exhaustive: group order {G.order} exceeds cap {cap}")
    if blocked[0]:
        return []
    residues = G._rows_at(np.arange(G.order))
    # only elements whose order divides the target can lie in a solution
    fits = order % np.lcm.reduce(n // np.gcd(residues, n), axis=1) == 0
    candidates = np.flatnonzero(fits & ~blocked).tolist()
    seen = {}  # the mask of every subgroup reached, by its packed bytes

    def walk(member, rows):
        seen[np.packbits(member).tobytes()] = member
        if len(rows) == order:
            return member if first else None
        tried = member.copy()
        for g in candidates:
            if tried[g]:
                continue
            tried[(rows + residues[g]) % n @ G.strides] = True
            grown = _join(G, member, rows, residues[g], order)
            if grown is None or blocked[at := grown @ G.strides].any():
                continue
            mask = np.zeros(G.order, dtype=bool)
            mask[at] = True
            if np.packbits(mask).tobytes() not in seen and (hit := walk(mask, grown)) is not None:
                return hit
        return None

    hit = walk(trivial, zero)
    masks = ([] if hit is None else [hit]) if first else seen.values()
    return sorted((np.flatnonzero(mask) for mask in masks), key=lambda at: (len(at), at.tolist()))


def subgroups_of_order(group: AbelianGroup, order: int, cap: int = 10000) -> list[Subgroup]:
    """All subgroups of the given order, in a deterministic order.

    Cyclic groups shortcut to the unique subgroup per divisor; otherwise the
    search is exhaustive for group orders up to ``cap``.
    """
    if order < 1 or group.order % order:
        raise ValueError(f"{order} does not divide the group order {group.order}")
    return [Subgroup(group, tuple(group._elements_at(at)))
            for at in _subgroup_search(group, order, cap) if len(at) == order]


def all_subgroups(group: AbelianGroup, cap: int = 10000) -> list[Subgroup]:
    """Every subgroup of the group (exhaustive up to the cap)."""
    if group.order > cap:
        raise SearchCapExceeded(
            f"subgroup search not exhaustive: group order {group.order} exceeds cap {cap}"
        )
    return [Subgroup(group, tuple(group._elements_at(at))) for at in _subgroup_search(group, group.order, cap)]
