"""Dense labeled complex matrices carrying optional exact forms.

A matrix may carry, next to its complex entries, an exact representation
``sqrt(scale_sq) * cell`` where ``scale_sq`` is rational and each cell is a
rational combination of roots of unity.  Common normalizations (1/sqrt(D),
sqrt(S/D), ...) square away under products, so adjoints and matrix products
propagate exactness and identity checks can be made with no floats at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from .cyclotomic import Cyclotomic, _complex_roots, _reduce, _root_array, _terms, rational_sqrt

# a product keeps its exact form while it pairs at most this many terms
_EXACT_WORK_LIMIT = 50000


@dataclass(frozen=True, eq=False)
class ExactForm:
    """``sqrt(scale_sq)`` times, in cell i * ncols + j of a matrix of the
    given shape, the sum over the terms t with ``cell[t] = i * ncols + j`` of
    ``num[t] / den * w^exp[t]``, w = exp(2 pi i / modulus), 0 <= exp[t] <
    modulus.  Like terms need not be merged: this is the (row, exponent,
    weight) layout that every exact zero test takes.  ``num`` holds Python
    integers (dtype object), so products never wrap."""

    scale_sq: Fraction
    shape: tuple[int, int]
    modulus: int
    den: int
    cell: np.ndarray
    exp: np.ndarray
    num: np.ndarray

    @cached_property
    def cells(self) -> tuple[tuple[Cyclotomic, ...], ...]:
        """The cells as ``Cyclotomic`` values, without the scale."""
        acc: list[dict[int, int]] = [{} for _ in range(self.shape[0] * self.shape[1])]
        for c, e, n in zip(self.cell.tolist(), self.exp.tolist(), self.num.tolist()):
            acc[c][e] = acc[c].get(e, 0) + n
        flat = [Cyclotomic._make(self.modulus, {e: n for e, n in a.items() if n}, self.den)
                for a in acc]
        n, m = self.shape
        return tuple(tuple(flat[i * m:(i + 1) * m]) for i in range(n))

    def folded(self) -> tuple[tuple[Cyclotomic, ...], ...] | None:
        """Cells with the scale absorbed, when sqrt(scale_sq) is rational."""
        r = rational_sqrt(self.scale_sq)
        if r is None:
            return None
        return tuple(tuple(c * r for c in row) for row in self.cells)


@dataclass(frozen=True)
class ComplexMatrix:
    row_labels: tuple
    col_labels: tuple
    values: np.ndarray
    exact: ExactForm | None = None

    def __post_init__(self) -> None:
        if self.values.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValueError("entry count must match the label grid")
        if self.exact is not None and self.exact.shape != self.values.shape:
            raise ValueError("exact cells must match the label grid")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def row_index(self, label) -> int:
        return self.row_labels.index(label)

    def col_index(self, label) -> int:
        return self.col_labels.index(label)

    def entry(self, row_label, col_label) -> complex:
        return complex(self.values[self.row_index(row_label), self.col_index(col_label)])

    # -- algebra ----------------------------------------------------------
    def adjoint(self) -> "ComplexMatrix":
        exact = None
        if self.exact is not None:
            x = self.exact
            n, m = x.shape
            exact = ExactForm(x.scale_sq, (m, n), x.modulus, x.den,
                              x.cell % m * n + x.cell // m, -x.exp % x.modulus, x.num)
        return ComplexMatrix(self.col_labels, self.row_labels, self.values.conj().T.copy(), exact)

    def __matmul__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        if self.col_labels != other.row_labels:
            raise ValueError("inner labels do not match")
        values = self.values @ other.values
        exact = None
        if self.exact is not None and other.exact is not None:
            exact = _product(self.exact, other.exact)
        return ComplexMatrix(self.row_labels, other.col_labels, values, exact)

    # -- norms and checks ----------------------------------------------------
    def identity_residual(self) -> float:
        n = min(self.shape)
        eye = np.eye(*self.shape)
        return float(np.max(np.abs(self.values - eye))) if n else 0.0

    def exact_equals(self, other: "ComplexMatrix") -> bool:
        """Exact comparison; requires exact forms on both sides."""
        if self.exact is None or other.exact is None:
            raise ValueError("exact comparison requires exact forms")
        if self.shape != other.shape:
            return False
        a, b = self.exact, other.exact
        if a.scale_sq == b.scale_sq:
            ratio = Fraction(1)
        else:
            ratio = rational_sqrt(b.scale_sq / a.scale_sq)
            if ratio is None:
                raise ValueError("scales differ by an irrational factor")
        # a - b * ratio, times den_a * den_b * ratio.denominator > 0
        modulus = lcm(a.modulus, b.modulus)
        return _vanishes(
            modulus,
            np.concatenate([a.cell, b.cell]),
            np.concatenate([a.exp * (modulus // a.modulus), b.exp * (modulus // b.modulus)]),
            np.concatenate([a.num * (b.den * ratio.denominator),
                            b.num * (-a.den * ratio.numerator)]),
        )

    def is_exactly_diagonal(self) -> bool:
        if self.exact is None:
            raise ValueError("exact diagonality requires an exact form")
        x = self.exact
        off = x.cell // x.shape[1] != x.cell % x.shape[1]
        return _vanishes(x.modulus, x.cell[off], x.exp[off], x.num[off])


def _vanishes(modulus: int, cell, exp, weight) -> bool:
    """Whether every cell's sum of weight * w^exp is zero.  Like (cell,
    exponent) terms are merged first; a cell left with one nonzero term is
    not zero, and only the cells left with several go to one reduction."""
    key, at = np.unique(cell * modulus + exp, return_inverse=True)
    merged = np.zeros(len(key), dtype=object)
    np.add.at(merged, at, weight)
    key, merged = key[merged != 0], merged[merged != 0]
    rows, row, count = np.unique(key // modulus, return_inverse=True, return_counts=True)
    if (count == 1).any():
        return False
    _, rem = _reduce(modulus, len(rows), row, key % modulus, merged)
    return not rem.any()


def _pairs(key: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (i, start[key[i]] + r) with r < count[key[i]], start the prefix
    sums of ``count``: item i of ``key`` against each member of its group."""
    reps = count[key]
    start = np.cumsum(count) - count
    first = np.cumsum(reps) - reps
    i = np.repeat(np.arange(len(key)), reps)
    return i, np.repeat(start[key] - first, reps) + np.arange(len(i))


def _product(a: ExactForm, b: ExactForm) -> ExactForm | None:
    """a @ b: each term of a in inner column k meets each term of b in row
    k; None when that forms more than ``_EXACT_WORK_LIMIT`` pairs."""
    (n, k), m = a.shape, b.shape[1]
    inner, b_row = a.cell % k, b.cell // m
    count = np.bincount(b_row, minlength=k)
    if int(count[inner].sum()) > _EXACT_WORK_LIMIT:
        return None
    t, u = _pairs(inner, count)
    u = np.argsort(b_row, kind="stable")[u]
    modulus = lcm(a.modulus, b.modulus)
    return ExactForm(
        a.scale_sq * b.scale_sq, (n, m), modulus, a.den * b.den,
        a.cell[t] // k * m + b.cell[u] % m,
        (a.exp[t] * (modulus // a.modulus) + b.exp[u] * (modulus // b.modulus)) % modulus,
        a.num[t] * b.num[u],
    )


def _matrix(row_labels, col_labels, exact: ExactForm, roots=None) -> ComplexMatrix:
    """The matrix of an exact form.  Each entry is its cell's terms,
    ``complex(num / den) * root``, summed in order from 0j and times
    sqrt(scale_sq): bit for bit ``complex()`` of the cell's ``Cyclotomic``
    times the scale.  ``roots`` are the terms' float roots when they were
    read at another modulus than ``exact.modulus``."""
    if roots is None:
        roots = _root_array(exact.modulus)[exact.exp]
    values = np.zeros(exact.shape[0] * exact.shape[1], dtype=np.complex128)
    np.add.at(values, exact.cell, (exact.num / exact.den).astype(np.float64) * roots)
    values = values.reshape(exact.shape) * math.sqrt(float(exact.scale_sq))
    return ComplexMatrix(tuple(row_labels), tuple(col_labels), values, exact)


def _exact_terms(values) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``_terms`` of the ``Cyclotomic`` values plus each term's float root,
    read at its own value's modulus as ``complex()`` of the value reads it."""
    roots = [_complex_roots(v.modulus)[e] for v in values for e in v._num]
    return *_terms(values), np.array(roots, dtype=np.complex128)


def from_cells(
    row_labels,
    col_labels,
    cells,
    scale_sq: Fraction,
) -> ComplexMatrix:
    """Build a matrix from cyclotomic cells and a rational squared scale."""
    row_labels, col_labels = tuple(row_labels), tuple(col_labels)
    cells = [tuple(row) for row in cells]
    if len(cells) != len(row_labels) or any(len(row) != len(col_labels) for row in cells):
        raise ValueError("exact cells must match the label grid")
    modulus, den, cell, exp, num, roots = _exact_terms([c for row in cells for c in row])
    exact = ExactForm(Fraction(scale_sq), (len(cells), len(col_labels)), modulus, den,
                      cell, exp, num)
    return _matrix(row_labels, col_labels, exact, roots)


def _from_exponents(row_labels, col_labels, scale_sq, modulus: int, exp, cell=None) -> ComplexMatrix:
    """sqrt(scale_sq) * w^exp[t] in cell ``cell[t]`` (default: every cell in
    row-major order) and zero elsewhere, w = exp(2 pi i / modulus)."""
    row_labels, col_labels = tuple(row_labels), tuple(col_labels)
    exp = np.asarray(exp, dtype=np.int64).ravel() % modulus
    cell = np.arange(exp.size) if cell is None else np.asarray(cell, dtype=np.int64)
    exact = ExactForm(Fraction(scale_sq), (len(row_labels), len(col_labels)), modulus, 1,
                      cell, exp, np.ones(exp.size, dtype=object))
    return _matrix(row_labels, col_labels, exact)


def identity_matrix(labels, modulus: int = 1) -> ComplexMatrix:
    labels = tuple(labels)
    n = len(labels)
    return _from_exponents(labels, labels, 1, modulus, np.zeros(n), np.arange(n) * (n + 1))
