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

import numpy as np

from .cyclotomic import Cyclotomic, rational_sqrt

# exact cells are dropped beyond these limits to keep big numeric sweeps cheap
_EXACT_CELL_LIMIT = 20000
_EXACT_WORK_LIMIT = 50000


@dataclass(frozen=True)
class ExactForm:
    scale_sq: Fraction
    cells: tuple[tuple[Cyclotomic, ...], ...]

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
        if self.exact is not None:
            cells = self.exact.cells
            if len(cells) != len(self.row_labels) or any(
                len(r) != len(self.col_labels) for r in cells
            ):
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
            cells = tuple(
                tuple(self.exact.cells[i][j].conjugate() for i in range(len(self.row_labels)))
                for j in range(len(self.col_labels))
            )
            exact = ExactForm(self.exact.scale_sq, cells)
        return ComplexMatrix(self.col_labels, self.row_labels, self.values.conj().T.copy(), exact)

    def __matmul__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        if self.col_labels != other.row_labels:
            raise ValueError("inner labels do not match")
        values = self.values @ other.values
        exact = None
        work = len(self.row_labels) * len(self.col_labels) * len(other.col_labels)
        if (
            self.exact is not None
            and other.exact is not None
            and len(self.row_labels) * len(other.col_labels) <= _EXACT_CELL_LIMIT
            and work <= _EXACT_WORK_LIMIT
        ):
            n, k, m = len(self.row_labels), len(self.col_labels), len(other.col_labels)
            a, b = self.exact.cells, other.exact.cells
            cells = tuple(
                tuple(_dot(a[i], [b[t][j] for t in range(k)]) for j in range(m))
                for i in range(n)
            )
            exact = ExactForm(self.exact.scale_sq * other.exact.scale_sq, cells)
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
        if self.exact.scale_sq == other.exact.scale_sq:
            ratio = Fraction(1)
        else:
            ratio = rational_sqrt(other.exact.scale_sq / self.exact.scale_sq)
            if ratio is None:
                raise ValueError("scales differ by an irrational factor")
        a, b = self.exact.cells, other.exact.cells
        return all(
            a[i][j] == b[i][j] * ratio
            for i in range(self.shape[0])
            for j in range(self.shape[1])
        )

    def is_exactly_diagonal(self) -> bool:
        if self.exact is None:
            raise ValueError("exact diagonality requires an exact form")
        return all(
            self.exact.cells[i][j].is_zero()
            for i in range(self.shape[0])
            for j in range(self.shape[1])
            if i != j
        )


def _dot(row, col) -> Cyclotomic:
    out = None
    for a, b in zip(row, col):
        term = a * b
        out = term if out is None else out + term
    return out


def from_cells(
    row_labels,
    col_labels,
    cells,
    scale_sq: Fraction,
) -> ComplexMatrix:
    """Build a matrix from cyclotomic cells and a rational squared scale."""
    row_labels, col_labels = tuple(row_labels), tuple(col_labels)
    scale = math.sqrt(float(scale_sq))
    values = np.array(
        [[complex(c) * scale for c in row] for row in cells], dtype=np.complex128
    )
    values = values.reshape(len(row_labels), len(col_labels))
    keep = len(row_labels) * len(col_labels) <= _EXACT_CELL_LIMIT
    exact = ExactForm(Fraction(scale_sq), tuple(tuple(r) for r in cells)) if keep else None
    return ComplexMatrix(row_labels, col_labels, values, exact)


def identity_matrix(labels, modulus: int = 1) -> ComplexMatrix:
    labels = tuple(labels)
    cells = tuple(
        tuple(
            Cyclotomic.from_rational(1 if i == j else 0, modulus)
            for j in range(len(labels))
        )
        for i in range(len(labels))
    )
    return from_cells(labels, labels, cells, Fraction(1))
