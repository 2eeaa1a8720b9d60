"""Exact matrix forms against the cell-by-cell reference algebra."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from etfkit.cyclotomic import Cyclotomic
from etfkit.matrices import from_cells

from conftest import (
    reference_exact_equals,
    reference_is_exactly_diagonal,
    reference_product,
    reference_values,
)

# mixed: a root read at 8 or 9 and at lcm 24, 36 or 72 can differ in the last bit
MODULI = [1, 2, 3, 4, 6, 8, 9, 12]
COEFFS = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=6)
)
# squares apart, so that most pairs of scales have a rational ratio
SCALES = st.sampled_from([Fraction(1), Fraction(1, 4), Fraction(9, 4), Fraction(2), Fraction(1, 3)])


@st.composite
def cyclotomic_cells(draw):
    """A cell at a drawn modulus: zero, a few terms with integer or Fraction
    coefficients, sometimes plus the vanishing sum 1 + w^(m/3) + w^(2m/3)."""
    m = draw(st.sampled_from(MODULI))
    coeffs: dict = {}
    for _ in range(draw(st.integers(0, 3))):
        e = draw(st.integers(0, m - 1))
        coeffs[e] = coeffs.get(e, 0) + draw(COEFFS)
    if m % 3 == 0 and draw(st.booleans()):
        for j in range(3):
            coeffs[j * m // 3] = coeffs.get(j * m // 3, 0) + 1
    return Cyclotomic(m, coeffs)


def grids(n, m):
    return st.lists(st.lists(cyclotomic_cells(), min_size=m, max_size=m), min_size=n, max_size=n)


def labels(n):
    return [(i,) for i in range(n)]


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def outcome(f):
    try:
        return f()
    except ValueError:
        return ValueError


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_term_layout_matches_cell_by_cell_reference(data):
    n, k, m = (data.draw(st.integers(1, 3)) for _ in range(3))
    a, b, c = data.draw(grids(n, k)), data.draw(grids(k, m)), data.draw(grids(n, k))
    sa, sb, sc = data.draw(SCALES), data.draw(SCALES), data.draw(SCALES)
    A = from_cells(labels(n), labels(k), a, sa)
    B = from_cells(labels(k), labels(m), b, sb)
    C = from_cells(labels(n), labels(k), c, sc)

    # values: the same doubles, bit for bit, signs of zeros included
    assert np.array_equal(bits(A.values), bits(reference_values(a, sa)))
    assert np.array_equal(bits(A.adjoint().values), bits(reference_values(a, sa).conj().T))

    adj = A.adjoint().exact
    assert adj.scale_sq == sa
    assert all(adj.cells[j][i] == a[i][j].conjugate() for i in range(n) for j in range(k))

    prod = (A @ B).exact
    assert prod.scale_sq == sa * sb
    want = reference_product(a, b)
    assert all(prod.cells[i][j] == want[i][j] for i in range(n) for j in range(m))
    # an adjoint on the right holds its terms out of row order
    prod = (A @ C.adjoint()).exact
    want = reference_product(a, [[x.conjugate() for x in col] for col in zip(*c)])
    assert all(prod.cells[i][j] == want[i][j] for i in range(n) for j in range(n))

    # equal up to a rational factor and vanishing sums, and an arbitrary other
    r = data.draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3)]))
    zero = Cyclotomic(3, {0: 1, 1: 1, 2: 1})
    twin = [[x * r + zero for x in row] for row in a]
    T = from_cells(labels(n), labels(k), twin, sa / r**2)
    assert A.exact_equals(T) and reference_exact_equals(a, sa, twin, sa / r**2)
    assert outcome(lambda: A.exact_equals(C)) == outcome(lambda: reference_exact_equals(a, sa, c, sc))

    assert A.is_exactly_diagonal() == reference_is_exactly_diagonal(a)
    diag = [[x if i == j else x * 0 + zero for j, x in enumerate(row)] for i, row in enumerate(a)]
    assert from_cells(labels(n), labels(k), diag, sa).is_exactly_diagonal()
    assert reference_is_exactly_diagonal(diag)
