"""Complex circulant conference matrices, built two ways and verified.

Route one starts from an amalgam: the entry at (g_bar, g_bar') collects
gamma over the slice of the difference set in the coset g_bar - g_bar',
scaled by S^(3/2)/D.  Route two starts from a simplicial RDS, where each
off-diagonal entry is the single root of unity gamma(a) picked out by the
transversal.  Both carry exact first columns; verification decides the zero
diagonal, unimodularity and C*C = S I exactly and cross-checks them in
doubles.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .cyclotomic import Cyclotomic, _reduce, _terms
from .designs import GroupSubset
from .groups import Character, Subgroup, VerdictDisagreement
from .matrices import ComplexMatrix, ExactForm, _exact_terms, _matrix, _pairs


@dataclass(frozen=True)
class CirculantConference:
    """Circulant matrix over G/H stored by its first column."""

    subgroup: Subgroup
    coset_reps: tuple
    first_column: tuple[Cyclotomic, ...]
    scale_sq: Fraction
    s: int

    @property
    def size(self) -> int:
        return len(self.coset_reps)

    def column_complex(self) -> np.ndarray:
        scale = math.sqrt(float(self.scale_sq))
        return np.array([complex(c) * scale for c in self.first_column])

    @cached_property
    def _difference_index(self) -> np.ndarray:
        """(n, n) positions in the first column of the cosets g_i - g_j,
        from the coset index of one sum per pair of representatives."""
        G, index = self.subgroup.group, self.subgroup._coset_index[1]
        rows = G._residues(self.coset_reps)
        column = np.argsort(index[rows @ G.strides])  # at each coset index, its place in coset_reps
        return column[index[G._sum_indices(rows, -rows % G.cyclic_orders)]]

    def materialize(self) -> ComplexMatrix:
        """Full matrix with entry (g_bar, g_bar') = first_column(g_bar - g_bar')."""
        n = self.size
        modulus, den, value, exp, num, roots = _exact_terms(self.first_column)
        cell, t = _pairs(self._difference_index.ravel(), np.bincount(value, minlength=n))
        exact = ExactForm(self.scale_sq, (n, n), modulus, den, cell, exp[t], num[t])
        return _matrix(self.coset_reps, self.coset_reps, exact, roots[t])


@dataclass(frozen=True)
class ConferenceReport:
    size: int
    s: int
    passed: bool
    zero_diagonal_residual: float
    unimodularity_residual: float
    product_residual: float
    circulant_residual: float
    exact_zero_diagonal: bool | None = None
    exact_unimodular: bool | None = None
    exact_autocorrelation: bool | None = None

    def as_dict(self) -> dict:
        return {"check": "conference", **asdict(self)}


def conference_from_amalgam(D: GroupSubset, H: Subgroup, gamma: Character) -> CirculantConference:
    """First column y(g_bar) = (S^(3/2)/D) sum_{d in D, d_bar = g_bar} gamma(d).

    Valid whenever D is an amalgam for H; on other inputs the object is still
    built and verification reports the failure.
    """
    reps, column, s = _coset_sums(D, H, gamma)
    return CirculantConference(H, reps, column, Fraction(s**3, D.size**2), s)


def conference_from_srds(A: GroupSubset, H: Subgroup, gamma: Character) -> CirculantConference:
    """First column y(g_bar) = sum over the (single, for a transversal)
    a in A with a_bar = g_bar of gamma(a); unit scale."""
    reps, column, s = _coset_sums(A, H, gamma)
    return CirculantConference(H, reps, column, Fraction(1), s)


def _coset_sums(X: GroupSubset, H: Subgroup, gamma: Character) -> tuple[tuple, tuple, int]:
    """(coset representatives, exact sum of gamma over X in each coset, S):
    the unscaled first column both conference routes share, built in one
    pass as (coset, gamma-exponent) counts."""
    if X.group != H.group:
        raise ValueError("subset and subgroup must share a group")
    G = X.group
    if H.order == G.order:
        raise ValueError("H must be a proper subgroup")
    G._residues([gamma])  # raises on a character outside the group
    if H.annihilator().contains(gamma):
        raise ValueError("gamma lies in the annihilator of H; no conference matrix")
    first, index = H._coset_index
    counts: list = [{} for _ in first]
    for c, e in zip(index[X._rows @ G.strides].tolist(), G._pair_exponents([gamma], X.elements)[0].tolist()):
        row = counts[c]
        row[e] = row.get(e, 0) + 1
    column = tuple(Cyclotomic(G.exponent, row) for row in counts)
    return tuple(G._elements_at(first)), column, G.order // H.order - 1


def verify_conference(C: CirculantConference, tol: float = 1e-9) -> ConferenceReport:
    """Zero diagonal, unimodular off-diagonal and C*C = S I, decided exactly;
    the double-precision residuals (and the circulant structure) must agree,
    else VerdictDisagreement."""
    col = C.column_complex()
    n = C.size
    diff = C._difference_index
    zero_idx = int(diff[0, 0])
    zero_res = abs(col[zero_idx])
    off = np.delete(col, zero_idx)
    uni_res = float(np.max(np.abs(np.abs(off) - 1.0))) if off.size else 0.0

    full = C.materialize()
    prod = full.values.conj().T @ full.values
    prod_res = float(np.max(np.abs(prod - C.s * np.eye(n))))

    # the materialized matrix is circulant by construction; re-derive the
    # residual from the definition as a guard
    circ_res = float(np.max(np.abs(full.values - col[diff])))

    exact_zero = C.first_column[zero_idx].is_zero()
    exact_uni, exact_auto = _exact_flags(C, diff)
    passed = exact_zero and exact_uni and exact_auto
    numeric = bool(
        zero_res <= tol
        and uni_res <= tol
        and prod_res <= tol * max(1.0, C.s)
        and circ_res <= tol
    )
    if numeric != passed:
        raise VerdictDisagreement("float conference verdict disagrees with the exact checks")
    return ConferenceReport(
        n, C.s, passed, float(zero_res), uni_res, prod_res, circ_res,
        exact_zero_diagonal=exact_zero,
        exact_unimodular=exact_uni,
        exact_autocorrelation=exact_auto,
    )


def _exact_flags(C: CirculantConference, diff: np.ndarray) -> tuple[bool, bool]:
    """Unimodularity and conj(y) star y = S delta_0, exactly, in one
    batched zero test.

    With y_a = sum_t num_t w^e_t / den over the terms t of cell a, each pair
    of terms (i in cell a, j in cell b) adds num_i num_j w^(e_j - e_i) to
    the autocorrelation at the coset of g_b - g_a and, when a = b, to
    |y_a|^2.  Scaled by p/q = scale_sq, the targets at w^0 are q den^2 for
    |y_a|^2 and S q den^2 at the zero coset.
    """
    n, zero_idx = C.size, int(diff[0, 0])
    modulus, den, cell, exp, num = _terms(C.first_column)
    p, unit = C.scale_sq.numerator, C.scale_sq.denominator * den * den
    if int(np.abs(num).max(initial=0)) ** 2 * p + C.s * unit < 2**62:
        num = num.astype(np.int64)
    i, j = (a.ravel() for a in np.indices((len(exp), len(exp))))
    same = cell[i] == cell[j]
    pair_exp, pair_weight = exp[j] - exp[i], num[i] * num[j] * p
    # rows: |y_a|^2 at a < n, the autocorrelation at n + delta
    rows = [cell[i][same], np.arange(n), n + diff[cell[j], cell[i]], [n + zero_idx]]
    exps = [pair_exp[same], np.zeros(n, dtype=np.int64), pair_exp, [0]]
    weights = [pair_weight[same], np.full(n, -unit, dtype=num.dtype), pair_weight,
               np.array([-C.s * unit], dtype=num.dtype)]
    _, rem = _reduce(modulus, 2 * n, np.concatenate(rows), np.concatenate(exps),
                     np.concatenate(weights))
    ok = (rem == 0).all(axis=1)
    return bool(np.delete(ok[:n], zero_idx).all()), bool(ok[n:].all())


@dataclass(frozen=True)
class ScalarRelationReport:
    passed: bool
    z: complex
    abs_z_residual: float
    constancy_residual: float
    formula_residual: float

    def as_dict(self) -> dict:
        return {
            "check": "scalar-relation",
            "passed": self.passed,
            "z": {"re": self.z.real, "im": self.z.imag},
            "abs_z_residual": self.abs_z_residual,
            "constancy_residual": self.constancy_residual,
            "formula_residual": self.formula_residual,
        }


def scalar_relation_check(
    D: GroupSubset,
    H: Subgroup,
    A: GroupSubset,
    B: GroupSubset,
    gamma: Character,
    tol: float = 1e-9,
) -> ScalarRelationReport:
    """The amalgam-route matrix must be z times the RDS-route matrix with
    |z| = 1 and z = (S^(3/2)/D) * DFT(chi_B)(gamma^{-1})."""
    G = D.group
    c_amalgam = conference_from_amalgam(D, H, gamma)
    c_srds = conference_from_srds(A, H, gamma)
    col_a = c_amalgam.column_complex()
    col_s = c_srds.column_complex()
    zero_idx = int(c_amalgam._difference_index[0, 0])
    ratios = [
        col_a[k] / col_s[k] for k in range(len(col_a)) if k != zero_idx
    ]
    z = ratios[0]
    constancy = max(abs(r - z) for r in ratios)
    s = c_amalgam.s
    # z = (S^(3/2)/D) * sum_b gamma(b)
    formula = (
        s**1.5
        / D.size
        * sum(complex(G.char_value(gamma, b)) for b in B.elements)
    )
    report = ScalarRelationReport(
        passed=(abs(abs(z) - 1) <= tol and constancy <= tol and abs(z - formula) <= tol),
        z=complex(z),
        abs_z_residual=float(abs(abs(z) - 1)),
        constancy_residual=float(constancy),
        formula_residual=float(abs(z - formula)),
    )
    return report
