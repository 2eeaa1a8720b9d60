"""Harmonic frames, per-coset simplices, sparse isometries, fusion checks.

Builds the synthesis operator of the harmonic frame of a group subset, the
canonical regular simplex on the nonidentity cosets, the per-coset blocks
Phi_gamma, and the sparse isometries E_gamma with Phi_gamma = E_gamma Psi.
Verification covers tightness, coherence against the Welch bound, principal
angles / chordal / spectral distances of the coset subspaces, triple products
of cross-Grams, and mutually unbiased simplices from simplicial RDSs.  The
fusion checks read one table, the Fourier transforms of the coset slices of
D over H, and decide their verdicts by exact integer tests.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .classify import _SliceTable
from .designs import GroupSubset, certify_rds
from .groups import AbelianGroup, Character, IntVector, Subgroup, VerdictDisagreement, dft_numeric
from .matrices import ComplexMatrix, _from_exponents


def welch_bound(dim: int, count: int) -> float:
    """Lower bound sqrt((N-D)/(D(N-1))) on the coherence of N unit vectors."""
    if count < 2:
        raise ValueError("the Welch bound needs at least two vectors")
    return math.sqrt((count - dim) / (dim * (count - 1)))


def harmonic_synthesis(D: GroupSubset) -> ComplexMatrix:
    """Synthesis operator (d, chi) -> chi(d)/sqrt(|D|), rows in display order."""
    if D.size == 0:
        raise ValueError("the subset must be nonempty")
    G = D.group
    rows = D.ordered
    exp = G._pair_exponents(G.characters, rows).T
    return _from_exponents(rows, G.characters, Fraction(1, D.size), G.exponent, exp)


def gram(M: ComplexMatrix) -> ComplexMatrix:
    return M.adjoint() @ M


def coherence(M: ComplexMatrix) -> float:
    """max |<col_i, col_j>| / (|col_i| |col_j|) over distinct columns."""
    if len(M.col_labels) < 2:
        raise ValueError("coherence needs at least two columns")
    g = M.values.conj().T @ M.values
    norms = np.sqrt(np.abs(np.diag(g)))
    if np.any(norms == 0):
        raise ValueError("coherence is undefined with a zero column")
    scaled = np.abs(g) / np.outer(norms, norms)
    np.fill_diagonal(scaled, 0.0)
    return float(scaled.max())


def check_tight(M: ComplexMatrix, tol: float = 1e-9) -> float | None:
    """Frame constant C with M M* = C I, or None if not tight."""
    frame_op = M.values @ M.values.conj().T
    c = float(np.trace(frame_op).real) / len(M.row_labels)
    residual = np.max(np.abs(frame_op - c * np.eye(len(M.row_labels))))
    return c if residual <= tol * max(1.0, abs(c)) else None


def simplex_psi(group: AbelianGroup, H: Subgroup) -> ComplexMatrix:
    """Synthesis of the regular S-simplex on the nonidentity cosets of H:
    Psi(g_bar, chi) = chi(g)/sqrt(S) for chi in the annihilator of H."""
    if H.group != group:
        raise ValueError("H must be a subgroup of the given group")
    ann = H.annihilator()
    reps = [g for g, _ in H.cosets if not H.contains(g)]
    s = len(reps)
    if s == 0:
        raise ValueError("H must be a proper subgroup")
    # well-definedness: annihilator characters are constant on cosets,
    # i.e. trivial on H itself
    if group._pair_exponents(ann.elements, H.elements).any():
        raise AssertionError("annihilator character varies on a coset")
    exp = group._pair_exponents(ann.elements, reps).T
    return _from_exponents(reps, ann.elements, Fraction(1, s), group.exponent, exp)


def phi_gamma(D: GroupSubset, H: Subgroup, gamma: Character) -> ComplexMatrix:
    """Columns of the harmonic frame indexed by the coset gamma*annihilator,
    re-indexed by the annihilator itself."""
    G = D.group
    G._residues([gamma])  # raises on a character outside the group
    ann = H.annihilator()
    rows = D.ordered
    exp = G._pair_exponents([gamma, *ann.elements], rows)
    return _from_exponents(rows, ann.elements, Fraction(1, D.size), G.exponent,
                           (exp[1:] + exp[0]).T)


def e_gamma(D: GroupSubset, H: Subgroup, gamma: Character) -> ComplexMatrix:
    """Sparse isometry with E(d, g_bar) = sqrt(S/D) gamma(d) iff d lies in the
    coset g_bar; columns indexed by nonidentity cosets of H."""
    t = _SliceTable(D, H).require_fine()
    G, s, reps = D.group, t.s, t.reps[1:]
    G._residues([gamma])  # raises on a character outside the group
    rows = D.ordered
    # D misses H, the coset of index 0, so d's coset is column index - 1
    cell = np.arange(len(rows)) * len(reps) + H._coset_index[1][G.indices(rows)] - 1
    exp = G._pair_exponents([gamma], rows)
    return _from_exponents(rows, reps, Fraction(s, D.size), G.exponent, exp, cell)


def cross_gram(E1: ComplexMatrix, E2: ComplexMatrix, check_diagonal: bool = False) -> ComplexMatrix:
    """E1* E2.  With ``check_diagonal`` the off-diagonal part is asserted to
    vanish (exactly when exact forms are present, else within 1e-12)."""
    if E1.row_labels != E2.row_labels:
        raise ValueError("cross-Gram requires matching row labels")
    out = E1.adjoint() @ E2
    if check_diagonal:
        if out.exact is not None:
            if not out.is_exactly_diagonal():
                raise AssertionError("cross-Gram is not diagonal")
        else:
            off = out.values - np.diag(np.diag(out.values))
            if np.max(np.abs(off)) > 1e-12:
                raise AssertionError("cross-Gram is not diagonal")
    return out


@dataclass(frozen=True)
class AngleReport:
    singular_values: tuple[float, ...]  # decreasing
    principal_angles: tuple[float, ...]  # radians, increasing
    chordal_sq: float
    spectral_sq: float

    def as_dict(self) -> dict:
        return {
            "singular_values": list(self.singular_values),
            "principal_angles": list(self.principal_angles),
            "chordal_sq": self.chordal_sq,
            "spectral_sq": self.spectral_sq,
        }


def principal_angles(E1: ComplexMatrix, E2: ComplexMatrix, tol: float = 1e-9) -> AngleReport:
    """Angles between the column spaces of two isometries, from the singular
    values of the cross-Gram."""
    for E in (E1, E2):
        n = len(E.col_labels)
        if np.max(np.abs(E.values.conj().T @ E.values - np.eye(n))) > tol:
            raise ValueError("principal angles require isometry inputs")
    sigma = np.linalg.svd(E1.values.conj().T @ E2.values, compute_uv=False)
    if sigma.size and sigma.max() > 1 + 1e-9:
        raise AssertionError("singular value exceeds 1 beyond tolerance")
    sigma = np.clip(sigma, 0.0, 1.0)
    angles = np.arccos(sigma)  # increasing, since sigma is decreasing
    return AngleReport(
        tuple(float(x) for x in sigma),
        tuple(float(a) for a in angles),
        float(np.sum(np.sin(angles) ** 2)),
        float(np.sin(angles[0]) ** 2) if angles.size else 0.0,
    )


# ---------------------------------------------------------------------------
# fusion-frame level checks


@dataclass(frozen=True)
class FusionReport:
    kind: str
    passed: bool
    num_subspaces: int
    subspace_dim: int
    pairs_checked: int
    max_residual: float
    sigma_target: float | None = None
    pair_angles: tuple | None = None
    agrees_with_amalgam: bool | None = None

    def as_dict(self) -> dict:
        out = {
            "check": self.kind,
            "passed": self.passed,
            "num_subspaces": self.num_subspaces,
            "subspace_dim": self.subspace_dim,
            "pairs_checked": self.pairs_checked,
            "max_residual": self.max_residual,
        }
        if self.sigma_target is not None:
            out["sigma_target"] = self.sigma_target
        if self.pair_angles is not None:
            out["pair_angles"] = [
                {"pair": [",".join(map(str, a)), ",".join(map(str, b))], "angles": list(aa)}
                for a, b, aa in self.pair_angles
            ]
        if self.agrees_with_amalgam is not None:
            out["agrees_with_amalgam"] = self.agrees_with_amalgam
        return out


def coset_isometries(D: GroupSubset, H: Subgroup) -> dict[Character, ComplexMatrix]:
    """One isometry per coset of the annihilator, keyed by the lex-minimal
    representative character."""
    return {g: e_gamma(D, H, g) for g, _ in H.annihilator().cosets}


def _off_lines(delta: np.ndarray, h_add: np.ndarray) -> np.ndarray:
    """n^2 times the part of delta whose Fourier transform on H lies off the
    lines eta1 = 0, eta2 = 0 and eta1 + eta2 = 0, which meet only at 0."""
    n = len(delta)
    diagonal = np.take_along_axis(delta, h_add, axis=1).sum(axis=0)  # at u: sum of delta(z, z + u)
    minus = h_add[np.argmax(h_add == 0, axis=1)]  # position of h2 - h1
    lines = delta.sum(axis=0) + delta.sum(axis=1)[:, None] + diagonal[minus]
    return n * (n * delta - lines) + 2 * delta.sum()


def ectff_check(D: GroupSubset, H: Subgroup, tol: float = 1e-9) -> FusionReport:
    """Equi-chordal check: ||E_g* E_g'||_F^2 = 1 for all distinct coset pairs.

    The norm is (S/|D|)^2 sum_a |F_a(eta)|^2, the Fourier transform on H of
    the within-slice difference counts c; so it is 1 at every eta != 0
    exactly when c is a constant c1 off 0 and S^2 (|D| - c1) = |D|^2.  That
    decides; the float norms cross-check, and disagreement raises.
    """
    t = _SliceTable(D, H).require_fine()
    n = H.order
    c = t.counts.sum(axis=0)
    passed = n == 1 or bool((c[1:] == c[1]).all() and t.s**2 * (D.size - c[1]) == D.size**2)
    norms = (t.s / D.size) ** 2 * (np.abs(t.spectrum[1:, 1:]) ** 2).sum(axis=0)
    worst = float(np.abs(norms - 1.0).max(initial=0.0))
    if passed != (worst <= tol):
        raise VerdictDisagreement("chordal ECTFF residual disagrees with the slice difference counts")
    return FusionReport("ectff", passed, n, t.s, n * (n - 1) // 2, worst)


def eitff_check(D: GroupSubset, H: Subgroup, tol: float = 1e-9) -> FusionReport:
    """Equi-isoclinic check: every cross-Gram singular value is 1/sqrt(S).

    The exact amalgam certification decides; the singular values (S/|D|)
    |F_a(eta)| cross-check it, and disagreement raises.
    """
    t = _SliceTable(D, H).require_fine()
    n = H.order
    target = 1.0 / math.sqrt(t.s)
    sigma = t.s / D.size * np.abs(t.spectrum[1:])
    worst = float(np.abs(sigma[:, 1:] - target).max(initial=0.0))
    passed = t.amalgam
    if passed != (worst <= tol):
        raise VerdictDisagreement(
            "spectral EITFF verdict disagrees with the amalgam certification"
        )
    angle_log = []
    if n <= 12:
        neg = np.argmax(t.eta_add == 0, axis=1)
        for i in range(n):
            for j in range(i + 1, n):
                descending = np.sort(sigma[:, t.eta_add[j, neg[i]]])[::-1]
                angle_log.append((t.labels[i], t.labels[j],
                                  tuple(np.arccos(np.clip(descending, 0.0, 1.0)).tolist())))
    return FusionReport(
        "eitff", passed, n, t.s, n * (n - 1) // 2, worst,
        sigma_target=target,
        pair_angles=tuple(angle_log) if angle_log else None,
        agrees_with_amalgam=True,
    )


@dataclass(frozen=True)
class TripleProductReport:
    passed: bool
    triples_checked: int
    max_residual: float
    max_offcoset_modulus_residual: float
    exhaustive: bool

    def as_dict(self) -> dict:
        return {"check": "triple-product", **asdict(self)}


def triple_product_check(
    D: GroupSubset,
    H: Subgroup,
    A: GroupSubset,
    B: GroupSubset,
    tol: float = 1e-9,
    seed: int | None = None,
    max_triples: int = 500,
) -> TripleProductReport:
    """For every triple of distinct coset isometries, E1*E2 E2*E3 E3*E1 must
    be c I with c the product of the three zeta inner products; zeta_g(b) =
    sqrt(S/D) g(b) on B, which must lie in one coset of H.  Their moduli
    must be 1 for equal characters and 1/sqrt(S) else.  Fails (reported,
    not raised) off composite inputs.  ``A``, ``seed`` and ``max_triples``
    have no effect, since every triple is checked; they are kept so that
    existing calls keep working (API stability).

    Entry a of the product is (S/|D|)^3 F_a(eta1) F_a(eta2) F_a(-eta1 -
    eta2), the 2-D Fourier transform of the triple correlation T(h1, h2) =
    #{z in Y_a : z + h1, z + h2 in Y_a}, and c is the same for B.  So the
    identity holds exactly when T_a - T_B has no Fourier mass off the lines
    eta1 = 0, eta2 = 0, eta1 + eta2 = 0; the moduli hold exactly when
    S |B| = |D| and B is a difference set for H with Lambda = |B| -
    |D|^2/S^3.  These integer tests decide; the float residuals
    cross-check, and disagreement raises.
    """
    t = _SliceTable(D, H).require_fine()
    n = H.order
    if n < 3:
        raise ValueError("triple products need at least three cosets")
    slices_b = _SliceTable(B, H)
    if np.count_nonzero(slices_b.sizes) > 1:
        raise ValueError("B must lie in one coset of H")
    row_b = int(np.argmax(slices_b.sizes))
    y_b = slices_b.hits[row_b].astype(np.int64)
    f_b = slices_b.spectrum[row_b]
    third = np.argmax(t.eta_add == 0, axis=1)[t.eta_add]  # index of -eta1 - eta2
    off = third != 0
    off[0, :] = off[:, 0] = False

    def correlation(y):  # T(h1, h2)
        shifted = y[t.h_add[y.astype(bool)]]  # row z in Y: whether z + h is in Y
        return shifted.T @ shifted

    def products(f):
        return f[:, None] * f[None, :] * f[third]

    worst, triples_hold, p_b, t_b = 0.0, True, products(f_b), correlation(y_b)
    for y, f in zip(t.hits[1:].astype(np.int64), t.spectrum[1:]):
        worst = max(worst, float(np.abs(products(f) - p_b)[off].max()))
        triples_hold = triples_hold and not _off_lines(correlation(y) - t_b, t.h_add).any()
    worst *= (t.s / D.size) ** 3
    moduli_hold = slices_b.amalgam_slices([row_b], D.size)
    want = np.where(np.arange(n) == 0, 1.0, 1.0 / math.sqrt(t.s))
    mod_worst = float(np.abs(t.s / D.size * np.abs(f_b) - want).max())
    passed = triples_hold and moduli_hold
    if passed != (worst <= tol and mod_worst <= tol):
        raise VerdictDisagreement("triple-product residuals disagree with the triple correlations")
    return TripleProductReport(passed, n * (n - 1) * (n - 2), worst, mod_worst, True)


@dataclass(frozen=True)
class UnbiasedReport:
    passed: bool
    num_simplices: int
    simplex_size: int
    max_sum_residual: float
    max_incoset_residual: float
    max_crosscoset_residual: float
    agrees_with_rds: bool

    def as_dict(self) -> dict:
        return {"check": "unbiased-simplices", **asdict(self)}


def unbiased_simplices_check(A: GroupSubset, H: Subgroup, tol: float = 1e-9) -> UnbiasedReport:
    """Whether xi_gamma(a) = gamma(a)/sqrt(S) splits into regular simplices
    per annihilator coset, summing to zero, pairwise inner products of
    modulus 1/S within a coset and 1/sqrt(S) across cosets.

    Must agree with the simplicial-RDS certification of (A, H); the
    equivalence is asserted in both directions.
    """
    G = A.group
    s = G.order // H.order - 1
    if A.size != s:
        raise ValueError(f"A must have S = {s} elements, got {A.size}")
    ann = H.annihilator()
    in_ann = np.zeros(G.order, dtype=bool)
    in_ann[G.indices(ann.elements)] = True
    # <xi_c1, xi_c2> = sum_a conj(c1(a)) c2(a) / S depends on c2 - c1 alone: its
    # modulus is |DFT(chi_A)(c2 - c1)| / S, one FFT for every pair of characters
    inner = np.abs(dft_numeric(A.indicator())) / s
    res = np.abs(inner - np.where(in_ann, 1.0 / s, 1.0 / math.sqrt(s)))
    in_res = float(res[in_ann][1:].max(initial=0.0))  # [0] is c2 - c1 = 0, no pair
    cross_res = float(res[~in_ann].max(initial=0.0))
    # the sum of xi_c(a) over a coset gamma + ann is gamma(a) times the sum
    # over ann itself, so every coset's sum has the modulus read off here
    ann_sums = np.abs(dft_numeric(IntVector.indicator(G, ann.elements)))
    sum_res = float(ann_sums[G.indices(A.elements)].max()) / math.sqrt(s)

    geometric = bool(max(sum_res, in_res, cross_res) <= tol)
    params = certify_rds(A, H)
    simplicial = params is not None and not (set(A.elements) & set(H.elements))
    if geometric != simplicial:
        raise VerdictDisagreement(
            "mutually-unbiased-simplices geometry disagrees with RDS certification"
        )
    return UnbiasedReport(
        geometric,
        H.order,
        s + 1,
        float(sum_res),
        float(in_res),
        float(cross_res),
        agrees_with_rds=True,
    )
