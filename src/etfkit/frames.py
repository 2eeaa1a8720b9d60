"""Harmonic frames, per-coset simplices, sparse isometries, fusion checks.

Builds the synthesis operator of the harmonic frame of a group subset, the
canonical regular simplex on the nonidentity cosets, the per-coset blocks
Phi_gamma, and the sparse isometries E_gamma with Phi_gamma = E_gamma Psi.
Verification covers tightness, coherence against the Welch bound, principal
angles / chordal / spectral distances of the coset subspaces, triple products
of cross-Grams, and mutually unbiased simplices from simplicial RDSs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .designs import GroupSubset, certify_rds
from .groups import AbelianGroup, Character, IntVector, Subgroup, VerdictDisagreement, dft_numeric
from .matrices import ComplexMatrix, _from_exponents
from .classify import is_amalgam


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
    ann = H.annihilator()
    rows = D.ordered
    exp = G._pair_exponents([gamma, *ann.elements], rows)
    return _from_exponents(rows, ann.elements, Fraction(1, D.size), G.exponent,
                           (exp[1:] + exp[0]).T)


def _fineness_guard(D: GroupSubset, H: Subgroup) -> int:
    G = D.group
    if G.order % H.order:
        raise ValueError("H does not divide the group order")
    s = G.order // H.order - 1
    if s <= 0 or D.size % s:
        raise ValueError("subset is not fine for H: S does not divide |D|")
    per = D.size // s
    dset = set(D.elements)
    if dset & set(H.elements):
        raise ValueError("subset is not fine for H: it meets H")
    counts: dict = {}
    for d in D.elements:
        counts[H.coset_rep[d]] = counts.get(H.coset_rep[d], 0) + 1
    if any(c != per for c in counts.values()) or len(counts) != s:
        raise ValueError("subset is not fine for H: uneven coset slices")
    return s


def e_gamma(D: GroupSubset, H: Subgroup, gamma: Character) -> ComplexMatrix:
    """Sparse isometry with E(d, g_bar) = sqrt(S/D) gamma(d) iff d lies in the
    coset g_bar; columns indexed by nonidentity cosets of H."""
    s = _fineness_guard(D, H)
    G = D.group
    reps = [g for g, _ in H.cosets if not H.contains(g)]
    column = {g: k for k, g in enumerate(reps)}
    rows = D.ordered
    cell = [i * len(reps) + column[H.coset_rep[d]] for i, d in enumerate(rows)]
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


def ectff_check(D: GroupSubset, H: Subgroup, tol: float = 1e-9) -> FusionReport:
    """Equi-chordal check: ||E_g* E_g'||_F^2 = 1 for all distinct coset pairs."""
    es = coset_isometries(D, H)
    reps = list(es)
    s = D.group.order // H.order - 1
    worst, pairs = 0.0, 0
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            cg = es[reps[i]].values.conj().T @ es[reps[j]].values
            worst = max(worst, abs(np.sum(np.abs(cg) ** 2) - 1.0))
            pairs += 1
    return FusionReport("ectff", bool(worst <= tol), len(reps), s, pairs, float(worst))


def eitff_check(D: GroupSubset, H: Subgroup, tol: float = 1e-9) -> FusionReport:
    """Equi-isoclinic check: every cross-Gram singular value is 1/sqrt(S).

    The spectral verdict must agree with the exact combinatorial amalgam
    certification; disagreement raises.
    """
    es = coset_isometries(D, H)
    reps = list(es)
    s = D.group.order // H.order - 1
    target = 1.0 / math.sqrt(s)
    worst, pairs = 0.0, 0
    angle_log = []
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            report = principal_angles(es[reps[i]], es[reps[j]], tol=tol)
            worst = max(worst, max(abs(x - target) for x in report.singular_values))
            pairs += 1
            if len(reps) <= 12:
                angle_log.append((reps[i], reps[j], report.principal_angles))
    passed = bool(worst <= tol)
    combinatorial = is_amalgam(D, H)
    if passed != combinatorial:
        raise VerdictDisagreement(
            "spectral EITFF verdict disagrees with the amalgam certification"
        )
    return FusionReport(
        "eitff", passed, len(reps), s, pairs, float(worst),
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
        return {
            "check": "triple-product",
            "passed": self.passed,
            "triples_checked": self.triples_checked,
            "max_residual": self.max_residual,
            "max_offcoset_modulus_residual": self.max_offcoset_modulus_residual,
            "exhaustive": self.exhaustive,
        }


def triple_product_check(
    D: GroupSubset,
    H: Subgroup,
    A: GroupSubset,
    B: GroupSubset,
    tol: float = 1e-9,
    seed: int | None = None,
    max_triples: int = 500,
) -> TripleProductReport:
    """For triples of distinct coset isometries, E1*E2 E2*E3 E3*E1 must be
    c I with c the product of the three zeta inner products; zeta_g(b) =
    sqrt(S/D) g(b) on B.  Fails (reported, not raised) off composite inputs.
    """
    G = D.group
    s = G.order // H.order - 1
    es = coset_isometries(D, H)
    reps = list(es)
    if len(reps) < 3:
        raise ValueError("triple products need at least three cosets")

    def zeta_ip(g1: Character, g2: Character) -> complex:
        tot = sum(
            complex(G.char_value(g1, b).conjugate() * G.char_value(g2, b))
            for b in B.elements
        )
        return s / D.size * tot

    all_triples = [
        (a, b, c)
        for a in reps
        for b in reps
        for c in reps
        if len({a, b, c}) == 3
    ]
    exhaustive = len(all_triples) <= max_triples
    if not exhaustive:
        rng = random.Random(seed)
        all_triples = rng.sample(all_triples, max_triples)

    worst = 0.0
    for g1, g2, g3 in all_triples:
        m = (
            (es[g1].values.conj().T @ es[g2].values)
            @ (es[g2].values.conj().T @ es[g3].values)
            @ (es[g3].values.conj().T @ es[g1].values)
        )
        c = zeta_ip(g1, g2) * zeta_ip(g2, g3) * zeta_ip(g3, g1)
        worst = max(worst, float(np.max(np.abs(m - c * np.eye(s)))))

    mod_worst = 0.0
    for g1 in reps:
        for g2 in reps:
            want = 1.0 if g1 == g2 else 1.0 / math.sqrt(s)
            mod_worst = max(mod_worst, abs(abs(zeta_ip(g1, g2)) - want))

    return TripleProductReport(
        bool(worst <= tol and mod_worst <= tol),
        len(all_triples),
        float(worst),
        float(mod_worst),
        exhaustive,
    )


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
        return {
            "check": "unbiased-simplices",
            "passed": self.passed,
            "num_simplices": self.num_simplices,
            "simplex_size": self.simplex_size,
            "max_sum_residual": self.max_sum_residual,
            "max_incoset_residual": self.max_incoset_residual,
            "max_crosscoset_residual": self.max_crosscoset_residual,
            "agrees_with_rds": self.agrees_with_rds,
        }


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
