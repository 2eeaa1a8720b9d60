"""Exact arithmetic with roots of unity and their rational combinations.

Character values are exact roots of unity ``w_L^e`` (integer exponent mod L);
Fourier-side identities are sums of such roots with rational coefficients,
i.e. elements of the cyclotomic field Q(zeta_L).  Zero-testing reduces the
integer coefficients modulo the m-th cyclotomic polynomial, m the smallest
modulus carrying the exponents, so equalities like ``w^5 + w^10 = -1``
(L = 15) are decided exactly, with no floats.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, isqrt, lcm, prod

import numpy as np

from .fields import prime_factors


def _mobius_product(n: int, sign: int, deg: int) -> list[int]:
    """Coefficients up to x^deg of prod over d | n, d < n, of
    (1 - x^d)^(sign * mu(n/d)), as a power series."""
    out = [1] + [0] * deg
    primes = prime_factors(n)
    for k in range(1, len(primes) + 1):
        for ps in combinations(primes, k):
            d = n // prod(ps)
            if (-1) ** k * sign > 0:  # times 1 - x^d
                for i in range(deg, d - 1, -1):
                    out[i] -= out[i - d]
            else:  # divided by 1 - x^d
                for i in range(d, deg + 1):
                    out[i] += out[i - d]
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree:
    prod over d | n of (1 - x^d)^mu(n/d) for n > 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return (-1, 1)
    primes = prime_factors(n)
    return tuple(_mobius_product(n, 1, n // prod(primes) * prod(p - 1 for p in primes)))


@lru_cache(maxsize=None)
def _complex_roots(modulus: int) -> tuple[complex, ...]:
    return tuple(_root_array(modulus).tolist())


@lru_cache(maxsize=None)
def _root_array(modulus: int) -> np.ndarray:
    """exp(2 pi i e / modulus) for e < modulus, as a read-only complex array."""
    out = np.fromiter((cmath.exp(2j * cmath.pi * e / modulus) for e in range(modulus)), complex, modulus)
    out.flags.writeable = False
    return out


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class RootOfUnity:
    """Exact root of unity exp(2*pi*i*exponent/modulus)."""

    exponent: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        object.__setattr__(self, "exponent", self.exponent % self.modulus)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        if self.modulus != other.modulus:
            m = self.modulus * other.modulus // gcd(self.modulus, other.modulus)
            return self.rescale(m) * other.rescale(m)
        return RootOfUnity(self.exponent + other.exponent, self.modulus)

    def conjugate(self) -> "RootOfUnity":
        return RootOfUnity(-self.exponent, self.modulus)

    def rescale(self, new_modulus: int) -> "RootOfUnity":
        if new_modulus % self.modulus:
            raise ValueError("new modulus must be a multiple of the old one")
        return RootOfUnity(self.exponent * (new_modulus // self.modulus), new_modulus)

    def is_one(self) -> bool:
        return self.exponent == 0

    def __complex__(self) -> complex:
        return _complex_roots(self.modulus)[self.exponent]

    def as_cyclotomic(self) -> "Cyclotomic":
        return Cyclotomic(self.modulus, {self.exponent: 1})


class Cyclotomic:
    """A finite sum ``sum_e c_e * w_L^e`` with rational coefficients c_e,
    held as integer numerators (sparse, by exponent) over one positive
    denominator."""

    __slots__ = ("modulus", "_num", "_den")

    def __init__(self, modulus: int, coeffs: dict[int, int | Fraction] | None = None):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        den = 1
        if coeffs and any(type(c) is not int for c in coeffs.values()):
            coeffs = {e: Fraction(c) for e, c in coeffs.items()}
            den = lcm(*(c.denominator for c in coeffs.values()))
            coeffs = {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}
        num: dict[int, int] = {}
        for e, c in (coeffs or {}).items():
            num[e % modulus] = num.get(e % modulus, 0) + c
        self.modulus, self._num, self._den = modulus, {e: n for e, n in num.items() if n}, den

    @classmethod
    def _make(cls, modulus: int, num: dict[int, int], den: int) -> "Cyclotomic":
        """From nonzero numerators of exponents already reduced mod ``modulus``."""
        out = object.__new__(cls)
        out.modulus, out._num, out._den = modulus, num, den
        return out

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return {e: Fraction(n, self._den) for e, n in self._num.items()}

    # -- constructors ------------------------------------------------
    @classmethod
    def zero(cls, modulus: int) -> "Cyclotomic":
        return cls(modulus)

    @classmethod
    def from_rational(cls, value, modulus: int) -> "Cyclotomic":
        return cls(modulus, {0: value})

    @classmethod
    def root(cls, exponent: int, modulus: int, coeff=1) -> "Cyclotomic":
        return cls(modulus, {exponent: coeff})

    @classmethod
    def _coerce(cls, value, modulus: int) -> "Cyclotomic":
        """Convert scalars and roots to Cyclotomic; existing instances keep
        their own modulus (alignment happens in ``_pair``)."""
        if isinstance(value, Cyclotomic):
            return value
        if isinstance(value, RootOfUnity):
            return value.as_cyclotomic()
        return cls.from_rational(value, modulus)

    # -- ring operations ----------------------------------------------
    def rescale(self, new_modulus: int) -> "Cyclotomic":
        if new_modulus % self.modulus:
            raise ValueError("new modulus must be a multiple of the old one")
        k = new_modulus // self.modulus
        return Cyclotomic._make(new_modulus, {e * k: n for e, n in self._num.items()}, self._den)

    def _pair(self, other) -> tuple["Cyclotomic", "Cyclotomic"]:
        other = Cyclotomic._coerce(other, self.modulus)
        if other.modulus == self.modulus:
            return self, other
        m = self.modulus * other.modulus // gcd(self.modulus, other.modulus)
        return self.rescale(m), other.rescale(m)

    def __add__(self, other) -> "Cyclotomic":
        a, b = self._pair(other)
        den = lcm(a._den, b._den)
        ka, kb = den // a._den, den // b._den
        out = {e: n * ka for e, n in a._num.items()}
        for e, n in b._num.items():
            out[e] = out.get(e, 0) + n * kb
        return Cyclotomic._make(a.modulus, {e: n for e, n in out.items() if n}, den)

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic._make(self.modulus, {e: -n for e, n in self._num.items()}, self._den)

    def __sub__(self, other) -> "Cyclotomic":
        return self + (-Cyclotomic._coerce(other, self.modulus))

    def __rsub__(self, other) -> "Cyclotomic":
        return (-self) + other

    def __mul__(self, other) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            num = {e: n * q.numerator for e, n in self._num.items()} if q else {}
            return Cyclotomic._make(self.modulus, num, self._den * q.denominator)
        a, b = self._pair(other)
        out: dict[int, int] = {}
        m = a.modulus
        for e1, n1 in a._num.items():
            for e2, n2 in b._num.items():
                e = (e1 + e2) % m
                out[e] = out.get(e, 0) + n1 * n2
        return Cyclotomic._make(m, {e: n for e, n in out.items() if n}, a._den * b._den)

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        m = self.modulus
        return Cyclotomic._make(m, {-e % m: n for e, n in self._num.items()}, self._den)

    def abs_squared(self) -> "Cyclotomic":
        return self * self.conjugate()

    # -- canonical form and predicates ----------------------------------
    def _remainder(self) -> tuple[int, np.ndarray]:
        """(m, numerators reduced mod Phi_m) at the smallest modulus m."""
        modulus, _, row, exp, num = _terms([self])
        m, rows = _reduce(modulus, 1, row, exp, num)
        return m, rows[0]

    def canonical(self) -> tuple[int, tuple[Fraction, ...]]:
        """(m, coefficients of the reduction mod Phi_m in the power basis)."""
        m, rem = self._remainder()
        return m, tuple(Fraction(c, self._den) for c in rem.tolist())

    def is_zero(self) -> bool:
        return not self._num or bool((self._remainder()[1] == 0).all())

    def as_rational(self) -> Fraction | None:
        _, rem = self._remainder()
        if (rem[1:] != 0).any():
            return None
        return Fraction(int(rem[0]), self._den)

    def single_root(self) -> tuple[Fraction, int, int] | None:
        """Decompose as ``q * w_modulus^e`` if possible: returns (q, e, modulus)."""
        n = len(self._num)
        return _single_roots(self.modulus, self._den, np.array([n]), np.fromiter(self._num, np.int64, n),
                             np.array(list(self._num.values()), dtype=object))[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Cyclotomic, RootOfUnity)):
            return (self - Cyclotomic._coerce(other, self.modulus)).is_zero()
        return NotImplemented

    def __complex__(self) -> complex:
        roots = _complex_roots(self.modulus)
        d = self._den
        return sum((complex(n / d) * roots[e] for e, n in self._num.items()), 0j)

    def __repr__(self) -> str:
        if not self._num:
            return f"Cyclotomic({self.modulus}, 0)"
        terms = " + ".join(f"{c}*w^{e}" for e, c in sorted(self.coeffs.items()))
        return f"Cyclotomic({self.modulus}, {terms})"


@lru_cache(maxsize=None)
def _division_plan(m: int) -> tuple[int, int, tuple[int, ...], int]:
    """(r, s, Phi_r, growth) for reducing mod Phi_m = Phi_r(x^s), r = rad(m).

    Long division by Phi_r subtracts r - deg quotient coefficients times
    Phi_r; those are coefficients of f * (x^r - 1) / Phi_r, so no value on
    the way exceeds ``growth`` times the L1 norm of f.
    """
    r = prod(prime_factors(m))
    phi = cyclotomic_polynomial(r)
    steps = r - len(phi) + 1
    psi = _mobius_product(r, -1, steps)
    return r, m // r, phi, 1 + steps * max(map(abs, psi)) * max(map(abs, phi))


def _reduce(modulus: int, nrows: int, row, exp, weight) -> tuple[int, np.ndarray]:
    """Rows ``sum weight[t] * w_modulus^exp[t]`` over the terms t with
    ``row[t] = i``, i < nrows, at the smallest modulus m carrying every
    exponent, reduced mod Phi_m: (m, integer remainders in the power basis).
    Every exact zero test is a check that a row's remainders are all zero.
    The work is in int64 when the L1 norm of ``weight`` times the
    ``_division_plan`` growth is below 2**62, else in Python integers.
    """
    exp = np.asarray(exp, dtype=np.int64) % modulus
    g = int(np.gcd.reduce(exp, initial=modulus))
    m = modulus // g
    r, s, phi, growth = _division_plan(m)
    k = len(phi) - 1
    norm = float(np.abs(weight).sum(dtype=np.float64))
    dtype = np.int64 if norm * growth < 2**62 else object
    rows = np.zeros((nrows, m), dtype=dtype)
    np.add.at(rows, (row, exp // g), np.asarray(weight).astype(dtype))
    # Phi_m(x) = Phi_r(y) with y = x^s: divide each column b of
    # x^(a s + b) -> rows[:, a, b] as a polynomial in y
    rows = rows.reshape(nrows, r, s)
    low = np.array(phi[:k], dtype=dtype)[:, None]
    for i in range(r - 1, k - 1, -1):
        rows[:, i - k:i] -= rows[:, i, None] * low
    return m, rows[:, :k].reshape(nrows, k * s)


# rows times modulus of one ``_reduce`` call in ``_rationals``
_REDUCE_CELLS = 1 << 22


def _rationals(modulus: int, den: int, nrows: int, row, exp, num) -> list[Fraction | None]:
    """Each row's ``sum num[t] / den * w_modulus^exp[t]`` over the terms t
    with ``row[t] = i`` as a Fraction, or None where it is irrational: it is
    rational exactly when its power-basis remainder is constant, whichever
    modulus ``_reduce`` picks.  One ``_reduce`` per chunk of rows."""
    out: list[Fraction | None] = []
    step = max(1, _REDUCE_CELLS // modulus)
    for lo in range(0, nrows, step):
        t = (row >= lo) & (row < lo + step)
        _, rem = _reduce(modulus, min(step, nrows - lo), row[t] - lo, exp[t], num[t])
        irrational = (rem[:, 1:] != 0).any(axis=1).tolist()
        out += [None if bad else Fraction(int(c), den) for c, bad in zip(rem[:, 0].tolist(), irrational)]
    return out


def _single_roots(modulus: int, den: int, count, exp, num) -> list[tuple[Fraction, int, int] | None]:
    """``single_root`` of each value i: the ``count[i]`` terms after those of
    the values before it, ``num[t] / den * w^exp[t]`` with w = exp(2 pi i /
    modulus), distinct exponents and nonzero numerators, in the order
    ``complex()`` of the value sums them.

    A value of no terms is zero and one of one term is its own form.  One
    of several terms is rational, or, unless it is below 1e-12 and has no
    phase to go by, the rational multiple that it equals of the root nearest
    its phase or, failing that, the opposite phase; else it has no form.
    The values of several terms take one batched rational test and one for
    both rotations, each a ``_rationals`` call."""
    count = np.asarray(count, dtype=np.int64)
    value = np.repeat(np.arange(len(count)), count)
    out: list = [(Fraction(0), 0, modulus) if c == 0 else None for c in count.tolist()]
    single = count[value] == 1
    for i, e, n in zip(value[single].tolist(), exp[single].tolist(), num[single].tolist()):
        out[i] = (Fraction(n, den), e, modulus)
    vals, row = np.unique(value[~single], return_inverse=True)
    exp, num = exp[~single], num[~single]
    z = np.zeros(len(vals), dtype=np.complex128)
    np.add.at(z, row, (num / den).astype(np.float64) * _root_array(modulus)[exp])
    guessed, shifts = [], []
    for k, (q, w) in enumerate(zip(_rationals(modulus, den, len(vals), row, exp, num), z.tolist())):
        if q is not None:
            out[vals[k]] = (q, 0, modulus)
        elif abs(w) >= 1e-12:  # numerically guided guesses, verified exactly
            guessed.append(k)
            shifts.append([round(cmath.phase(sign * w) * modulus / (2 * cmath.pi)) % modulus
                           for sign in (1, -1)])
    slot = np.full(len(vals), -1)
    slot[guessed] = np.arange(len(guessed))
    t = slot[row] >= 0
    j, shift = slot[row[t]], np.array(shifts, dtype=np.int64).reshape(-1, 2)
    rotated = _rationals(modulus, den, 2 * len(guessed), np.concatenate([2 * j, 2 * j + 1]),
                         np.concatenate([exp[t] - shift[j, 0], exp[t] - shift[j, 1]]) % modulus,
                         np.concatenate([num[t], num[t]]))
    for k, (e1, e2), q1, q2 in zip(guessed, shifts, rotated[::2], rotated[1::2]):
        if q1 is not None or q2 is not None:
            out[vals[k]] = (q1, e1, modulus) if q1 is not None else (q2, e2, modulus)
    return out


def _terms(values) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray]:
    """(modulus, den, value, exp, num): term t of the values at their common
    modulus and denominator is ``num[t] / den * w^exp[t]`` in ``values[value[t]]``."""
    modulus = lcm(*(v.modulus for v in values))
    den = lcm(*(v._den for v in values))
    value, exp, num = [], [], []
    for k, v in enumerate(values):
        scale, factor = modulus // v.modulus, den // v._den
        for e, n in v._num.items():
            value.append(k)
            exp.append(e * scale)
            num.append(n * factor)
    return (modulus, den, np.array(value, dtype=np.int64), np.array(exp, dtype=np.int64),
            np.array(num, dtype=object))
