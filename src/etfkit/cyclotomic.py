"""Exact arithmetic with roots of unity and their rational combinations.

Character values are exact roots of unity ``w_L^e`` (integer exponent mod L);
Fourier-side identities are sums of such roots with rational coefficients,
i.e. elements of the cyclotomic field Q(zeta_L).  Zero-testing reduces the
exponent representation modulo the L-th cyclotomic polynomial, so equalities
like ``w^5 + w^10 = -1`` (L = 15) are decided exactly, with no floats.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _polydiv_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den is monic, division is known to be exact (integer quotient)
    num = list(num)
    deg_d = len(den) - 1
    out = [0] * (len(num) - deg_d)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i]
        if c:
            out[i - deg_d] = c
            for k, dk in enumerate(den):
                num[i - deg_d + k] -= c * dk
    if any(num[:deg_d]):
        raise ArithmeticError("polynomial division was not exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in divisors(n):
        if d < n:
            poly = _polydiv_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _complex_roots(modulus: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(2j * cmath.pi * e / modulus) for e in range(modulus))


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
        return Cyclotomic(self.modulus, {self.exponent: Fraction(1)})


class Cyclotomic:
    """A finite sum ``sum_e c_e * w_L^e`` with rational coefficients c_e."""

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: int, coeffs: dict[int, Fraction] | None = None):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        self.modulus = modulus
        clean: dict[int, Fraction] = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    e %= modulus
                    acc = clean.get(e)
                    s = c if acc is None else acc + c
                    if s:
                        clean[e] = Fraction(s)
                    elif acc is not None:
                        del clean[e]
        self.coeffs = clean

    # -- constructors ------------------------------------------------
    @classmethod
    def zero(cls, modulus: int) -> "Cyclotomic":
        return cls(modulus)

    @classmethod
    def from_rational(cls, value, modulus: int) -> "Cyclotomic":
        return cls(modulus, {0: Fraction(value)})

    @classmethod
    def root(cls, exponent: int, modulus: int, coeff=1) -> "Cyclotomic":
        return cls(modulus, {exponent: Fraction(coeff)})

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
        return Cyclotomic(new_modulus, {e * k: c for e, c in self.coeffs.items()})

    def _pair(self, other) -> tuple["Cyclotomic", "Cyclotomic"]:
        other = Cyclotomic._coerce(other, self.modulus)
        if other.modulus == self.modulus:
            return self, other
        m = self.modulus * other.modulus // gcd(self.modulus, other.modulus)
        return self.rescale(m), other.rescale(m)

    def __add__(self, other) -> "Cyclotomic":
        a, b = self._pair(other)
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Cyclotomic(a.modulus, out)

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.modulus, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> "Cyclotomic":
        return self + (-Cyclotomic._coerce(other, self.modulus))

    def __rsub__(self, other) -> "Cyclotomic":
        return (-self) + other

    def __mul__(self, other) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.modulus, {e: c * other for e, c in self.coeffs.items()})
        a, b = self._pair(other)
        out: dict[int, Fraction] = {}
        m = a.modulus
        for e1, c1 in a.coeffs.items():
            for e2, c2 in b.coeffs.items():
                e = (e1 + e2) % m
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Cyclotomic(m, out)

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        return Cyclotomic(self.modulus, {-e: c for e, c in self.coeffs.items()})

    def abs_squared(self) -> "Cyclotomic":
        return self * self.conjugate()

    # -- canonical form and predicates ----------------------------------
    def canonical(self) -> tuple[int, tuple[Fraction, ...]]:
        """(m, coefficients of the reduction mod Phi_m in the power basis)."""
        if not self.coeffs:
            return 1, (Fraction(0),)
        g = self.modulus
        for e in self.coeffs:
            g = gcd(g, e)
            if g == 1:
                break
        m = self.modulus // g
        phi = cyclotomic_polynomial(m)
        deg = len(phi) - 1
        poly = [Fraction(0)] * m
        for e, c in self.coeffs.items():
            poly[e // g] += c
        # reduce mod the monic integer polynomial phi
        for i in range(m - 1, deg - 1, -1):
            c = poly[i]
            if c:
                poly[i] = Fraction(0)
                for k in range(deg):
                    poly[i - deg + k] -= c * phi[k]
        out = poly[:deg]
        return m, tuple(out if out else [Fraction(0)])

    def is_zero(self) -> bool:
        if not self.coeffs:
            return True
        _, rep = self.canonical()
        return not any(rep)

    def as_rational(self) -> Fraction | None:
        if not self.coeffs:
            return Fraction(0)
        _, rep = self.canonical()
        if any(rep[1:]):
            return None
        return rep[0]

    def single_root(self) -> tuple[Fraction, int, int] | None:
        """Decompose as ``q * w_modulus^e`` if possible: returns (q, e, modulus)."""
        if not self.coeffs:
            return Fraction(0), 0, self.modulus
        if len(self.coeffs) == 1:
            (e, c), = self.coeffs.items()
            return c, e, self.modulus
        r = self.as_rational()
        if r is not None:
            return r, 0, self.modulus
        # numerically guided guess, verified exactly
        z = complex(self)
        if abs(z) < 1e-12:
            return None
        for sign in (1, -1):
            e = round(cmath.phase(sign * z) * self.modulus / (2 * cmath.pi)) % self.modulus
            q = (self * Cyclotomic.root(-e, self.modulus)).as_rational()
            if q is not None:
                return q, e, self.modulus
        return None

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Cyclotomic, RootOfUnity)):
            return (self - Cyclotomic._coerce(other, self.modulus)).is_zero()
        return NotImplemented

    def __complex__(self) -> complex:
        roots = _complex_roots(self.modulus)
        return sum((complex(c) * roots[e] for e, c in self.coeffs.items()), 0j)

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"Cyclotomic({self.modulus}, 0)"
        terms = " + ".join(f"{c}*w^{e}" for e, c in sorted(self.coeffs.items()))
        return f"Cyclotomic({self.modulus}, {terms})"
