"""GF(p^n) arithmetic: relative traces, generators, discrete logarithms.

Elements are coefficient tuples over F_p (length n, constant term first);
the modulus is the lexicographically least monic irreducible of degree n,
so every field here is deterministic.  All constructions downstream are
invariant under shift/automorphism, hence under the modulus choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

FieldElement = tuple[int, ...]

# rows of coordinate vectors per integer product, so a table-wide product
# never holds more than this many int64 rows at once
_CHUNK_ROWS = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p^e, or None if q is not a prime power."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            e, m = 0, q
            while m % p == 0:
                m //= p
                e += 1
            return (p, e) if m == 1 else None
        p += 1
    return (q, 1)


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _digits(enc: int, p: int, n: int) -> tuple[int, ...]:
    """The n base-p digits of enc, least significant first."""
    out = []
    for _ in range(n):
        out.append(enc % p)
        enc //= p
    return tuple(out)


def _poly_mul_mod(a, b, modulus, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce by the monic modulus
    n = len(modulus) - 1
    for i in range(len(prod) - 1, n - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for k in range(n):
                prod[i - n + k] = (prod[i - n + k] - c * modulus[k]) % p
    out = prod[:n]
    out += [0] * (n - len(out))
    return tuple(out)


def _poly_divides(d, f, p):
    """Whether monic d divides f over F_p."""
    f = list(f)
    nd = len(d) - 1
    inv_lead = pow(d[-1], p - 2, p) if d[-1] != 1 else 1
    for i in range(len(f) - 1, nd - 1, -1):
        c = (f[i] * inv_lead) % p
        if c:
            for k in range(nd + 1):
                f[i - nd + k] = (f[i - nd + k] - c * d[k]) % p
    return not any(f[:nd])


def _is_irreducible(coeffs, p):
    """Trial factorization of a monic polynomial over F_p."""
    n = len(coeffs) - 1
    if n == 1:
        return True
    if coeffs[0] == 0:
        return False
    for deg in range(1, n // 2 + 1):
        for tail in product(range(p), repeat=deg):
            d = list(tail) + [1]
            if _poly_divides(d, coeffs, p):
                return False
    return True


@dataclass(frozen=True)
class FiniteField:
    p: int
    n: int
    modulus: tuple[int, ...]  # monic, length n+1, ascending coefficients

    @property
    def q(self) -> int:
        return self.p**self.n

    @cached_property
    def zero(self) -> FieldElement:
        return (0,) * self.n

    @cached_property
    def one(self) -> FieldElement:
        return ((1,) + (0,) * (self.n - 1)) if self.n else ()

    @cached_property
    def elements(self) -> tuple[FieldElement, ...]:
        """All elements ordered by integer encoding sum(c_i p^i)."""
        return tuple(_digits(enc, self.p, self.n) for enc in range(self.q))

    # -- arithmetic -----------------------------------------------------
    def add(self, x: FieldElement, y: FieldElement) -> FieldElement:
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def sub(self, x: FieldElement, y: FieldElement) -> FieldElement:
        return tuple((a - b) % self.p for a, b in zip(x, y))

    def neg(self, x: FieldElement) -> FieldElement:
        return tuple((-a) % self.p for a in x)

    def mul(self, x: FieldElement, y: FieldElement) -> FieldElement:
        return _poly_mul_mod(x, y, self.modulus, self.p)

    def pow(self, x: FieldElement, k: int) -> FieldElement:
        if k < 0:
            return self.pow(self.inv(x), -k)
        out, base = self.one, x
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def inv(self, x: FieldElement) -> FieldElement:
        if x == self.zero:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.pow(x, self.q - 2)

    def from_int(self, a: int) -> FieldElement:
        """Image of an integer under the prime-field embedding."""
        return ((a % self.p,) + (0,) * (self.n - 1))

    # -- traces -----------------------------------------------------------
    def trace(self, x: FieldElement, sub_degree: int) -> FieldElement:
        """Relative trace onto GF(p^sub_degree): sum of x^(p^sub_degree)^j."""
        if sub_degree < 1 or self.n % sub_degree:
            raise ValueError(f"sub_degree {sub_degree} does not divide {self.n}")
        out = self.partial_frobenius_sum(x, sub_degree, self.n // sub_degree)
        if self.pow(out, self.p**sub_degree) != out:
            raise AssertionError("trace must land in the subfield")
        return out

    def partial_frobenius_sum(self, x: FieldElement, sub_degree: int, terms: int) -> FieldElement:
        """sum_{j<terms} x^(p^sub_degree)^j; a trace on GF(p^(sub_degree*terms))."""
        step = self.p**sub_degree
        out, term = self.zero, x
        for _ in range(terms):
            out = self.add(out, term)
            term = self.pow(term, step)
        return out

    # -- multiplicative structure -----------------------------------------
    @cached_property
    def generator(self) -> FieldElement:
        """The unit of least encoding that generates the multiplicative group;
        candidates are decoded one at a time, so large fields never build
        ``elements``."""
        fac = prime_factors(self.q - 1)
        for enc in range(1, self.q):
            x = _digits(enc, self.p, self.n)
            if all(self.pow(x, (self.q - 1) // f) != self.one for f in fac):
                return x
        raise AssertionError("no generator found; field construction is broken")

    @cached_property
    def _powers(self) -> np.ndarray:
        """Coordinates of alpha^k for k = 0..q-2 (alpha = ``generator``), one
        row each, in the smallest unsigned dtype that holds p - 1.

        The table doubles from the row of 1: rows m..2m-1 are rows 0..m-1
        times the matrix of multiplication by alpha^m, which squares each
        round (companion-matrix doubling mod p).
        """
        rows = self.q - 1
        out = np.zeros((rows, self.n), dtype=np.min_scalar_type(self.p - 1))
        out[0, 0] = 1
        by_alpha = _coordinate_matrix(self, lambda x: self.mul(self.generator, x))
        step, filled = by_alpha, 1
        while filled < rows:
            take = min(filled, rows - filled)
            out[filled:filled + take] = _apply(step, out[:take], self.p)
            step = step @ step % self.p
            filled += take
        if tuple(_apply(by_alpha, out[-1:], self.p)[0].tolist()) != self.one:
            raise AssertionError("alpha^(q-1) != 1; power table is broken")
        return out

    @cached_property
    def _dlog_table(self) -> dict[FieldElement, int]:
        table = {x: k for k, x in enumerate(map(tuple, self._powers.tolist()))}
        if len(table) != self.q - 1:
            raise AssertionError("generator powers repeat; generator is not primitive")
        return table

    def dlog(self, x: FieldElement, base: FieldElement | None = None) -> int:
        """Discrete log of x (base defaults to the canonical generator)."""
        if x == self.zero:
            raise ValueError("0 has no discrete logarithm")
        k = self._dlog_table[x]
        if base is None:
            return k
        kb = self._dlog_table[base]
        # solve kb * t = k mod q-1
        m = self.q - 1
        from math import gcd

        g = gcd(kb, m)
        if k % g:
            raise ValueError("x is not a power of the given base")
        return (k // g) * pow(kb // g, -1, m // g) % (m // g)

    def units(self):
        return (x for x in self.elements if x != self.zero)


def ff_new(p: int, n: int, cap: int = 2**20) -> FiniteField:
    """GF(p^n) with the lexicographically least monic irreducible modulus."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("degree must be >= 1")
    if p**n > cap:
        raise ValueError(f"field order {p**n} exceeds the field-order cap {cap}")
    for enc in range(p**n):
        candidate = _digits(enc, p, n) + (1,)
        if _is_irreducible(candidate, p):
            return FiniteField(p, n, candidate)
    raise AssertionError("no irreducible polynomial found")


def ff_trace(field: FiniteField, x: FieldElement, sub_degree: int) -> FieldElement:
    return field.trace(x, sub_degree)


def ff_generator(field: FiniteField) -> FieldElement:
    return field.generator


def ff_dlog(field: FiniteField, base: FieldElement, x: FieldElement) -> int:
    return field.dlog(x, base)


def squares_nonsquares(field: FiniteField) -> tuple[set, set]:
    """Nonzero squares and nonsquares of an odd-order field."""
    if field.q % 2 == 0:
        raise ValueError("squares/nonsquares split requires odd field order")
    # the squares are the even powers of the generator
    squares = set(map(tuple, field._powers[0::2].tolist()))
    nonsquares = set(map(tuple, field._powers[1::2].tolist()))
    if not len(squares) == len(nonsquares) == (field.q - 1) // 2:
        raise AssertionError("squares and nonsquares must split the units in half")
    return squares, nonsquares


def _coordinate_matrix(field: FiniteField, f) -> np.ndarray:
    """Matrix over F_p of the F_p-linear map f of the field: column i holds
    the coordinates of f(x^i)."""
    basis = np.eye(field.n, dtype=np.int64).tolist()
    return np.array([f(tuple(b)) for b in basis], dtype=np.int64).T


def _apply(matrix: np.ndarray, coords: np.ndarray, p: int) -> np.ndarray:
    """matrix @ c mod p for every coordinate row c, in chunks of rows,
    returned in the dtype of ``coords``."""
    out = np.empty_like(coords)
    for start in range(0, len(coords), _CHUNK_ROWS):
        block = coords[start:start + _CHUNK_ROWS].astype(np.int64)
        out[start:start + _CHUNK_ROWS] = block @ matrix.T % p
    return out


def _power_images(field: FiniteField, f, exponents=None) -> np.ndarray:
    """Coordinates of f(alpha^k) for every k in ``exponents`` (all of
    0..q-2 by default), for an F_p-linear map f such as a relative trace:
    one integer product with the power table instead of q - 1 calls of f."""
    powers = field._powers if exponents is None else field._powers[exponents]
    return _apply(_coordinate_matrix(field, f), powers, field.p)
