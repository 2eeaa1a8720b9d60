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

FieldElement = tuple[int, ...]


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
        out = []
        for enc in range(self.q):
            coeffs, m = [], enc
            for _ in range(self.n):
                coeffs.append(m % self.p)
                m //= self.p
            out.append(tuple(coeffs))
        return tuple(out)

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
        step = self.p**sub_degree
        out, term = self.zero, x
        for _ in range(self.n // sub_degree):
            out = self.add(out, term)
            term = self.pow(term, step)
        assert self.pow(out, step) == out, "trace must land in the subfield"
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
        fac = prime_factors(self.q - 1)
        for x in self.elements:
            if x == self.zero:
                continue
            if all(self.pow(x, (self.q - 1) // f) != self.one for f in fac):
                return x
        raise AssertionError("no generator found; field construction is broken")

    @cached_property
    def _dlog_table(self) -> dict[FieldElement, int]:
        table = {}
        x = self.one
        for k in range(self.q - 1):
            table[x] = k
            x = self.mul(x, self.generator)
        assert x == self.one
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
        raise ValueError(f"field order {p**n} exceeds cap {cap}")
    for enc in range(p**n):
        coeffs, m = [], enc
        for _ in range(n):
            coeffs.append(m % p)
            m //= p
        candidate = tuple(coeffs) + (1,)
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
    squares = {field.mul(x, x) for x in field.units()}
    nonsquares = {x for x in field.units() if x not in squares}
    assert len(squares) == len(nonsquares) == (field.q - 1) // 2
    return squares, nonsquares
