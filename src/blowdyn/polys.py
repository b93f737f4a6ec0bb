"""Integer polynomials and the exact unit-circle machinery.

Everything here is ascending-coefficient tuples of ints wrapped in a small
class. The two jobs that matter:

  * detect whether a monic integer polynomial has all roots on the unit
    circle or at zero (Kronecker: equivalent to being a power of x times a
    product of cyclotomics), decided exactly by dividing out each Phi_n
    with phi(n) <= deg p: Phi_n is monic, so long division stays in the
    integers, and Phi_n divides p exactly when the remainder is zero;
    repeating the division while it is counts the multiplicity;
  * provide squarefree parts and exact root bounds for the enclosure code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd
from typing import Iterable, List, Sequence, Tuple


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with integer coefficients, ascending order, no trailing
    zeros (the zero polynomial is the empty tuple)."""

    coeffs: Tuple[int, ...]

    @staticmethod
    def from_coeffs(coeffs: Iterable[int]) -> "IntPolynomial":
        c = list(coeffs)
        for v in c:
            if not isinstance(v, int):
                raise TypeError("integer coefficients required, got %r" % (v,))
        while c and c[-1] == 0:
            c.pop()
        return IntPolynomial(tuple(c))

    @staticmethod
    def x_power(n: int) -> "IntPolynomial":
        return IntPolynomial((0,) * n + (1,))

    @staticmethod
    def one() -> "IntPolynomial":
        return IntPolynomial((1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return IntPolynomial.from_coeffs(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial.from_coeffs(out)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial.from_coeffs(
            tuple(i * c for i, c in enumerate(self.coeffs))[1:]
        )

    def trailing_zeros(self) -> int:
        n = 0
        for c in self.coeffs:
            if c != 0:
                break
            n += 1
        return n

    def shift_down(self, n: int) -> "IntPolynomial":
        """Divide by x^n; the low coefficients must be zero."""
        assert all(c == 0 for c in self.coeffs[:n])
        return IntPolynomial(self.coeffs[n:])

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = int_gcd(g, c)
        return g

    def primitive(self) -> "IntPolynomial":
        """Divide out the content; normalize the leading coefficient > 0."""
        if self.is_zero:
            return self
        g = self.content()
        if self.coeffs[-1] < 0:
            g = -g
        return IntPolynomial(tuple(c // g for c in self.coeffs))

    def divexact(self, other: "IntPolynomial") -> "IntPolynomial":
        """Exact division; raises if the remainder is nonzero or the
        quotient is not integral."""
        qr = _divmod_integral(self, other)
        if qr is None:
            raise ValueError("quotient is not an integer polynomial")
        q, r = qr
        if any(r):
            raise ValueError("division was not exact")
        return IntPolynomial.from_coeffs(q)

    def __repr__(self):
        if self.is_zero:
            return "IntPolynomial(0)"
        bits = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                bits.append("%+d" % c)
            elif i == 1:
                bits.append("%+d*x" % c)
            else:
                bits.append("%+d*x^%d" % (c, i))
        return "IntPolynomial(%s)" % " ".join(bits)


def _divmod_integral(a: IntPolynomial, b: IntPolynomial):
    """Long division in integers: (quotient, remainder) coefficient lists,
    or None when a quotient coefficient is not an integer (never for a
    monic b)."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    db = b.degree
    lead = b.coeffs[-1]
    low = b.coeffs[:-1]
    quot = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            if lead != 1:
                c, frac = divmod(c, lead)
                if frac:
                    return None
            quot[i - db] = c
            base = i - db
            for j, bc in enumerate(low):
                if bc:
                    rem[base + j] -= c * bc
    return quot, rem[:db]


def _divmod_fraction(a: IntPolynomial, b: IntPolynomial):
    """Polynomial division over the rationals, (quotient, remainder)."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem: List[Fraction] = [Fraction(c) for c in a.coeffs]
    quot = [Fraction(0)] * max(0, len(a.coeffs) - len(b.coeffs) + 1)
    db = b.degree
    lead = Fraction(b.coeffs[-1])
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] / lead
        if c:
            quot[i - db] = c
            for j, bc in enumerate(b.coeffs):
                rem[i - db + j] -= c * bc
    return quot, rem[:db] if db > 0 else []


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over the integers (computed via rational Euclid,
    renormalized to primitive each step to keep numbers small)."""
    a, b = a.primitive(), b.primitive()
    while not b.is_zero:
        _, rem = _divmod_fraction(a, b)
        # clear denominators and strip content
        den = 1
        for c in rem:
            den = den * c.denominator // int_gcd(den, c.denominator)
        ints = [int(c * den) for c in rem]
        a, b = b, IntPolynomial.from_coeffs(ints).primitive()
    return a.primitive()


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p divided by gcd(p, p'); same roots, all simple."""
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.primitive()
    return p.divexact(g).primitive()


def cauchy_root_bound(p: IntPolynomial) -> Fraction:
    """Exact upper bound on every root modulus: 1 + max |a_i| / |a_d|."""
    if p.degree < 1:
        raise ValueError("root bound needs degree >= 1")
    lead = abs(p.coeffs[-1])
    top = max(abs(c) for c in p.coeffs[:-1]) if p.degree else 0
    return 1 + Fraction(top, lead)


# ---------------------------------------------------------------- cyclotomic


def _phi_sieve(bound: int) -> List[int]:
    phi = list(range(bound + 1))
    for i in range(2, bound + 1):
        if phi[i] == i:  # prime
            for j in range(i, bound + 1, i):
                phi[j] -= phi[j] // i
    return phi


def cyclotomic_orders(max_degree: int) -> List[int]:
    """All n >= 1 with phi(n) <= max_degree.

    phi(n) >= sqrt(n/2) makes 2*d^2 a safe cutoff for the sieve.
    """
    if max_degree < 1:
        return [1]
    if max_degree not in _ORDERS_CACHE:
        bound = 2 * max_degree * max_degree + 2
        phi = _phi_sieve(bound)
        _ORDERS_CACHE[max_degree] = tuple(n for n in range(1, bound + 1) if phi[n] <= max_degree)
    return list(_ORDERS_CACHE[max_degree])


_ORDERS_CACHE: dict = {}


def cyclotomic(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, by recursive exact division of
    x^n - 1 by the lower cyclotomics."""
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    p = IntPolynomial.from_coeffs([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            p = p.divexact(cyclotomic(d))
    _CYCLO_CACHE[n] = p
    return p


_CYCLO_CACHE: dict = {}


def strip_unit_circle_factors(p: IntPolynomial):
    """Split p into x^a * (cyclotomic product) * core.

    Returns (core, x_multiplicity, cyclotomic_degree_stripped). The core has
    no zero roots and no roots of unity; p must be monic. Each Phi_n with
    phi(n) <= deg core is divided out, exactly and in integers, for as long
    as the remainder is zero, which counts its multiplicity.
    """
    if not p.is_monic:
        raise ValueError("expected a monic polynomial")
    xmult = p.trailing_zeros()
    core = p.shift_down(xmult)
    stripped = 0
    for n in cyclotomic_orders(core.degree):
        if core.degree == 0:
            break
        phi_n = cyclotomic(n)
        while phi_n.degree <= core.degree:
            quot, rem = _divmod_integral(core, phi_n)
            if any(rem):
                break
            core = IntPolynomial(tuple(quot))
            stripped += phi_n.degree
    return core, xmult, stripped


def is_cyclotomic_product(p: IntPolynomial) -> bool:
    """True iff every root of the monic polynomial p is zero or lies on the
    unit circle (Kronecker: p = x^a times a product of cyclotomics)."""
    core, _, _ = strip_unit_circle_factors(p)
    return core.degree == 0


# Lehmer's polynomial: the reference Salem polynomial for tests and docs
LEHMER_POLYNOMIAL = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
