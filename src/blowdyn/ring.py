"""Exact intersection ring of a projective space blown up along disjoint
linear subspaces.

The variety is P^k blown up along m pairwise disjoint linear centers of
dimensions r_1..r_m (each r_i <= k-2, and r_i + r_j <= k-1 for i != j, as
disjointness needs). Degree-p classes are spanned by

    h^p                          and
    h^a * e_i^b   with  a + b = p,  0 <= a <= r_i,  1 <= b <= k - r_i - 1,

where h is the hyperplane pullback and e_i the i-th exceptional divisor.
Products are reduced to this basis with three rewrite rules:

    (h - e_i)^(k - r_i) = 0      unfolded to a power-reduction rule for
                                 e_i^(k - r_i),
    h^(r_i + 1) * e_i   = 0,
    e_i * e_j           = 0      for i != j (disjoint centers),

together with truncation above degree k and the normalization
integrate(h^k) = 1. All coefficients are Fractions; no floats enter ring
arithmetic anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from numbers import Rational
from typing import Dict, Iterable, NamedTuple, Sequence, Tuple

from .errors import InvalidConfig, LengthMismatch, RingMismatch

_ZERO = Fraction(0)


@dataclass(frozen=True)
class BlowupConfig:
    """Ambient dimension k plus the dimensions of the blow-up centers.

    Centers are identified by position: ``centers[i]`` is the dimension of
    the (i+1)-th center. Only each dimension is checked here; the ring
    model refuses pairs of centers that cannot be disjoint.
    """

    k: int
    centers: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "centers", tuple(self.centers))
        if not isinstance(self.k, int) or self.k < 2:
            raise InvalidConfig("ambient dimension k must be an integer >= 2")
        for i, r in enumerate(self.centers):
            if not isinstance(r, int) or r < 0 or r > self.k - 2:
                raise InvalidConfig(
                    "center %d has dimension %r, need an integer in [0, %d]"
                    % (i + 1, r, self.k - 2)
                )

    @property
    def m(self) -> int:
        return len(self.centers)

    @property
    def max_center_dim(self) -> int:
        """Largest center dimension, 0 when there are no centers."""
        return max(self.centers, default=0)


class Mono(NamedTuple):
    """A basis monomial h^h_pow * e_(center+1)^e_pow.

    Pure powers of h use center == -1 and e_pow == 0. ``center`` is the
    zero-based index into the config's center list.
    """

    h_pow: int
    center: int = -1
    e_pow: int = 0

    @property
    def degree(self) -> int:
        return self.h_pow + self.e_pow

    def label(self) -> str:
        parts = []
        if self.h_pow == 1:
            parts.append("h")
        elif self.h_pow > 1:
            parts.append("h^%d" % self.h_pow)
        if self.e_pow == 1:
            parts.append("e%d" % (self.center + 1))
        elif self.e_pow > 1:
            parts.append("e%d^%d" % (self.center + 1, self.e_pow))
        return "*".join(parts) if parts else "1"


class GradedClass:
    """An element of the ring, kept in normal form at all times.

    Instances are created through RingModel methods; arithmetic stays inside
    one ring model and rejects floats so the exactness guarantee is
    airtight. Supports +, -, * (ring product or scalar), and ** with small
    nonnegative integer exponents.
    """

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: "RingModel", terms: Dict[Mono, Fraction]):
        self.ring = ring
        self._terms = terms

    # -- inspection ----------------------------------------------------

    def coefficient(self, mono: Mono) -> Fraction:
        return self._terms.get(mono, _ZERO)

    def terms(self) -> Dict[Mono, Fraction]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degrees(self) -> Tuple[int, ...]:
        """Degrees in which this class has a nonzero component."""
        return tuple(sorted({m.degree for m in self._terms}))

    def is_homogeneous(self, p: int = None) -> bool:
        degs = self.degrees()
        if p is None:
            return len(degs) <= 1
        return degs == () or degs == (p,)

    def degree_part(self, p: int) -> "GradedClass":
        return GradedClass(
            self.ring, {m: c for m, c in self._terms.items() if m.degree == p}
        )

    def coefficients(self, p: int) -> Tuple[Fraction, ...]:
        """Coefficient vector over the ring's ordered degree-p basis."""
        return tuple(self._terms.get(m, _ZERO) for m in self.ring.basis(p))

    # -- arithmetic ----------------------------------------------------

    def _check_partner(self, other: "GradedClass"):
        if self.ring is not other.ring:
            raise RingMismatch("operands live in different ring models")

    def __add__(self, other):
        if not isinstance(other, GradedClass):
            return NotImplemented
        self._check_partner(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            v = terms.get(m, _ZERO) + c
            if v:
                terms[m] = v
            else:
                terms.pop(m, None)
        return GradedClass(self.ring, terms)

    def __neg__(self):
        return GradedClass(self.ring, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, GradedClass):
            return NotImplemented
        return self + (-other)

    def _scaled(self, scalar) -> "GradedClass":
        c = _as_rational(scalar)
        if not c:
            return GradedClass(self.ring, {})
        return GradedClass(self.ring, {m: c * v for m, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, GradedClass):
            self._check_partner(other)
            return self.ring.mul(self, other)
        if isinstance(other, Rational):
            return self._scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Rational):
            return self._scaled(other)
        return NotImplemented

    def __pow__(self, n):
        return self.ring.pow(self, n)

    def __eq__(self, other):
        if not isinstance(other, GradedClass):
            return NotImplemented
        return self.ring is other.ring and self._terms == other._terms

    def __hash__(self):
        return hash((id(self.ring), frozenset(self._terms.items())))

    def __repr__(self):
        if not self._terms:
            return "<class 0>"
        bits = []
        for m in sorted(self._terms, key=lambda t: (t.degree, t.center, t.h_pow)):
            c = self._terms[m]
            bits.append("%s*%s" % (c, m.label()) if m.label() != "1" else str(c))
        return "<class %s>" % " + ".join(bits)


def _as_rational(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("float scalars are not allowed in exact ring arithmetic")
    if isinstance(x, Rational):
        return Fraction(x)
    raise TypeError("expected an int or Fraction, got %r" % type(x).__name__)


class RingModel:
    """Basis, ranks, multiplication, and intersection pairing for one config.

    Built once per config; use :func:`build_ring`. Basis order in each
    degree p is the pure power h^p first, then for each center (in config
    order) the mixed monomials h^a e_i^(p-a) with a ascending.
    """

    def __init__(self, config: BlowupConfig):
        # linear subspaces of P^k of dimensions r_i + r_j >= k always meet,
        # and on such a pair the rule e_i * e_j = 0 contradicts the others:
        # products would depend on the order of the factors
        dims = config.centers
        for i, ri in enumerate(dims):
            for j in range(i + 1, len(dims)):
                if ri + dims[j] >= config.k:
                    raise InvalidConfig(
                        "centers %d and %d (dimensions %d and %d) meet in P^%d; "
                        "disjoint centers need r_i + r_j <= k - 1 = %d"
                        % (i + 1, j + 1, ri, dims[j], config.k, config.k - 1)
                    )
        self.config = config
        self.k = config.k
        self.m = config.m
        # Power-reduction rule per center: for n = k - r_i,
        #   e^n = sum_{j=0}^{n-1} (-1)^(n+1+j) C(n, j) h^(n-j) e^j,
        # which is (h - e)^n = 0 solved for e^n.
        self._epow_rule = []
        for r in config.centers:
            n = self.k - r
            self._epow_rule.append(
                tuple((-1) ** (n + 1 + j) * comb(n, j) for j in range(n))
            )
        self._reduce_cache: Dict[Tuple[int, int, int], Dict[Mono, int]] = {}
        self._basis = tuple(self._build_basis(p) for p in range(self.k + 1))
        self._index = {}
        for p, monos in enumerate(self._basis):
            for idx, mono in enumerate(monos):
                self._index[mono] = (p, idx)

    def _build_basis(self, p: int) -> Tuple[Mono, ...]:
        if p == 0 or p == self.k:
            return (Mono(p),)
        out = [Mono(p)]
        for i, r in enumerate(self.config.centers):
            a_lo = max(0, p - (self.k - r - 1))
            a_hi = min(r, p - 1)
            for a in range(a_lo, a_hi + 1):
                out.append(Mono(a, i, p - a))
        return tuple(out)

    # -- basis and ranks -----------------------------------------------

    def basis(self, p: int) -> Tuple[Mono, ...]:
        if not 0 <= p <= self.k:
            raise ValueError("degree %d out of range [0, %d]" % (p, self.k))
        return self._basis[p]

    def rank(self, p: int) -> int:
        return len(self.basis(p))

    @property
    def ranks(self) -> Tuple[int, ...]:
        return tuple(len(b) for b in self._basis)

    # -- constructors ----------------------------------------------------

    def zero(self) -> GradedClass:
        return GradedClass(self, {})

    def one(self) -> GradedClass:
        return GradedClass(self, {Mono(0): Fraction(1)})

    def h(self) -> GradedClass:
        return GradedClass(self, {Mono(1): Fraction(1)})

    def e(self, i: int) -> GradedClass:
        """Exceptional divisor class e_i, i counted from 1."""
        if not 1 <= i <= self.m:
            raise ValueError("center index %d out of range 1..%d" % (i, self.m))
        return GradedClass(self, {Mono(0, i - 1, 1): Fraction(1)})

    def monomial_class(self, mono: Mono) -> GradedClass:
        if mono not in self._index:
            raise ValueError("%s is not a basis monomial of this ring" % (mono,))
        return GradedClass(self, {mono: Fraction(1)})

    def from_basis_vector(self, p: int, coeffs: Sequence) -> GradedClass:
        monos = self.basis(p)
        if len(coeffs) != len(monos):
            raise LengthMismatch(
                "degree-%d vector needs %d entries, got %d" % (p, len(monos), len(coeffs))
            )
        terms = {}
        for mono, c in zip(monos, coeffs):
            v = _as_rational(c)
            if v:
                terms[mono] = v
        return GradedClass(self, terms)

    def parse_class(self, coeffs: Sequence) -> GradedClass:
        """Degree-1 class from a coefficient vector [c_h, c_1, ..., c_m]."""
        if len(coeffs) != 1 + self.m:
            raise LengthMismatch(
                "expected %d coefficients (h and %d centers), got %d"
                % (1 + self.m, self.m, len(coeffs))
            )
        terms = {}
        ch = _as_rational(coeffs[0])
        if ch:
            terms[Mono(1)] = ch
        for i, c in enumerate(coeffs[1:]):
            v = _as_rational(c)
            if v:
                terms[Mono(0, i, 1)] = v
        return GradedClass(self, terms)

    def canonical_class(self) -> GradedClass:
        """K = -(k+1) h + sum_i (k - 1 - r_i) e_i."""
        return self.parse_class(
            [-(self.k + 1)] + [self.k - 1 - r for r in self.config.centers]
        )

    # -- reduction and products ------------------------------------------

    def _reduce(self, i: int, a: int, b: int) -> Dict[Mono, int]:
        """Normal form of h^a e_i^b as integer combination of basis monomials."""
        key = (i, a, b)
        cached = self._reduce_cache.get(key)
        if cached is not None:
            return cached
        r = self.config.centers[i]
        n = self.k - r
        if b == 0:
            out = {Mono(a): 1} if a <= self.k else {}
        elif b >= n:
            out: Dict[Mono, int] = {}
            for j, coeff in enumerate(self._epow_rule[i]):
                if coeff == 0:
                    continue
                for mono, w in self._reduce(i, a + n - j, b - n + j).items():
                    v = out.get(mono, 0) + coeff * w
                    if v:
                        out[mono] = v
                    else:
                        del out[mono]
        elif a > r:
            out = {}
        else:
            out = {Mono(a, i, b): 1}
        self._reduce_cache[key] = out
        return out

    def mul(self, x: GradedClass, y: GradedClass) -> GradedClass:
        if x.ring is not self or y.ring is not self:
            raise RingMismatch("operands do not belong to this ring model")
        acc: Dict[Mono, Fraction] = {}
        for m1, c1 in x._terms.items():
            for m2, c2 in y._terms.items():
                if m1.center >= 0 and m2.center >= 0 and m1.center != m2.center:
                    continue  # e_i * e_j = 0 for disjoint centers
                c = c1 * c2
                i = m1.center if m1.center >= 0 else m2.center
                a = m1.h_pow + m2.h_pow
                if i < 0:
                    if a <= self.k:
                        mono = Mono(a)
                        v = acc.get(mono, _ZERO) + c
                        if v:
                            acc[mono] = v
                        else:
                            del acc[mono]
                    continue
                for mono, w in self._reduce(i, a, m1.e_pow + m2.e_pow).items():
                    v = acc.get(mono, _ZERO) + c * w
                    if v:
                        acc[mono] = v
                    else:
                        del acc[mono]
        return GradedClass(self, acc)

    def pow(self, x: GradedClass, n: int) -> GradedClass:
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = self.one()
        for _ in range(n):
            out = self.mul(out, x)
        return out

    def integrate(self, x: GradedClass) -> Fraction:
        """Coefficient of h^k; the degree-k part evaluated against the
        fundamental class, normalized so integrate(h^k) = 1."""
        if x.ring is not self:
            raise RingMismatch("class does not belong to this ring model")
        return x._terms.get(Mono(self.k), _ZERO)

    def pairing(self, x: GradedClass, y: GradedClass) -> Fraction:
        return self.integrate(self.mul(x, y))

    def pairing_matrix(self, p: int) -> Tuple[Tuple[int, ...], ...]:
        """Intersection pairing between the degree-p and degree-(k-p) bases.

        Entry [i][j] = integrate(basis(p)[i] * basis(k-p)[j]). Always an
        integer matrix; nondegeneracy (determinant +-1) is an invariant of
        the model and is what the test suite checks.
        """
        rows = []
        for mx in self.basis(p):
            x = self.monomial_class(mx)
            row = []
            for my in self.basis(self.k - p):
                v = self.pairing(x, self.monomial_class(my))
                assert v.denominator == 1
                row.append(int(v))
            rows.append(tuple(row))
        return tuple(rows)

    def __repr__(self):
        return "RingModel(k=%d, centers=%s)" % (self.k, list(self.config.centers))


def build_ring(config: BlowupConfig) -> RingModel:
    """Construct the ring model for a validated blow-up configuration.

    Raises InvalidConfig when two centers cannot be disjoint in P^k."""
    if not isinstance(config, BlowupConfig):
        config = BlowupConfig(*config)
    return RingModel(config)
