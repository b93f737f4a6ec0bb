"""Spectral radii of induced actions, with certified rational enclosures.

The pipeline is exact end to end:

  * characteristic polynomials come from the division-free Berkowitz
    scheme, so a matrix of ints yields an IntPolynomial with no rounding;
    its products skip the zero entries that fill induced matrices;
  * powers of x and cyclotomic factors are stripped exactly; if nothing is
    left, the spectral radius is exactly 1 (Kronecker's theorem);
  * otherwise mpmath supplies root *approximations* which are then
    certified in integer arithmetic.  The approximations are dyadic, so
    they all sit exactly on one grid 2^-E, E read off their own mpf
    exponents.  With z = Z / 2^E, Gaussian-integer Horner gives
    2^(E*d) p(z) and 2^(E*(d-1)) p'(z) exactly; each z gets a radius
    R >= d|p(z)/p'(z)| rounded up onto the same grid, and pairwise
    disjointness of the disks (an integer comparison of squared grid
    distances) proves each contains exactly one true root.  The spectral
    radius then lies in [max(|z|-R), max(|z|+R)], with |z| bounded by
    integer square roots, so both endpoints are dyadic rationals m / 2^E.
    mpmath's Durand-Kerner iteration starts from roots found first by the
    same iteration in hardware floats, so only its last few steps run in
    multiprecision; the float roots are never used as bounds.

mpmath is imported only when a root search, or the log of a degree above 1,
needs it, so actions whose degrees are all exactly 1 never load it.

Floating point is only ever used to *guess*; every reported bound is an
exact Fraction that has been proved correct.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from operator import mul
from typing import List, Optional, Sequence, Tuple, Union

from .errors import LengthMismatch, ToleranceUnreachable
from .polys import (
    IntPolynomial,
    cauchy_root_bound,
    is_cyclotomic_product,
    squarefree_part,
    strip_unit_circle_factors,
)

PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"

DEFAULT_TOL = Fraction(1, 10**9)

_DPS_LADDER = (60, 120, 240, 480)
_LOG_PAD = Fraction(1, 10**45)
# float root seeds: relative correction to stop at, and sweeps allowed
_SEED_RTOL = 1e-12
_SEED_MAXSTEPS = 200

# why a rung of the precision ladder did not end the search
NO_CONVERGENCE = "no-convergence"
OVERLAP = "overlap"
TOO_WIDE = "width > tol"


# ------------------------------------------------------------------ charpoly


def char_poly(matrix: Sequence[Sequence[int]]) -> IntPolynomial:
    """Characteristic polynomial det(xI - M), monic, ascending coeffs.

    Berkowitz's division-free algorithm: iterate over leading principal
    submatrices, each step a Toeplitz convolution with the column
    [1, -M[s][s], -R*S, -R*A*S, ...] where A, R, S are the previous block,
    the new row and the new column.  Each row of A, and R, is kept as the
    columns and values of its nonzero entries, so the products R*A^t*S
    never multiply by a stored zero, and they stop once A^t*S is the zero
    vector: induced matrices are mostly zeros, and those of permutation
    actions are permutation matrices.  Only zero terms are skipped, so every
    integer, and the polynomial, is that of the dense recurrence.
    """
    n = len(matrix)
    if n == 0:
        return IntPolynomial.one()
    for row in matrix:
        if len(row) != n:
            raise LengthMismatch("characteristic polynomial needs a square matrix")
    # coefficients in descending order, starting from the 1x1 block
    coeffs = [1, -matrix[0][0]]
    # (columns, values) of the nonzero entries of each row of the s x s block
    rows = [([0], [matrix[0][0]]) if matrix[0][0] else ([], [])]
    for s in range(1, n):
        r_cols = [j for j, a in enumerate(matrix[s][:s]) if a]
        r_vals = [matrix[s][j] for j in r_cols]
        vec = [matrix[i][s] for i in range(s)]  # A^t S, from t = 0
        toeplitz = [1, -matrix[s][s]]
        for t in range(s):
            if not any(vec):
                break  # R*A^u*S = 0 for every u >= t
            get = vec.__getitem__
            toeplitz.append(-sum(map(mul, r_vals, map(get, r_cols))))
            if t < s - 1:  # A^s S is never used
                vec = [sum(map(mul, vals, map(get, cols))) for cols, vals in rows]
        new_coeffs = [0] * (s + 2)
        for i, tv in enumerate(toeplitz):
            if tv:
                for j, cv in enumerate(coeffs[:s + 2 - i], i):
                    new_coeffs[j] += tv * cv
        coeffs = new_coeffs
        # grow the block by column s and row s
        for i in range(s):
            if matrix[i][s]:
                rows[i][0].append(s)
                rows[i][1].append(matrix[i][s])
        if matrix[s][s]:
            r_cols.append(s)
            r_vals.append(matrix[s][s])
        rows.append((r_cols, r_vals))
    return IntPolynomial(tuple(reversed(coeffs)))


# ----------------------------------------------------------------- enclosure


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        # tolerances may arrive as floats; take their decimal reading
        return Fraction(repr(value))
    raise TypeError("cannot interpret %r as an exact number" % (value,))


@dataclass(frozen=True)
class Enclosure:
    """A closed interval [lo, hi] of exact rationals, lo <= hi, lo >= 0.

    ``exact_one`` is only ever true for values proved equal to 1 by the
    cyclotomic test; the floating-point path cannot produce it.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", _as_fraction(self.lo))
        object.__setattr__(self, "hi", _as_fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError("enclosure with lo > hi")
        if self.lo < 0:
            raise ValueError("enclosures here are for nonnegative quantities")

    @staticmethod
    def exactly(value) -> "Enclosure":
        v = _as_fraction(value)
        return Enclosure(v, v)

    @staticmethod
    def exactly_one() -> "Enclosure":
        return Enclosure(Fraction(1), Fraction(1))

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def exact_one(self) -> bool:
        return self.exact and self.lo == 1

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, value) -> bool:
        v = _as_fraction(value)
        return self.lo <= v <= self.hi

    def decimal_bounds(self, digits: int = 12) -> Tuple[str, str]:
        """Outward-rounded decimal strings: the printed interval always
        contains the exact one."""
        return (
            directed_decimal(self.lo, digits, round_up=False),
            directed_decimal(self.hi, digits, round_up=True),
        )

    def __repr__(self):
        if self.exact:
            return "Enclosure(exactly %s)" % self.lo
        return "Enclosure([%s, %s] width %.3e)" % (self.lo, self.hi, float(self.width))


def directed_decimal(q: Fraction, digits: int, round_up: bool) -> str:
    """Decimal string of q with ``digits`` fractional digits, rounded toward
    +inf or -inf (never to-nearest, so bounds stay bounds)."""
    if digits < 0:
        raise ValueError("digits must be nonnegative")
    scaled = q * 10**digits
    n = scaled.numerator // scaled.denominator  # floor
    if round_up and n * scaled.denominator != scaled.numerator:
        n += 1
    sign = "-" if n < 0 else ""
    n = abs(n)
    if digits == 0:
        return sign + str(n)
    whole, frac = divmod(n, 10**digits)
    return "%s%d.%0*d" % (sign, whole, digits, frac)


def enc_pow(e: Enclosure, n: int) -> Enclosure:
    if n < 0:
        raise ValueError("nonnegative powers only")
    return Enclosure(e.lo**n, e.hi**n)


def enc_mul(a: Enclosure, b: Enclosure) -> Enclosure:
    # all quantities are >= 0, so endpoints multiply monotonically
    return Enclosure(a.lo * b.lo, a.hi * b.hi)


def ge_status(a: Enclosure, b: Enclosure) -> str:
    """Decide a >= b with three-valued interval logic."""
    if a.lo >= b.hi:
        return PASS
    if a.hi < b.lo:
        return FAIL
    return INDETERMINATE


def eq_status(a: Enclosure, b: Enclosure, provably_equal: bool = False) -> str:
    """Decide a == b; ``provably_equal`` short-circuits when equality is
    known by an exact argument (identical quantity, equal char polys)."""
    if provably_equal:
        return PASS
    if a.exact and b.exact:
        return PASS if a.lo == b.lo else FAIL
    if a.hi < b.lo or b.hi < a.lo:
        return FAIL
    return INDETERMINATE


# ------------------------------------------------ dyadic integer arithmetic


def _mpf_parts(x) -> Tuple[int, int]:
    """(signed mantissa, exponent) of a finite mpf, value man * 2^exp."""
    sign, man, exp, _ = x._mpf_
    if man == 0 and exp != 0:
        raise ValueError("nonfinite float from mpmath")
    return (-man if sign else man), exp


def _mpf_to_fraction(x) -> Fraction:
    man, exp = _mpf_parts(x)
    return Fraction(man) * Fraction(2) ** exp


def _scaled_horner(coeffs: Sequence[int], x: int, y: int, e: int) -> Tuple[int, int]:
    """2^(e*d) * p((x + iy) / 2^e) as a Gaussian integer, d = deg p."""
    d = len(coeffs) - 1
    re, im = coeffs[d], 0
    for k in range(d - 1, -1, -1):
        re, im = re * x - im * y + (coeffs[k] << (e * (d - k))), re * y + im * x
    return re, im


def _ceil_isqrt(n: int) -> int:
    s = isqrt(n)
    return s if s * s == n else s + 1


def _certified_radius_bounds(sf: IntPolynomial, approx_roots) -> Optional[Tuple[Fraction, Fraction]]:
    """Turn floating root approximations into proved bounds on the largest
    root modulus of the squarefree polynomial sf, or None if the
    approximations are not good enough to certify.

    Every point and radius lives on the grid 2^-e, with e taken from the
    approximations' own exponents so no point is rounded; all the work is
    integer arithmetic on the grid numerators."""
    n = sf.degree
    deriv = sf.derivative().coeffs
    # .real/.imag return the stored mpfs untouched; re-wrapping through
    # mp.mpf would round them at the *current* precision
    parts = [(_mpf_parts(r.real), _mpf_parts(r.imag)) for r in approx_roots]
    e = max([0] + [-exp for pair in parts for man, exp in pair if man])
    points = [(xm << (xe + e), ym << (ye + e)) for (xm, xe), (ym, ye) in parts]
    radii: List[int] = []
    for x, y in points:
        # p(z) = P / 2^(e*n) and p'(z) = D / 2^(e*(n-1)), so the Newton
        # radius n|p(z)/p'(z)| is n|P|/|D| grid steps; round it up
        pr, pi = _scaled_horner(sf.coeffs, x, y, e)
        pval2 = pr * pr + pi * pi
        if pval2 == 0:
            radii.append(0)
            continue
        dr, di = _scaled_horner(deriv, x, y, e)
        dval2 = dr * dr + di * di
        if dval2 == 0:
            return None
        radii.append(_ceil_isqrt(-(-n * n * pval2 // dval2)))
    # pairwise disjoint disks => exactly one true root per disk
    for i in range(len(points)):
        xi, yi = points[i]
        ri = radii[i]
        for j in range(i + 1, len(points)):
            dx, dy = xi - points[j][0], yi - points[j][1]
            s = ri + radii[j]
            if dx * dx + dy * dy <= s * s:
                return None
    moduli2 = [x * x + y * y for x, y in points]
    lo = max(isqrt(m2) - rad for m2, rad in zip(moduli2, radii))
    hi = max(_ceil_isqrt(m2) + rad for m2, rad in zip(moduli2, radii))
    return Fraction(lo, 1 << e), Fraction(hi, 1 << e)


def _float_seeds(coeffs: Sequence[int]) -> Optional[List[complex]]:
    """Approximate roots of the polynomial with ascending integer coeffs,
    from mpmath's Durand-Kerner update run in hardware complex floats from
    mpmath's own start points (0.4+0.9i)^n.

    None when a coefficient does not fit a float, the arithmetic overflows,
    some root is not finite, or the relative corrections do not all drop
    below _SEED_RTOL within _SEED_MAXSTEPS sweeps.  The result is only a
    starting guess for mp.polyroots."""
    try:
        lead = float(coeffs[-1])
        c = [float(a) / lead for a in reversed(coeffs)]
        d = len(c) - 1
        roots = [(0.4 + 0.9j) ** n for n in range(d)]
        for _ in range(_SEED_MAXSTEPS):
            settled = True
            for i in range(d):
                p = roots[i]
                x = c[0]
                for a in c[1:]:
                    x = x * p + a
                for j in range(d):
                    if j != i and p != roots[j]:
                        x /= p - roots[j]
                p -= x
                roots[i] = p
                # written so that a NaN correction never counts as settled
                if not abs(x) <= _SEED_RTOL * abs(p):
                    settled = False
            if settled:
                break
        else:
            return None
    except (OverflowError, ZeroDivisionError):
        return None
    # check every seed: a NaN does not survive max() reliably
    if not all(cmath.isfinite(z) for z in roots):
        return None
    return roots


def _certify_at(sf: IntPolynomial, dps: int, upper: Fraction, seeds) -> Union[Enclosure, str]:
    """One rung of the precision ladder: approximate the roots of sf at dps
    digits, starting from ``seeds`` when given, and certify them.  The
    enclosure, or why there is none (NO_CONVERGENCE or OVERLAP)."""
    import mpmath as mp
    from mpmath.libmp.libhyper import NoConvergence

    try:
        with mp.workdps(dps):
            coeffs = [mp.mpf(c) for c in reversed(sf.coeffs)]
            init = None if seeds is None else [mp.mpc(z) for z in seeds]
            roots = mp.polyroots(coeffs, maxsteps=200, extraprec=120, roots_init=init)
    except NoConvergence:
        return NO_CONVERGENCE
    bounds = _certified_radius_bounds(sf, roots)
    if bounds is None:
        return OVERLAP
    lo, hi = bounds
    # a monic integer polynomial with nonzero constant term has root
    # modulus product >= 1, so the largest modulus is >= 1
    lo = max(lo, Fraction(1))
    hi = min(hi, upper)
    assert lo <= hi, "certified bounds contradict the root bounds"
    return Enclosure(lo, hi)


def radius_enclosure(p: IntPolynomial, tol=DEFAULT_TOL) -> Enclosure:
    """Certified enclosure of the largest root modulus of a monic integer
    polynomial, to width <= tol.

    Exactly 1 (a zero-width enclosure) when the polynomial is a power of x
    times a product of cyclotomics.  Raises ValueError on pure powers of x
    (nilpotent spectrum; cannot arise from an invertible action), and
    ToleranceUnreachable if certification keeps failing at the highest
    working precision.

    Each rung of the precision ladder starts mpmath from the float seeds of
    the squarefree core.  A seeded rung that does not converge or does not
    certify is run again unseeded, as are all rungs after it, so a bad
    guess never changes the enclosure.
    """
    tol = _as_fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if not p.is_monic:
        raise ValueError("monic polynomial expected")
    xmult = p.trailing_zeros()
    shifted = p.shift_down(xmult)
    if shifted.degree == 0:
        raise ValueError("polynomial is a pure power of x; every root is zero")
    core, _, _ = strip_unit_circle_factors(shifted)
    if core.degree == 0:
        return Enclosure.exactly_one()
    sf = squarefree_part(core)
    upper = cauchy_root_bound(sf)
    seeds = _float_seeds(sf.coeffs)
    best: Optional[Enclosure] = None
    attempts: List[Tuple[int, bool, str]] = []
    for dps in _DPS_LADDER:
        enc = _certify_at(sf, dps, upper, seeds)
        if seeds is not None and not isinstance(enc, Enclosure):
            attempts.append((dps, True, enc))
            seeds = None
            enc = _certify_at(sf, dps, upper, None)
        seeded = seeds is not None
        if not isinstance(enc, Enclosure):
            attempts.append((dps, seeded, enc))
            continue
        if best is None or enc.width < best.width:
            best = enc
        if enc.width <= tol:
            # the core is non-cyclotomic, so by Kronecker the radius is
            # strictly above 1; a certified upper bound at 1 is a bug
            assert enc.hi > 1, "certified bound contradicts Kronecker"
            return enc
        attempts.append((dps, seeded, TOO_WIDE))
    raise ToleranceUnreachable(
        "could not certify the spectral radius to width %s (best achieved: %s)"
        % (tol, best.width if best is not None else "none"),
        best=best,
        attempts=tuple(attempts),
    )


def spectral_radius(matrix: Sequence[Sequence[int]], tol=DEFAULT_TOL) -> Enclosure:
    """Certified spectral radius of an integer matrix."""
    return radius_enclosure(char_poly(matrix), tol)


# ------------------------------------------------------------------- degrees


def _log_directed(x: Fraction, round_up: bool) -> Fraction:
    """ln(x) rounded outward; exact conversion of the mp result plus a pad
    far below any tolerance in play."""
    if x <= 0:
        raise ValueError("log of a nonpositive value")
    if x == 1:
        return Fraction(0)
    import mpmath as mp

    with mp.workdps(80):
        v = mp.log(mp.mpf(x.numerator)) - mp.log(mp.mpf(x.denominator))
        f = _mpf_to_fraction(v)
    return f + _LOG_PAD if round_up else f - _LOG_PAD


def entropy_enclosure(degrees: Sequence[Enclosure]) -> Enclosure:
    """log of the max degree.  Exactly zero iff every degree is exactly 1."""
    if not degrees:
        raise LengthMismatch("need at least one degree")
    if all(d.exact_one for d in degrees):
        return Enclosure(Fraction(0), Fraction(0))
    lo = max(d.lo for d in degrees)
    hi = max(d.hi for d in degrees)
    elo = max(_log_directed(lo, False), Fraction(0)) if lo > 0 else Fraction(0)
    ehi = _log_directed(hi, True)
    return Enclosure(elo, max(elo, ehi))


@dataclass(frozen=True)
class DegreeSequence:
    """Degrees lambda_0..lambda_k of an action, with their char polys when
    they came from an actual matrix computation (synthetic sequences used
    in tests may omit them)."""

    k: int
    degrees: Tuple[Enclosure, ...]
    char_polys: Optional[Tuple[IntPolynomial, ...]]
    entropy: Enclosure

    def __post_init__(self):
        if len(self.degrees) != self.k + 1:
            raise LengthMismatch(
                "expected %d degrees, got %d" % (self.k + 1, len(self.degrees))
            )
        if self.char_polys is not None and len(self.char_polys) != self.k + 1:
            raise LengthMismatch("char_polys length must match degrees")

    @property
    def zero_entropy_proved(self) -> bool:
        return self.entropy.exact and self.entropy.lo == 0

    @property
    def positive_entropy_proved(self) -> bool:
        if self.char_polys is not None:
            return not all(is_cyclotomic_product(cp) for cp in self.char_polys)
        return self.entropy.lo > 0

    def degree(self, i: int) -> Enclosure:
        if not 0 <= i <= self.k:
            raise IndexError("degree index out of range")
        return self.degrees[i]


def degree_sequence(k: int, degrees: Sequence[Enclosure], char_polys=None) -> DegreeSequence:
    """Assemble a DegreeSequence, deriving the entropy enclosure."""
    degs = tuple(degrees)
    return DegreeSequence(
        k=k,
        degrees=degs,
        char_polys=None if char_polys is None else tuple(char_polys),
        entropy=entropy_enclosure(degs),
    )


def dynamical_degrees(action, tol=DEFAULT_TOL) -> DegreeSequence:
    """Degrees of a validated pullback action: lambda_p is the certified
    spectral radius of the induced matrix in degree p."""
    action.ensure_valid()
    k = action.ring.config.k
    polys = []
    degs = []
    for p in range(k + 1):
        cp = char_poly(action.induce(p))
        polys.append(cp)
        degs.append(radius_enclosure(cp, tol))
    return degree_sequence(k, degs, polys)


def entropy(action, tol=DEFAULT_TOL) -> Enclosure:
    """Topological entropy of the candidate action: log max_p lambda_p."""
    return dynamical_degrees(action, tol).entropy


# ----------------------------------------------------------- property report


@dataclass(frozen=True)
class PropertyCheck:
    family: str
    description: str
    status: str
    lhs: Enclosure
    rhs: Enclosure

    def line(self) -> str:
        return "[%s] %-14s %s" % (self.status, self.family, self.description)


@dataclass(frozen=True)
class PropertyReport:
    """Interval-verified inequalities between the degrees of an action and
    its inverse: lower bounds, log-concavity, domination by lambda_1, and
    the duality lambda_i(f) = lambda_{k-i}(f^-1)."""

    action_name: str
    k: int
    forward: DegreeSequence
    backward: DegreeSequence
    checks: Tuple[PropertyCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.status == PASS for c in self.checks)

    @property
    def failures(self) -> Tuple[PropertyCheck, ...]:
        return tuple(c for c in self.checks if c.status == FAIL)

    @property
    def indeterminates(self) -> Tuple[PropertyCheck, ...]:
        return tuple(c for c in self.checks if c.status == INDETERMINATE)

    def summary(self) -> str:
        lines = [
            "degree properties of %s (k=%d): %s"
            % (self.action_name, self.k, "all pass" if self.ok else "NOT all pass")
        ]
        lines.extend("  " + c.line() for c in self.checks)
        return "\n".join(lines)


def _charpolys_equal(ds_a: DegreeSequence, i: int, ds_b: DegreeSequence, j: int) -> bool:
    if ds_a.char_polys is None or ds_b.char_polys is None:
        return False
    return ds_a.char_polys[i] == ds_b.char_polys[j]


def property_checks(forward: DegreeSequence, backward: DegreeSequence) -> Tuple[PropertyCheck, ...]:
    """The check list for a pair (degrees of f, degrees of f^-1).

    The inequality lambda_i^i >= lambda_1 is only claimed for i <= k-1: at
    i = k the left side is 1 and the claim is false whenever the entropy is
    positive.  (From log-concavity with g = log lambda, g(0) = g(k) = 0:
    i*g(i) >= g(1) needs i*(k-i) >= k-1, which holds exactly for
    1 <= i <= k-1.)
    """
    k = forward.k
    if backward.k != k:
        raise LengthMismatch("forward and backward sequences disagree on k")
    one = Enclosure.exactly_one()
    checks: List[PropertyCheck] = []

    for i in range(k + 1):
        lam = forward.degree(i)
        status = ge_status(lam, one)
        checks.append(
            PropertyCheck(
                family="lower-bound",
                description="lambda_%d >= 1" % i,
                status=status,
                lhs=lam,
                rhs=one,
            )
        )

    for i in range(1, k):
        lhs = enc_pow(forward.degree(i), 2)
        rhs = enc_mul(forward.degree(i - 1), forward.degree(i + 1))
        status = ge_status(lhs, rhs)
        if status == INDETERMINATE and lhs.exact and rhs.exact:
            status = PASS if lhs.lo >= rhs.lo else FAIL
        checks.append(
            PropertyCheck(
                family="log-concavity",
                description="lambda_%d^2 >= lambda_%d * lambda_%d" % (i, i - 1, i + 1),
                status=status,
                lhs=lhs,
                rhs=rhs,
            )
        )

    for i in range(1, k + 1):
        lhs = enc_pow(forward.degree(1), i)
        rhs = forward.degree(i)
        if i == 1:
            status = PASS  # identical quantity
        else:
            status = ge_status(lhs, rhs)
        checks.append(
            PropertyCheck(
                family="first-dominates",
                description="lambda_1^%d >= lambda_%d" % (i, i),
                status=status,
                lhs=lhs,
                rhs=rhs,
            )
        )

    for i in range(1, k):
        lhs = enc_pow(forward.degree(i), i)
        rhs = forward.degree(1)
        status = PASS if i == 1 else ge_status(lhs, rhs)
        checks.append(
            PropertyCheck(
                family="root-bound",
                description="lambda_%d^%d >= lambda_1" % (i, i),
                status=status,
                lhs=lhs,
                rhs=rhs,
            )
        )

    for i in range(k + 1):
        lhs = forward.degree(i)
        rhs = backward.degree(k - i)
        proved = _charpolys_equal(forward, i, backward, k - i)
        status = eq_status(lhs, rhs, provably_equal=proved)
        checks.append(
            PropertyCheck(
                family="inverse-duality",
                description="lambda_%d(f) == lambda_%d(f^-1)" % (i, k - i),
                status=status,
                lhs=lhs,
                rhs=rhs,
            )
        )
    return tuple(checks)


def degree_properties_report(action, tol=DEFAULT_TOL) -> PropertyReport:
    """Compute degrees for the action and its inverse and verify the
    standard inequalities with three-valued interval logic.

    The duality checks compare characteristic polynomials first: for a
    pairing-preserving action the degree-i matrix of f and the
    degree-(k-i) matrix of f^-1 are conjugate-transpose via the pairing,
    so their polynomials agree exactly and the check passes without any
    numeric comparison.
    """
    forward = dynamical_degrees(action, tol)
    backward = dynamical_degrees(action.inverse(), tol)
    return PropertyReport(
        action_name=action.name,
        k=forward.k,
        forward=forward,
        backward=backward,
        checks=property_checks(forward, backward),
    )
