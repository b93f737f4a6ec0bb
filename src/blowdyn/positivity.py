"""Positivity bookkeeping: numerical dimensions, necessary nef checks
against the standard curves, Perron-Frobenius directions, and the
consistency verdicts for a fixed nef class under a candidate action.

None of this can prove a class nef -- nef-ness of an actual blow-up needs
geometry the lattice does not see.  What it can do exactly: evaluate every
necessary intersection inequality, track who asserted what, and derive
contradictions (a validated action fixing an asserted-nef class of full
numerical dimension while having positive entropy is not realizable by an
automorphism).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import (
    HypothesisViolation,
    NotAmpleCandidate,
    RingMismatch,
    ZeroClass,
)
from .polys import is_cyclotomic_product
from .ring import GradedClass, RingModel
from .spectral import (
    DEFAULT_TOL,
    DegreeSequence,
    _as_fraction,
    char_poly,
    dynamical_degrees,
)

CONVERGED = "converged"
NO_EXPANSION = "no-expansion"
NON_CONVERGENCE = "non-convergence"


# --------------------------------------------------------------- dimensions


def numerical_dimension(x: GradedClass) -> int:
    """max { p : x^p != 0 }, capped at the ring dimension k.

    x^0 = 1, so the zero class is the only input without an answer."""
    if x.is_zero:
        raise ZeroClass("the numerical dimension of the zero class is undefined")
    ring = x.ring
    nu = 0
    acc = ring.one()
    for p in range(1, ring.k + 1):
        acc = acc * x
        if acc.is_zero:
            break
        nu = p
    return nu


def kawamata_nu(x: GradedClass, ample: GradedClass) -> int:
    """max { p : integral of x^p * A^(k-p) != 0 } against an ample
    candidate A.

    A must at least look ample: positive top self-intersection and
    *strictly* positive pairing with every standard curve.  (On the point
    blow-up of 3-space, h itself fails: it pairs to zero with the fiber
    line, and the resulting nu would silently undercount.)"""
    ring = x.ring
    if ample.ring is not ring:
        raise RingMismatch("class and ample candidate live in different rings")
    if x.is_zero:
        raise ZeroClass("kawamata_nu of the zero class is undefined")
    top = ring.integrate(ample ** ring.k)
    if top <= 0:
        raise NotAmpleCandidate(
            "top self-intersection of the ample candidate is %s, not > 0" % top
        )
    for check in _standard_curve_pairings(ample):
        if check.value <= 0:
            raise NotAmpleCandidate(
                "ample candidate pairs %s with %s (need > 0)"
                % (check.value, check.label)
            )
    nu = 0
    for p in range(0, ring.k + 1):
        if not ring.integrate((x**p) * (ample ** (ring.k - p))) == 0:
            nu = p
    cap = numerical_dimension(x)
    # x^p = 0 forces every integral against it to vanish
    assert nu <= cap, "kawamata nu exceeded the numerical dimension"
    return nu


# ---------------------------------------------------------------- nef checks


@dataclass(frozen=True)
class CurvePairing:
    label: str
    value: Fraction
    ok: bool


@dataclass(frozen=True)
class NefCheckReport:
    """Pairings of a degree-1 class against the curves every nef class
    must meet nonnegatively: the generic line, the fiber lines of each
    center, and strict transforms of lines through point centers."""

    checks: Tuple[CurvePairing, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> Tuple[CurvePairing, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def summary(self) -> str:
        lines = ["nef necessary checks: %s" % ("pass" if self.passed else "FAIL")]
        for c in self.checks:
            lines.append("  [%s] %-34s %s" % ("ok" if c.ok else "XX", c.label, c.value))
        return "\n".join(lines)


@dataclass(frozen=True)
class NefAssertion:
    """A class together with the claim that it is nef.

    The necessary checks can never prove the claim, only refute it, so
    asserting nef-ness over a failed report is refusing arithmetic and is
    rejected outright."""

    cls: GradedClass
    asserted_nef: bool
    report: NefCheckReport

    def __post_init__(self):
        if self.asserted_nef and not self.report.passed:
            raise HypothesisViolation(
                "cannot assert nef-ness: a necessary intersection check fails"
            )


def _standard_curves(ring: RingModel) -> List[Tuple[str, GradedClass]]:
    k = ring.k
    curves: List[Tuple[str, GradedClass]] = [("generic line h^%d" % (k - 1), ring.h() ** (k - 1))]
    for i in range(1, ring.m + 1):
        r = ring.config.centers[i - 1]
        j = ring.integrate((ring.h() ** r) * (ring.e(i) ** (k - r)))
        scale = Fraction(-1, 1) / j
        fiber = ((ring.h() ** r) * (ring.e(i) ** (k - r - 1))) * scale
        curves.append(("fiber line of center %d" % i, fiber))
        if r == 0:
            curves.append(
                ("line through center %d" % i, ring.h() ** (k - 1) - fiber)
            )
    return curves


def _standard_curve_pairings(x: GradedClass, extra=()):
    ring = x.ring
    out = []
    for label, curve in list(_standard_curves(ring)) + list(extra):
        v = ring.integrate(x * curve)
        out.append(CurvePairing(label=label, value=v, ok=v >= 0))
    return out


def nef_necessary_check(x: GradedClass, extra_curves: Sequence[Tuple[str, GradedClass]] = ()) -> NefAssertion:
    """Run the necessary pairings for x and wrap the result.

    The returned assertion has asserted_nef set to the conjunction of the
    checks; callers wanting a weaker claim can rebuild the assertion by
    hand.  The zero class passes vacuously (every pairing is 0)."""
    if not (x.is_zero or x.is_homogeneous(1)):
        raise ValueError("nef checks here apply to degree-1 classes")
    for label, curve in extra_curves:
        if curve.ring is not x.ring:
            raise RingMismatch("extra curve %r lives in a different ring" % label)
    report = NefCheckReport(checks=tuple(_standard_curve_pairings(x, extra_curves)))
    return NefAssertion(cls=x, asserted_nef=report.passed, report=report)


# ------------------------------------------------------- Perron-Frobenius


@dataclass(frozen=True)
class PFReport:
    """Outcome of power iteration on the degree-1 induced matrix.

    status is one of "converged", "no-expansion", "non-convergence";
    non-convergence is an honest outcome (reported, not fatal)."""

    status: str
    iterations: int
    eigenvalue_estimate: Optional[Fraction]
    residual: Optional[Fraction]
    vector: Optional[Tuple[Fraction, ...]]
    nef: Optional[NefAssertion]

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


def _power_iteration(matrix, start: Sequence[int], tol: Fraction, max_iter: int):
    """Exact power iteration on an integer matrix.

    Keeps the unnormalized integer vector M^n v0 (no rational blowup) and
    measures the directional residual ||Mv - rayleigh*v|| / ||v|| exactly.
    Returns (status, iterations, rayleigh, residual, normalized vector)."""
    n = len(matrix)
    v = [int(c) for c in start]
    best_res: Optional[Fraction] = None
    rayleigh: Optional[Fraction] = None
    for it in range(1, max_iter + 1):
        w = [sum(matrix[i][j] * v[j] for j in range(n)) for i in range(n)]
        dot_vv = sum(c * c for c in v)
        if dot_vv == 0:
            return NON_CONVERGENCE, it, None, None, None
        ray = Fraction(sum(a * b for a, b in zip(w, v)), dot_vv)
        norm_v = max(abs(c) for c in v)
        res = max(abs(Fraction(wi) - ray * vi) for wi, vi in zip(w, v)) / norm_v
        rayleigh, best_res = ray, res if best_res is None or res < best_res else best_res
        if res <= tol:
            norm_w = max(abs(c) for c in w)
            vec = tuple(Fraction(c, norm_w) for c in w)
            if vec[0] < 0:
                vec = tuple(-c for c in vec)
            return CONVERGED, it, ray, res, vec
        v = w
        # keep the integers from growing without bound on slow problems
        g = 0
        for c in v:
            g = _int_gcd(g, c)
        if g > 1:
            v = [c // g for c in v]
    norm_v = max(abs(c) for c in v)
    vec = tuple(Fraction(c, norm_v) for c in v)
    if vec[0] < 0:
        vec = tuple(-c for c in vec)
    return NON_CONVERGENCE, max_iter, rayleigh, best_res, vec


def _int_gcd(a: int, b: int) -> int:
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def pf_eigenvector(action, tol=Fraction(1, 10**9), max_iter: int = 1000) -> PFReport:
    """Approximate the expanding direction of a validated action.

    If the degree-1 characteristic polynomial is a product of cyclotomics,
    the spectral radius is exactly 1 (Kronecker): there is nothing to
    expand toward and the status is "no-expansion".
    Otherwise iterate from h; on convergence the rationalized direction is
    run through the nef necessary checks (the limit class of an actual
    automorphism would have to be nef)."""
    action.ensure_valid()
    tol = _as_fraction(tol)
    ring = action.ring
    matrix = action.induce(1)
    if is_cyclotomic_product(char_poly(matrix)):
        return PFReport(
            status=NO_EXPANSION,
            iterations=0,
            eigenvalue_estimate=Fraction(1),
            residual=None,
            vector=None,
            nef=None,
        )
    start = [1] + [0] * ring.m
    status, its, ray, res, vec = _power_iteration(matrix, start, tol, max_iter)
    nef = None
    if status == CONVERGED:
        nef_class = ring.parse_class(list(vec))
        report = NefCheckReport(checks=tuple(_standard_curve_pairings(nef_class)))
        nef = NefAssertion(cls=nef_class, asserted_nef=report.passed, report=report)
    return PFReport(
        status=status,
        iterations=its,
        eigenvalue_estimate=ray,
        residual=res,
        vector=vec,
        nef=nef,
    )


# ------------------------------------------------------ fixed nef classes


CONSISTENT = "Consistent"
NOT_REALIZABLE = "NotRealizable"
HYPOTHESES_NOT_MET = "HypothesesNotMet"


@dataclass(frozen=True)
class DescentCheck:
    """First step of the contradiction: the expanding direction beta must
    pair to zero against x^(k-1) when x is fixed and lambda_1 > 1."""

    value: Fraction
    threshold: Fraction
    ok: bool
    note: str


@dataclass(frozen=True)
class FixedClassVerdict:
    status: str
    reasons: Tuple[str, ...]
    degrees: Optional[DegreeSequence]
    descent: Optional[DescentCheck]

    def summary(self) -> str:
        lines = ["fixed nef class verdict: %s" % self.status]
        for rline in self.reasons:
            lines.append("  - " + rline)
        if self.degrees is not None:
            lo, hi = self.degrees.entropy.decimal_bounds()
            lines.append("  entropy enclosure: [%s, %s]" % (lo, hi))
        if self.descent is not None:
            lines.append(
                "  descent pairing: %s (|.| <= %.3e: %s)"
                % (self.descent.value, float(self.descent.threshold), "ok" if self.descent.ok else "VIOLATED")
            )
        return "\n".join(lines)


def verify_fixed_nef_class(action, assertion: NefAssertion, tol=DEFAULT_TOL) -> FixedClassVerdict:
    """Check the hypotheses 'f*alpha = alpha, alpha nef (asserted),
    nu(alpha) >= k-1' against a validated action and derive the verdict.

    With the hypotheses met, zero entropy (proved cyclotomically) is
    Consistent; provably positive entropy means no automorphism realizes
    this data, and the expanding direction is additionally checked to pair
    to zero with alpha^(k-1) -- the first step of the argument that forces
    the contradiction."""
    action.ensure_valid()
    ring = action.ring
    alpha = assertion.cls
    if alpha.ring is not ring:
        raise RingMismatch("class and action live in different rings")
    k = ring.k
    reasons: List[str] = []
    if alpha.is_zero:
        reasons.append("alpha = 0 (the zero class fixes nothing of interest)")
    else:
        pulled = action.apply(alpha) if alpha.is_homogeneous(1) else None
        if pulled is None:
            reasons.append("alpha is not a degree-1 class")
        elif pulled != alpha:
            reasons.append("f*α ≠ α (the action moves the class)")
    if not assertion.asserted_nef:
        reasons.append("nef-ness of alpha is not asserted")
    if not alpha.is_zero and alpha.is_homogeneous(1):
        nu = numerical_dimension(alpha.degree_part(1))
        if nu < k - 1:
            reasons.append("nu(alpha) = %d < k-1 = %d" % (nu, k - 1))
    if reasons:
        return FixedClassVerdict(
            status=HYPOTHESES_NOT_MET, reasons=tuple(reasons), degrees=None, descent=None
        )
    degrees = dynamical_degrees(action, tol)
    if degrees.zero_entropy_proved:
        return FixedClassVerdict(
            status=CONSISTENT,
            reasons=("entropy is exactly zero; nothing obstructs realizability",),
            degrees=degrees,
            descent=None,
        )
    # positive entropy with a fixed nef class of full numerical dimension:
    # the data cannot come from an automorphism
    descent = None
    pf = pf_eigenvector(action, tol=tol)
    if pf.converged:
        beta = ring.parse_class(list(pf.vector))
        value = ring.integrate((alpha ** (k - 1)) * beta)
        functional = alpha ** (k - 1)
        weight = sum(abs(c) for c in functional.coefficients(k - 1)) * (ring.m + 1) * ring.k
        threshold = pf.residual * max(weight, 1)
        descent = DescentCheck(
            value=value,
            threshold=threshold,
            ok=abs(value) <= threshold,
            note="integral alpha^%d.beta against the approximate expanding direction" % (k - 1),
        )
    return FixedClassVerdict(
        status=NOT_REALIZABLE,
        reasons=(
            "entropy is provably positive while f fixes an asserted-nef class "
            "with nu(alpha) >= k-1: no automorphism realizes this action",
        ),
        degrees=degrees,
        descent=descent,
    )


# ----------------------------------------------------------------- weak Fano


@dataclass(frozen=True)
class WeakFanoReport:
    anticanonical: GradedClass
    top_intersection: Fraction
    big_ok: bool
    nef: NefAssertion
    consistent: bool

    def summary(self) -> str:
        return (
            "weak Fano check: (-K)^k = %s (%s), nef necessary checks %s => %s"
            % (
                self.top_intersection,
                "big" if self.big_ok else "NOT big",
                "pass" if self.nef.report.passed else "FAIL",
                "consistent" if self.consistent else "inconsistent",
            )
        )


def weak_fano_report(ring: RingModel) -> WeakFanoReport:
    """Is -K plausibly nef and big here?  Exact necessary conditions only:
    (-K)^k > 0 and nonnegative pairing with the standard curves."""
    anti = -ring.canonical_class()
    top = ring.integrate(anti ** ring.k)
    nef = nef_necessary_check(anti)
    big_ok = top > 0
    return WeakFanoReport(
        anticanonical=anti,
        top_intersection=top,
        big_ok=big_ok,
        nef=nef,
        consistent=big_ok and nef.report.passed,
    )
