"""Characteristic polynomials, certified radius enclosures, degree
sequences, and the degree-property report.

The headline regression pins the Lehmer number: the ten-point Coxeter
candidate on the plane must produce a first dynamical degree inside the
window computed by the independent bisection oracle in tests/oracles.py,
and its entropy inside the corresponding log window.
"""

import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowdyn.actions import PullbackAction, identity_action
from blowdyn.errors import LengthMismatch, ToleranceUnreachable
from blowdyn.lattices import (
    coxeter_action,
    coxeter_matrix,
    cremona_action,
    permutation_action,
    reflection_matrix,
    weyl_roots,
)
from blowdyn.polys import (
    LEHMER_POLYNOMIAL,
    IntPolynomial,
    cauchy_root_bound,
    cyclotomic,
    is_cyclotomic_product,
    squarefree_part,
    strip_unit_circle_factors,
)
from blowdyn.ring import BlowupConfig, build_ring
import blowdyn.spectral as spectral
from blowdyn.spectral import (
    _DPS_LADDER,
    FAIL,
    INDETERMINATE,
    NO_CONVERGENCE,
    PASS,
    TOO_WIDE,
    DegreeSequence,
    _certified_radius_bounds,
    _float_seeds,
    Enclosure,
    char_poly,
    degree_properties_report,
    degree_sequence,
    directed_decimal,
    dynamical_degrees,
    enc_mul,
    enc_pow,
    entropy,
    entropy_enclosure,
    eq_status,
    ge_status,
    property_checks,
    radius_enclosure,
    spectral_radius,
)

from tests.oracles import bisect_largest_real_root, log_enclosure

GOLDEN_POLY = IntPolynomial((-1, -1, 1))


def ring2(m):
    return build_ring(BlowupConfig(2, (0,) * m))


# ------------------------------------------------------------------ charpoly


class TestCharPoly:
    def test_one_by_one(self):
        assert char_poly(((5,),)).coeffs == (-5, 1)

    def test_companion_of_golden(self):
        assert char_poly(((0, 1), (1, 1))) == GOLDEN_POLY

    def test_diagonal(self):
        assert char_poly(((2, 0), (0, 3))).coeffs == (6, -5, 1)

    def test_empty_matrix(self):
        assert char_poly(()).coeffs == (1,)

    def test_non_square_rejected(self):
        with pytest.raises(LengthMismatch):
            char_poly(((1, 2),))

    def test_nilpotent_block(self):
        assert char_poly(((0, 1), (0, 0))).coeffs == (0, 0, 1)

    def test_against_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(11)
        x = sympy.Symbol("x")
        for _ in range(20):
            n = rng.randint(1, 5)
            m = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
            ours = char_poly(m)
            theirs = sympy.Matrix(m).charpoly(x).all_coeffs()  # descending
            assert list(ours.coeffs) == [int(c) for c in reversed(theirs)]

    def test_trace_and_det_signs(self):
        rng = random.Random(3)
        for _ in range(10):
            n = rng.randint(2, 4)
            m = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
            p = char_poly(m)
            assert p.coeffs[-1] == 1
            assert p.coeffs[-2] == -sum(m[i][i] for i in range(n))

    def test_permutation_action_closed_form(self):
        # every induced matrix of a center permutation is a permutation
        # matrix, whose char poly is prod (x^l - 1) over its cycle lengths l
        ring = build_ring(BlowupConfig(24, (10, 10, 8, 8, 4, 4, 1, 1, 0, 0)))
        action = permutation_action(ring, (1, 0, 3, 2, 5, 4, 7, 6, 9, 8))
        ranks = []
        for p in range(ring.k + 1):
            m = action.induce(p)
            target = [row.index(1) for row in m]
            assert sorted(target) == list(range(len(m)))
            assert all(sum(row) == 1 for row in m)
            want, seen = IntPolynomial.one(), set()
            for start in range(len(m)):
                length, i = 0, start
                while i not in seen:
                    seen.add(i)
                    i, length = target[i], length + 1
                if length:
                    want = want * (IntPolynomial.x_power(length) - IntPolynomial.one())
            assert char_poly(m) == want
            ranks.append(len(m))
        assert max(ranks) == 57


@st.composite
def _square_matrices(draw):
    """Integer matrices, n <= 12: zero, sparse, full, permutation, or block
    upper triangular, with entries up to 10^30 in absolute value."""
    n = draw(st.integers(1, 12))
    bound = draw(st.sampled_from((1, 9, 10**6, 10**30)))
    entry = st.integers(-bound, bound)
    kind = draw(st.sampled_from(("zero", "sparse", "full", "permutation", "block")))
    if kind == "zero":
        return [[0] * n for _ in range(n)]
    if kind == "permutation":
        perm = draw(st.permutations(range(n)))
        return [[int(j == perm[i]) for j in range(n)] for i in range(n)]
    cells = {(i, j) for i in range(n) for j in range(n)}
    if kind == "sparse":
        cells = draw(st.sets(st.sampled_from(sorted(cells)), max_size=2 * n))
    elif kind == "block":
        split = draw(st.integers(0, n))
        cells = {(i, j) for i, j in cells if i < split or j >= split}
    m = [[0] * n for _ in range(n)]
    for i, j in sorted(cells):
        m[i][j] = draw(entry)
    return m


@settings(max_examples=150, deadline=None)
@given(m=_square_matrices())
def test_char_poly_matches_sympy(m):
    """Differential check of the sparse Berkowitz recurrence against sympy."""
    sympy = pytest.importorskip("sympy")
    theirs = sympy.Matrix(m).charpoly(sympy.Symbol("x")).all_coeffs()  # descending
    assert list(char_poly(m).coeffs) == [int(c) for c in reversed(theirs)]


# ----------------------------------------------------------------- enclosure


class TestEnclosure:
    def test_validation(self):
        with pytest.raises(ValueError):
            Enclosure(Fraction(2), Fraction(1))
        with pytest.raises(ValueError):
            Enclosure(Fraction(-1), Fraction(1))

    def test_exactness(self):
        one = Enclosure.exactly_one()
        assert one.exact and one.exact_one and one.width == 0
        e = Enclosure(Fraction(1), Fraction(2))
        assert not e.exact
        assert e.width == 1
        assert Fraction(3, 2) in e
        assert Fraction(3) not in e

    def test_exactly(self):
        e = Enclosure.exactly("5/3")
        assert e.exact and e.lo == Fraction(5, 3)
        assert not e.exact_one

    def test_pow_and_mul(self):
        e = Enclosure(Fraction(2), Fraction(3))
        assert enc_pow(e, 2) == Enclosure(Fraction(4), Fraction(9))
        assert enc_mul(e, e) == Enclosure(Fraction(4), Fraction(9))
        with pytest.raises(ValueError):
            enc_pow(e, -1)

    def test_decimal_bounds_round_outward(self):
        e = Enclosure(Fraction(1, 3), Fraction(2, 3))
        lo, hi = e.decimal_bounds(4)
        assert lo == "0.3333"  # floor
        assert hi == "0.6667"  # ceil
        assert Fraction(lo) <= e.lo and e.hi <= Fraction(hi)

    def test_decimal_bounds_exact_values_do_not_move(self):
        e = Enclosure(Fraction(1, 4), Fraction(1, 4))
        assert e.decimal_bounds(3) == ("0.250", "0.250")

    def test_directed_decimal_negative_and_zero_digits(self):
        assert directed_decimal(Fraction(-1, 3), 4, round_up=False) == "-0.3334"
        assert directed_decimal(Fraction(-1, 3), 4, round_up=True) == "-0.3333"
        assert directed_decimal(Fraction(7, 2), 0, round_up=False) == "3"
        assert directed_decimal(Fraction(7, 2), 0, round_up=True) == "4"
        with pytest.raises(ValueError):
            directed_decimal(Fraction(1), -1, round_up=False)

    def test_ge_status(self):
        a = Enclosure(Fraction(2), Fraction(3))
        b = Enclosure(Fraction(1), Fraction(2))
        assert ge_status(a, b) == PASS
        assert ge_status(b, a) == INDETERMINATE  # touch at 2
        assert ge_status(Enclosure(Fraction(0), Fraction(1, 2)), a) == FAIL

    def test_eq_status(self):
        a = Enclosure.exactly(2)
        b = Enclosure.exactly(2)
        c = Enclosure.exactly(3)
        wide = Enclosure(Fraction(1), Fraction(4))
        assert eq_status(a, b) == PASS
        assert eq_status(a, c) == FAIL
        assert eq_status(a, wide) == INDETERMINATE
        assert eq_status(a, wide, provably_equal=True) == PASS
        assert eq_status(wide, Enclosure(Fraction(5), Fraction(6))) == FAIL


# ------------------------------------------------------------------- radius


class TestRadiusEnclosure:
    def test_cyclotomic_input_is_exactly_one(self):
        p = cyclotomic(1) * cyclotomic(12) * IntPolynomial.x_power(2)
        enc = radius_enclosure(p)
        assert enc.exact_one

    def test_golden_ratio_against_oracle(self):
        enc = radius_enclosure(GOLDEN_POLY, tol=Fraction(1, 10**9))
        lo, hi = bisect_largest_real_root([-1, -1, 1], 1, 2, digits=30)
        assert enc.width <= Fraction(1, 10**9)
        # oracle window and certified window must overlap, and since the
        # certified one is far tighter it must sit inside the oracle's
        assert lo <= enc.lo and enc.hi <= hi

    def test_lehmer_against_oracle(self):
        enc = radius_enclosure(LEHMER_POLYNOMIAL, tol=Fraction(1, 10**9))
        lo, hi = bisect_largest_real_root(list(LEHMER_POLYNOMIAL.coeffs), 1, 2, digits=30)
        assert lo <= enc.lo and enc.hi <= hi

    def test_pure_x_power_rejected(self):
        with pytest.raises(ValueError):
            radius_enclosure(IntPolynomial.x_power(3))

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            radius_enclosure(IntPolynomial((1, 2)))

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            radius_enclosure(GOLDEN_POLY, tol=0)

    def test_unreachable_tolerance(self):
        with pytest.raises(ToleranceUnreachable) as exc:
            radius_enclosure(GOLDEN_POLY, tol=Fraction(1, 10**3000))
        best = exc.value.best
        assert best is not None
        assert best.width < Fraction(1, 10**100)
        assert Fraction("1.618033988") < best.lo < best.hi < Fraction("1.618033989")
        attempts = exc.value.attempts
        assert [dps for dps, _, _ in attempts] == list(_DPS_LADDER)
        assert all(outcome == TOO_WIDE for _, _, outcome in attempts)
        assert attempts[0][1] is True

    def test_salem_times_cyclotomic_same_radius(self):
        plain = radius_enclosure(LEHMER_POLYNOMIAL)
        mixed = radius_enclosure(LEHMER_POLYNOMIAL * cyclotomic(4) * cyclotomic(1))
        # both enclose the same number
        assert max(plain.lo, mixed.lo) <= min(plain.hi, mixed.hi)

    def test_float_tolerance_accepted(self):
        enc = radius_enclosure(GOLDEN_POLY, tol=1e-6)
        assert enc.width <= Fraction(1, 10**6)

    def test_spectral_radius_of_matrix(self):
        enc = spectral_radius(((0, 1), (1, 1)))
        assert Fraction("1.6180339887") < enc.lo < enc.hi < Fraction("1.6180339888")

    def test_identity_matrix(self):
        assert spectral_radius(((1, 0), (0, 1))).exact_one

    def test_pisot_quadratic_family(self):
        for n in range(1, 5):
            p = IntPolynomial((-1, -n, 1))
            enc = radius_enclosure(p)
            # root is (n + sqrt(n^2+4))/2; check against the oracle
            lo, hi = bisect_largest_real_root([-1, -n, 1], 1, n + 2, digits=25)
            assert lo <= enc.lo and enc.hi <= hi


class TestCertification:
    """The integer disk test behind every non-trivial enclosure."""

    SQRT2_POLY = IntPolynomial((-2, 0, 1))

    @staticmethod
    def points(*values):
        with mp.workdps(40):
            return [mp.mpc(mp.mpf(v)) for v in values]

    def test_good_approximations_certify(self):
        with mp.workdps(40):
            roots = [mp.mpc(mp.sqrt(2)), mp.mpc(-mp.sqrt(2))]
        lo, hi = _certified_radius_bounds(self.SQRT2_POLY, roots)
        assert lo * lo < 2 < hi * hi
        assert hi - lo < Fraction(1, 10**30)

    def test_coincident_approximations_rejected(self):
        assert _certified_radius_bounds(self.SQRT2_POLY, self.points("1.5", "1.5")) is None

    def test_overlapping_disks_rejected(self):
        # radii 2|p/p'| are about 0.029 and 0.167 against a gap of 0.1
        assert _certified_radius_bounds(self.SQRT2_POLY, self.points("1.4", "1.5")) is None

    def test_vanishing_derivative_rejected(self):
        assert _certified_radius_bounds(self.SQRT2_POLY, self.points("0", "1.4")) is None

    @pytest.mark.parametrize("poly", [GOLDEN_POLY, LEHMER_POLYNOMIAL, IntPolynomial((-1, -1, 0, 1))])
    def test_endpoints_are_dyadic(self, poly):
        for tol in (Fraction(1, 10**9), Fraction(1, 10**60)):
            enc = radius_enclosure(poly, tol)
            for end in (enc.lo, enc.hi):
                d = end.denominator
                assert d & (d - 1) == 0, end


class TestWarmStart:
    """mp.polyroots starts from hardware-float Durand-Kerner seeds; the
    certified enclosures must be exactly those of the unseeded ladder."""

    HUGE_MIDDLE = IntPolynomial((-1, 0, -10**120, 1))  # x^3 - 10^120 x^2 - 1

    @staticmethod
    def core(p):
        shifted = p.shift_down(p.trailing_zeros())
        return squarefree_part(strip_unit_circle_factors(shifted)[0])

    @staticmethod
    def unseeded_enclosure(sf, tol, cache):
        """The precision ladder with plain mp.polyroots calls, no seeds."""
        for dps in _DPS_LADDER:
            if dps not in cache:
                try:
                    with mp.workdps(dps):
                        coeffs = [mp.mpf(c) for c in reversed(sf.coeffs)]
                        roots = mp.polyroots(coeffs, maxsteps=200, extraprec=120)
                except mp.libmp.libhyper.NoConvergence:
                    cache[dps] = None
                    continue
                cache[dps] = _certified_radius_bounds(sf, roots)
            if cache[dps] is None:
                continue
            lo, hi = cache[dps]
            enc = Enclosure(max(lo, Fraction(1)), min(hi, cauchy_root_bound(sf)))
            if enc.width <= tol:
                return enc
        raise AssertionError("the unseeded ladder did not reach tol")

    @pytest.mark.parametrize(
        "poly",
        [LEHMER_POLYNOMIAL]
        + [IntPolynomial((-1, -n, 1)) for n in range(1, 5)]
        + [char_poly(coxeter_matrix(m)) for m in (10, 20, 40)],
        ids=["lehmer"] + ["pisot%d" % n for n in range(1, 5)] + ["c10", "c20", "c40"],
    )
    def test_seeded_matches_unseeded(self, poly):
        sf = self.core(poly)
        assert _float_seeds(sf.coeffs) is not None
        cache = {}
        for tol in (Fraction(1, 10**9), Fraction(1, 10**60)):
            assert radius_enclosure(poly, tol) == self.unseeded_enclosure(sf, tol, cache)

    def test_float_overflow_gives_no_seeds(self):
        assert _float_seeds(self.HUGE_MIDDLE.coeffs) is None
        assert _float_seeds((-1, -10**309, 1)) is None

    def test_huge_coefficient_still_certified(self):
        enc = radius_enclosure(self.HUGE_MIDDLE)
        assert enc.width <= Fraction(1, 10**9)
        # the largest root is 10^120 + 10^-240 + ...
        assert 10**120 < enc.hi and enc.lo < 10**120 + 1

    def test_bad_seeds_fall_back_to_unseeded(self, monkeypatch):
        plain = radius_enclosure(LEHMER_POLYNOMIAL)
        # all seeds on one point: mpmath's iteration cannot separate them
        monkeypatch.setattr(spectral, "_float_seeds", lambda coeffs: [1.5 + 0j] * (len(coeffs) - 1))
        calls = []
        real = mp.polyroots

        def spy(*args, **kwargs):
            calls.append((mp.mp.dps, kwargs.get("roots_init") is not None))
            return real(*args, **kwargs)

        monkeypatch.setattr(mp, "polyroots", spy)
        assert radius_enclosure(LEHMER_POLYNOMIAL) == plain
        assert calls == [(60, True), (60, False)]

    def test_fallback_recorded_in_attempts(self, monkeypatch):
        monkeypatch.setattr(spectral, "_float_seeds", lambda coeffs: [1.5 + 0j] * (len(coeffs) - 1))
        with pytest.raises(ToleranceUnreachable) as exc:
            radius_enclosure(LEHMER_POLYNOMIAL, tol=Fraction(1, 10**3000))
        assert exc.value.attempts == (
            (60, True, NO_CONVERGENCE),
            (60, False, TOO_WIDE),
            (120, False, TOO_WIDE),
            (240, False, TOO_WIDE),
            (480, False, TOO_WIDE),
        )


# ------------------------------------------------------------------- degrees


class TestEntropyEnclosure:
    def test_all_exact_one(self):
        e = entropy_enclosure([Enclosure.exactly_one()] * 3)
        assert e.exact and e.lo == 0

    def test_needs_input(self):
        with pytest.raises(LengthMismatch):
            entropy_enclosure([])

    def test_log_of_golden(self):
        g = radius_enclosure(GOLDEN_POLY)
        e = entropy_enclosure([Enclosure.exactly_one(), g, Enclosure.exactly_one()])
        lo, hi = log_enclosure(g.lo, g.hi, digits=30)
        assert max(e.lo, lo) <= min(e.hi, hi)
        assert e.lo > Fraction("0.48")
        assert e.hi < Fraction("0.482")

    def test_clipped_at_zero(self):
        e = entropy_enclosure([Enclosure(Fraction(1), Fraction(1) + Fraction(1, 10**20))])
        assert e.lo == 0
        assert e.hi > 0


class TestDegreeSequence:
    def test_length_checked(self):
        with pytest.raises(LengthMismatch):
            DegreeSequence(
                k=2,
                degrees=(Enclosure.exactly_one(),),
                char_polys=None,
                entropy=Enclosure.exactly(0),
            )

    def test_synthetic_positive_entropy(self):
        g = Enclosure(Fraction(3, 2), Fraction(8, 5))
        ds = degree_sequence(2, [Enclosure.exactly_one(), g, Enclosure.exactly_one()])
        assert ds.positive_entropy_proved
        assert not ds.zero_entropy_proved
        assert ds.entropy.lo > 0

    def test_zero_entropy_proved(self):
        ds = degree_sequence(1, [Enclosure.exactly_one()] * 2)
        assert ds.zero_entropy_proved
        assert not ds.positive_entropy_proved
        assert ds.entropy == Enclosure(Fraction(0), Fraction(0))

    def test_degree_indexing(self):
        ds = degree_sequence(1, [Enclosure.exactly_one()] * 2)
        assert ds.degree(0).exact_one
        with pytest.raises(IndexError):
            ds.degree(5)


class TestDynamicalDegrees:
    def test_identity_on_f1(self):
        ring = build_ring(BlowupConfig(2, (0,)))
        ds = dynamical_degrees(identity_action(ring))
        assert all(d.exact_one for d in ds.degrees)
        assert ds.zero_entropy_proved
        assert all(is_cyclotomic_product(cp) for cp in ds.char_polys)

    def test_identity_on_point_blowup_of_threespace(self):
        ring = build_ring(BlowupConfig(3, (0,)))
        ds = dynamical_degrees(identity_action(ring))
        assert ds.k == 3
        assert len(ds.degrees) == 4
        assert ds.zero_entropy_proved

    def test_cremona_is_finite_order(self):
        ds = dynamical_degrees(cremona_action(ring2(3)))
        assert ds.zero_entropy_proved
        assert all(is_cyclotomic_product(cp) for cp in ds.char_polys)

    def test_permutation_entropy_zero(self):
        ring = build_ring(BlowupConfig(3, (1, 1, 0, 0)))
        f = permutation_action(ring, [1, 0, 3, 2])
        ds = dynamical_degrees(f)
        assert ds.zero_entropy_proved
        assert ds.entropy.exact and ds.entropy.lo == 0
        assert all(is_cyclotomic_product(cp) for cp in ds.char_polys)

    def test_entropy_helper_matches(self):
        ring = ring2(3)
        f = cremona_action(ring)
        assert entropy(f) == dynamical_degrees(f).entropy

    def test_unvalidated_action_rejected(self):
        ring = build_ring(BlowupConfig(3, ()))
        flip = PullbackAction(ring, ((-1,),), name="anti")
        from blowdyn.errors import NotValidated

        with pytest.raises(NotValidated):
            dynamical_degrees(flip)


LEHMER_WINDOW_LO = Fraction("1.176280818")
LEHMER_WINDOW_HI = Fraction("1.176280819")
ENTROPY_WINDOW_LO = Fraction("0.162357612")
ENTROPY_WINDOW_HI = Fraction("0.162357613")


@pytest.fixture(scope="module")
def ds():
    return dynamical_degrees(coxeter_action(ring2(10)), tol=Fraction(1, 10**9))


class TestLehmerRegression:
    """The ten-point Coxeter candidate realizes Lehmer's number."""

    def test_first_degree_in_window(self, ds):
        lam = ds.degrees[1]
        assert lam.width <= Fraction(1, 10**9)
        assert LEHMER_WINDOW_LO <= lam.lo <= lam.hi <= LEHMER_WINDOW_HI

    def test_first_degree_against_bisection_oracle(self, ds):
        lo, hi = bisect_largest_real_root(list(LEHMER_POLYNOMIAL.coeffs), 1, 2, digits=30)
        lam = ds.degrees[1]
        assert lo <= lam.lo and lam.hi <= hi

    def test_outer_degrees_exactly_one(self, ds):
        assert ds.degrees[0].exact_one
        assert ds.degrees[2].exact_one

    def test_entropy_in_window(self, ds):
        assert ENTROPY_WINDOW_LO <= ds.entropy.lo <= ds.entropy.hi <= ENTROPY_WINDOW_HI

    def test_entropy_against_log_oracle(self, ds):
        lam = ds.degrees[1]
        lo, hi = log_enclosure(lam.lo, lam.hi, digits=30)
        assert max(lo, ds.entropy.lo) <= min(hi, ds.entropy.hi)

    def test_char_poly_divisible_by_lehmer(self, ds):
        cp = ds.char_polys[1]
        assert cp.degree == 11
        quotient = cp.divexact(LEHMER_POLYNOMIAL)
        assert quotient == cyclotomic(1)  # the factor fixing the canonical class

    def test_positive_entropy_proved(self, ds):
        assert ds.positive_entropy_proved


# ----------------------------------------------------------- property report


class TestPropertyReport:
    def test_identity_everything_passes(self):
        ring = build_ring(BlowupConfig(3, (1,)))
        rep = degree_properties_report(identity_action(ring))
        assert rep.ok
        assert not rep.failures and not rep.indeterminates
        assert "all pass" in rep.summary()

    def test_families_present_with_expected_counts(self):
        ring = build_ring(BlowupConfig(4, (1, 0)))
        rep = degree_properties_report(identity_action(ring))
        k = 4
        by_family = {}
        for c in rep.checks:
            by_family.setdefault(c.family, []).append(c)
        assert len(by_family["lower-bound"]) == k + 1
        assert len(by_family["log-concavity"]) == k - 1
        assert len(by_family["first-dominates"]) == k
        # the root bound is only claimed below the top degree
        assert len(by_family["root-bound"]) == k - 1
        assert len(by_family["inverse-duality"]) == k + 1
        assert not any("lambda_%d^%d >= lambda_1" % (k, k) in c.description for c in rep.checks)

    def test_coxeter_report_all_pass(self):
        rep = degree_properties_report(coxeter_action(ring2(10)))
        assert rep.ok
        duality = [c for c in rep.checks if c.family == "inverse-duality"]
        assert duality and all(c.status == PASS for c in duality)

    def test_permutation_report_all_pass(self):
        ring = build_ring(BlowupConfig(5, (2, 2, 2)))
        rep = degree_properties_report(permutation_action(ring, [2, 0, 1]))
        assert rep.ok

    def test_duality_uses_exact_path_not_intervals(self):
        # strip the char polys from the Coxeter degree data: the duality
        # check at i=1 then has only overlapping intervals to work with
        ds = dynamical_degrees(coxeter_action(ring2(10)))
        stripped = DegreeSequence(
            k=ds.k, degrees=ds.degrees, char_polys=None, entropy=ds.entropy
        )
        checks = property_checks(stripped, stripped)
        middle = [
            c
            for c in checks
            if c.family == "inverse-duality" and "lambda_1(f) ==" in c.description
        ]
        assert middle[0].status == INDETERMINATE
        # with polynomials present the same comparison is exact
        full = [
            c
            for c in property_checks(ds, ds)
            if c.family == "inverse-duality" and "lambda_1(f) ==" in c.description
        ]
        assert full[0].status == PASS

    def test_synthetic_failure_detected(self):
        # a "sequence" that violates log-concavity: 1, 1, 2 with exact values
        degs = (
            Enclosure.exactly_one(),
            Enclosure.exactly_one(),
            Enclosure.exactly(2),
        )
        ds = degree_sequence(2, degs)
        checks = property_checks(ds, ds)
        concavity = [c for c in checks if c.family == "log-concavity"]
        assert concavity[0].status == FAIL

    def test_mismatched_k_rejected(self):
        a = degree_sequence(1, [Enclosure.exactly_one()] * 2)
        b = degree_sequence(2, [Enclosure.exactly_one()] * 3)
        with pytest.raises(LengthMismatch):
            property_checks(a, b)


# ------------------------------------------------- finite-order random sweep


def _random_weyl_word(ring, rng, length):
    """A random product of pairing-preserving involutions (reflections in
    the standard roots), used to conjugate finite-order actions."""
    roots = weyl_roots(ring.m)
    f = identity_action(ring, name="conj")
    for _ in range(length):
        root = roots[rng.randrange(len(roots))]
        g = PullbackAction(ring, reflection_matrix(ring.m, root), name="s")
        f = f.compose(g)
    return f


class TestFiniteOrderSample:
    def test_conjugated_permutations_have_zero_entropy(self):
        rng = random.Random(99)
        ring = ring2(5)
        for _ in range(6):
            perm = list(range(5))
            rng.shuffle(perm)
            g = permutation_action(ring, perm)
            w = _random_weyl_word(ring, rng, rng.randint(1, 4))
            conj = w.compose(g).compose(w.inverse())
            ds = dynamical_degrees(conj)
            assert ds.zero_entropy_proved
            assert all(is_cyclotomic_product(cp) for cp in ds.char_polys)


class TestSympyCrossCheck:
    """Independent characteristic-polynomial oracle (skipped without sympy)."""

    def test_char_poly_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(1729)
        matrices = [coxeter_matrix(10)]
        for n in (2, 3, 5):
            matrices.append(
                tuple(
                    tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)
                )
            )
        for mat in matrices:
            ours = char_poly(mat)
            x = sympy.Symbol("x")
            theirs = sympy.Matrix(mat).charpoly(x)
            expected = tuple(int(c) for c in reversed(theirs.all_coeffs()))
            assert ours.coeffs == expected
