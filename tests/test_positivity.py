"""Numerical dimensions, nef necessary checks, Perron-Frobenius reports,
fixed-class verdicts, and the weak Fano report."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from blowdyn.actions import identity_action
from blowdyn.errors import (
    HypothesisViolation,
    NotAmpleCandidate,
    NotValidated,
    RingMismatch,
    ZeroClass,
)
from blowdyn.lattices import coxeter_action, cremona_action, permutation_action
from blowdyn.positivity import (
    CONSISTENT,
    CONVERGED,
    HYPOTHESES_NOT_MET,
    NO_EXPANSION,
    NON_CONVERGENCE,
    NOT_REALIZABLE,
    NefAssertion,
    NefCheckReport,
    _power_iteration,
    _standard_curves,
    kawamata_nu,
    nef_necessary_check,
    numerical_dimension,
    pf_eigenvector,
    verify_fixed_nef_class,
    weak_fano_report,
)
from blowdyn.ring import BlowupConfig, build_ring

from tests.support import coxeter_with_extra_points


def ring_f1():
    return build_ring(BlowupConfig(2, (0,)))


def ring_pt3():
    return build_ring(BlowupConfig(3, (0,)))


def ring_line3():
    return build_ring(BlowupConfig(3, (1,)))


def ring_e10():
    return build_ring(BlowupConfig(2, (0,) * 10))


# --------------------------------------------------------------- dimensions


class TestNumericalDimension:
    def test_zero_class_rejected(self):
        with pytest.raises(ZeroClass):
            numerical_dimension(ring_f1().zero())

    def test_h_is_full(self):
        assert numerical_dimension(ring_f1().h()) == 2
        assert numerical_dimension(ring_pt3().h()) == 3

    def test_null_square_class_on_f1(self):
        ring = ring_f1()
        assert numerical_dimension(ring.h() - ring.e(1)) == 1

    def test_exceptional_class(self):
        ring = ring_f1()
        assert numerical_dimension(ring.e(1)) == 2  # e^2 = -h^2 != 0

    def test_ruling_on_line_blowup(self):
        ring = ring_line3()
        # (h - e)^2 = 0 is the defining relation of the line center
        assert numerical_dimension(ring.h() - ring.e(1)) == 1

    def test_mixed_degree_class(self):
        ring = ring_pt3()
        x = ring.h() + ring.h() ** 2
        assert numerical_dimension(x) == 3


class TestKawamataNu:
    def test_needs_ample_candidate(self):
        ring = ring_pt3()
        with pytest.raises(NotAmpleCandidate):
            kawamata_nu(ring.h() - ring.e(1), ring.h())

    def test_needs_positive_top(self):
        ring = build_ring(BlowupConfig(2, (0,) * 10))
        anti = -ring.canonical_class()
        x = ring.h()
        with pytest.raises(NotAmpleCandidate):
            # (-K)^2 = -1 on ten points
            kawamata_nu(x, anti)

    def test_zero_class_rejected(self):
        ring = ring_f1()
        with pytest.raises(ZeroClass):
            kawamata_nu(ring.zero(), 3 * ring.h() - ring.e(1))

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            kawamata_nu(ring_f1().h(), ring_pt3().h())

    def test_matches_dimension_for_h(self):
        ring = ring_f1()
        ample = 3 * ring.h() - ring.e(1)
        assert kawamata_nu(ring.h(), ample) == 2

    def test_null_square_class(self):
        ring = ring_f1()
        ample = 3 * ring.h() - ring.e(1)
        x = ring.h() - ring.e(1)
        assert kawamata_nu(x, ample) == 1 == numerical_dimension(x)

    def test_never_exceeds_numerical_dimension(self):
        rng = random.Random(5)
        for k, centers in ((2, (0, 0)), (3, (0,)), (3, (1,)), (4, (1, 0))):
            ring = build_ring(BlowupConfig(k, centers))
            ample = (k + 1) * ring.h()
            for i in range(1, ring.m + 1):
                ample = ample - ring.e(i)
            for _ in range(25):
                coeffs = [rng.randint(-3, 3) for _ in range(ring.m + 1)]
                if all(c == 0 for c in coeffs):
                    coeffs[0] = 1
                x = ring.parse_class(coeffs)
                assert kawamata_nu(x, ample) <= numerical_dimension(x)


# ---------------------------------------------------------------- nef checks


class TestNefNecessaryCheck:
    def test_h_passes_everywhere(self):
        for ring in (ring_f1(), ring_pt3(), ring_line3(), ring_e10()):
            assertion = nef_necessary_check(ring.h())
            assert assertion.asserted_nef
            assert assertion.report.passed

    def test_exceptional_fails_fiber(self):
        assertion = nef_necessary_check(ring_f1().e(1))
        assert not assertion.asserted_nef
        labels = [c.label for c in assertion.report.failures]
        assert any("fiber" in lab for lab in labels)

    def test_negative_exceptional_fails_through_line(self):
        assertion = nef_necessary_check(-ring_f1().e(1))
        assert not assertion.asserted_nef
        labels = [c.label for c in assertion.report.failures]
        assert any("through" in lab for lab in labels)

    def test_zero_class_vacuously_passes(self):
        assertion = nef_necessary_check(ring_f1().zero())
        assert assertion.asserted_nef
        assert all(c.value == 0 for c in assertion.report.checks)

    def test_higher_degree_rejected(self):
        ring = ring_f1()
        with pytest.raises(ValueError):
            nef_necessary_check(ring.h() ** 2)

    def test_curve_list_shapes(self):
        # generic line + fiber + through-point for a point center
        assert len(_standard_curves(ring_pt3())) == 3
        # no through-point curve for a line center
        assert len(_standard_curves(ring_line3())) == 2
        labels = [lab for lab, _ in _standard_curves(ring_line3())]
        assert not any("through" in lab for lab in labels)
        assert len(_standard_curves(build_ring(BlowupConfig(2, (0, 0))))) == 5

    def test_fiber_pairing_is_minus_coefficient(self):
        # the fiber line of center i pairs to -c_i independently of k, r
        for k, centers in ((2, (0,)), (3, (0,)), (3, (1,)), (5, (2, 1))):
            ring = build_ring(BlowupConfig(k, centers))
            for i in range(1, ring.m + 1):
                x = ring.h() - 3 * ring.e(i)
                curves = dict(_standard_curves(ring))
                fiber = curves["fiber line of center %d" % i]
                assert ring.integrate(x * fiber) == 3

    def test_cannot_assert_over_failed_report(self):
        ring = ring_f1()
        failed = nef_necessary_check(ring.e(1)).report
        with pytest.raises(HypothesisViolation):
            NefAssertion(cls=ring.e(1), asserted_nef=True, report=failed)

    def test_weaker_assertion_allowed(self):
        ring = ring_f1()
        ok_report = nef_necessary_check(ring.h()).report
        weak = NefAssertion(cls=ring.h(), asserted_nef=False, report=ok_report)
        assert not weak.asserted_nef

    def test_extra_curves_can_refute(self):
        ring = build_ring(BlowupConfig(2, (0, 0)))
        x = ring.parse_class([1, -1, -1])  # passes the standard list
        assert nef_necessary_check(x).asserted_nef
        # the strict transform of the line through both points says no
        conic = ring.h() - ring.e(1) - ring.e(2)
        refuted = nef_necessary_check(x, extra_curves=[("line through both", conic)])
        assert not refuted.asserted_nef

    def test_extra_curves_ring_checked(self):
        with pytest.raises(RingMismatch):
            nef_necessary_check(ring_f1().h(), extra_curves=[("alien", ring_pt3().h() ** 2)])


# ------------------------------------------------------- Perron-Frobenius


class TestPFEigenvector:
    def test_coxeter_converges_to_lehmer(self):
        rep = pf_eigenvector(coxeter_action(ring_e10()))
        assert rep.status == CONVERGED
        assert rep.converged
        assert rep.residual <= Fraction(1, 10**9)
        assert Fraction("1.17628") < rep.eigenvalue_estimate < Fraction("1.17629")
        assert max(abs(c) for c in rep.vector) == 1
        assert rep.vector[0] > 0

    def test_limit_direction_passes_nef_checks(self):
        rep = pf_eigenvector(coxeter_action(ring_e10()))
        assert rep.nef is not None
        assert rep.nef.asserted_nef

    def test_identity_has_no_expansion(self):
        rep = pf_eigenvector(identity_action(ring_f1()))
        assert rep.status == NO_EXPANSION
        assert rep.eigenvalue_estimate == 1
        assert rep.vector is None

    def test_finite_order_has_no_expansion(self):
        rep = pf_eigenvector(cremona_action(build_ring(BlowupConfig(2, (0, 0, 0)))))
        assert rep.status == NO_EXPANSION

    def test_verdict_needs_no_root_finding(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pf_eigenvector must not approximate roots")

        monkeypatch.setattr(mp, "polyroots", refuse)
        ring = build_ring(BlowupConfig(3, (0, 0, 1, 1)))
        rep = pf_eigenvector(permutation_action(ring, (1, 0, 3, 2)))
        assert rep.status == NO_EXPANSION
        assert pf_eigenvector(coxeter_action(ring_e10())).status == CONVERGED

    def test_iteration_budget_reported_not_fatal(self):
        rep = pf_eigenvector(coxeter_action(ring_e10()), max_iter=3)
        assert rep.status == NON_CONVERGENCE
        assert rep.residual is not None
        assert rep.vector is not None
        assert rep.nef is None

    def test_requires_validated_action(self):
        from blowdyn.actions import PullbackAction

        ring = build_ring(BlowupConfig(3, ()))
        with pytest.raises(NotValidated):
            pf_eigenvector(PullbackAction(ring, ((-1,),), name="anti"))

    def test_raw_iteration_converges_on_companion(self):
        status, _, ray, res, vec = _power_iteration(
            ((0, 1), (1, 1)), (1, 0), Fraction(1, 10**8), 500
        )
        assert status == CONVERGED
        assert Fraction("1.6180") < ray < Fraction("1.6181")

    def test_raw_iteration_oscillates_on_equal_moduli(self):
        # companion(x^2-x-1) + companion(x^2+x-1): eigenvalues +phi and -phi
        # have the same modulus, so the direction never settles
        m = (
            (0, 1, 0, 0),
            (1, 1, 0, 0),
            (0, 0, 0, 1),
            (0, 0, 1, -1),
        )
        status, its, _, res, _ = _power_iteration(m, (1, 1, 1, 1), Fraction(1, 10**6), 400)
        assert status == NON_CONVERGENCE
        assert its == 400
        assert res > Fraction(1, 10**3)


# ------------------------------------------------------ fixed nef classes


class TestVerifyFixedNefClass:
    def test_identity_with_h_is_consistent(self):
        ring = ring_e10()
        verdict = verify_fixed_nef_class(identity_action(ring), nef_necessary_check(ring.h()))
        assert verdict.status == CONSISTENT
        assert verdict.degrees is not None
        assert verdict.degrees.zero_entropy_proved

    def test_moved_class_is_reported(self):
        ring = ring_e10()
        verdict = verify_fixed_nef_class(coxeter_action(ring), nef_necessary_check(ring.h()))
        assert verdict.status == HYPOTHESES_NOT_MET
        assert any("f*α ≠ α" in reason for reason in verdict.reasons)

    def test_unasserted_nef_is_reported(self):
        ring = ring_e10()
        weak = NefAssertion(
            cls=ring.h(),
            asserted_nef=False,
            report=nef_necessary_check(ring.h()).report,
        )
        verdict = verify_fixed_nef_class(identity_action(ring), weak)
        assert verdict.status == HYPOTHESES_NOT_MET
        assert any("not asserted" in reason for reason in verdict.reasons)

    def test_small_numerical_dimension_is_reported(self):
        ring = ring_line3()
        ruling = nef_necessary_check(ring.h() - ring.e(1))
        assert ruling.asserted_nef  # passes every necessary check
        verdict = verify_fixed_nef_class(identity_action(ring), ruling)
        assert verdict.status == HYPOTHESES_NOT_MET
        assert any("nu(alpha) = 1 < k-1 = 2" in reason for reason in verdict.reasons)

    def test_zero_class_is_reported(self):
        ring = ring_f1()
        zero = nef_necessary_check(ring.zero())
        verdict = verify_fixed_nef_class(identity_action(ring), zero)
        assert verdict.status == HYPOTHESES_NOT_MET

    def test_positive_entropy_fixed_class_not_realizable(self):
        ring, action = coxeter_with_extra_points(1)
        assert action.validate().ok
        anti = -ring.canonical_class()
        assertion = nef_necessary_check(anti)
        assert assertion.asserted_nef
        assert action.apply(anti) == anti
        verdict = verify_fixed_nef_class(action, assertion)
        assert verdict.status == NOT_REALIZABLE
        assert verdict.degrees.positive_entropy_proved
        assert any("no automorphism" in reason for reason in verdict.reasons)

    def test_descent_pairing_vanishes(self):
        ring, action = coxeter_with_extra_points(1)
        assertion = nef_necessary_check(-ring.canonical_class())
        verdict = verify_fixed_nef_class(action, assertion)
        assert verdict.descent is not None
        assert verdict.descent.ok
        assert abs(verdict.descent.value) <= verdict.descent.threshold
        # and the true pairing is honestly tiny, not just under a loose bound
        assert abs(verdict.descent.value) < Fraction(1, 10**6)

    def test_summary_mentions_status(self):
        ring = ring_f1()
        verdict = verify_fixed_nef_class(identity_action(ring), nef_necessary_check(ring.h()))
        assert "Consistent" in verdict.summary()


# ----------------------------------------------------------------- weak Fano


class TestWeakFano:
    def test_delpezzo_range_consistent(self):
        for m in range(0, 9):
            ring = build_ring(BlowupConfig(2, (0,) * m))
            rep = weak_fano_report(ring)
            assert rep.top_intersection == 9 - m
            assert rep.consistent, "m=%d should be consistent" % m

    def test_nine_points_fails_bigness(self):
        rep = weak_fano_report(build_ring(BlowupConfig(2, (0,) * 9)))
        assert not rep.big_ok
        assert rep.nef.report.passed
        assert not rep.consistent

    def test_ten_points_fails(self):
        rep = weak_fano_report(build_ring(BlowupConfig(2, (0,) * 10)))
        assert rep.top_intersection == -1
        assert not rep.consistent

    def test_point_blowup_of_threespace(self):
        rep = weak_fano_report(ring_pt3())
        assert rep.top_intersection == 56
        assert rep.consistent

    def test_line_blowup_of_threespace(self):
        rep = weak_fano_report(ring_line3())
        assert rep.top_intersection == 54
        assert rep.consistent

    def test_summary_format(self):
        rep = weak_fano_report(ring_f1())
        assert "consistent" in rep.summary()
