"""Integer polynomial arithmetic and the unit-circle (Kronecker) test."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowdyn.polys import (
    LEHMER_POLYNOMIAL,
    IntPolynomial,
    cauchy_root_bound,
    cyclotomic,
    cyclotomic_orders,
    is_cyclotomic_product,
    poly_gcd,
    squarefree_part,
    strip_unit_circle_factors,
)


def P(*coeffs):
    return IntPolynomial.from_coeffs(coeffs)


X_MINUS_1 = P(-1, 1)
GOLDEN = P(-1, -1, 1)  # x^2 - x - 1


class TestArithmetic:
    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)
        assert P(0, 0).is_zero

    def test_add_sub(self):
        assert (P(1, 1) + P(2, -1)).coeffs == (3,)
        assert (P(1, 1) - P(1, 1)).is_zero

    def test_mul(self):
        assert (X_MINUS_1 * P(1, 1)).coeffs == (-1, 0, 1)
        assert (P(2) * P(0, 3)).coeffs == (0, 6)
        assert (P() * P(1, 2)).is_zero

    def test_evaluation(self):
        assert GOLDEN(2) == 1
        assert GOLDEN(Fraction(1, 2)) == Fraction(-5, 4)

    def test_degree_and_monic(self):
        assert GOLDEN.degree == 2
        assert GOLDEN.is_monic
        assert not P(1, 2).is_monic

    def test_derivative(self):
        assert P(5, 3, 0, 2).derivative().coeffs == (3, 0, 6)
        assert P(7).derivative().is_zero

    def test_from_coeffs_rejects_nonints(self):
        with pytest.raises(TypeError):
            IntPolynomial.from_coeffs([1.0, 2])

    def test_shift_down(self):
        assert P(0, 0, 1, 2).shift_down(2).coeffs == (1, 2)
        assert P(0, 0, 1, 2).trailing_zeros() == 2

    def test_primitive(self):
        assert P(2, 4, 6).primitive().coeffs == (1, 2, 3)
        # leading coefficient is normalized positive
        assert P(2, -4).primitive().coeffs == (-1, 2)

    def test_divexact_roundtrip(self):
        rng = random.Random(7)
        for _ in range(30):
            a = IntPolynomial.from_coeffs(
                [rng.randint(-5, 5) for _ in range(rng.randint(1, 5))] + [1]
            )
            b = IntPolynomial.from_coeffs(
                [rng.randint(-5, 5) for _ in range(rng.randint(1, 5))] + [1]
            )
            assert (a * b).divexact(b) == a

    def test_divexact_rejects_inexact(self):
        with pytest.raises(ValueError):
            P(1, 0, 1).divexact(P(1, 1))


class TestGcd:
    def test_common_factor(self):
        a = X_MINUS_1 * P(2, 1)
        b = X_MINUS_1 * P(3, 1)
        assert poly_gcd(a, b) == X_MINUS_1

    def test_coprime(self):
        assert poly_gcd(P(1, 1), P(2, 1)).degree == 0

    def test_with_zero(self):
        assert poly_gcd(P(), P(2, 4)) == P(1, 2)

    def test_squarefree_part(self):
        p = X_MINUS_1 * X_MINUS_1 * X_MINUS_1 * P(1, 1)
        assert squarefree_part(p) == X_MINUS_1 * P(1, 1)

    def test_squarefree_of_squarefree(self):
        assert squarefree_part(GOLDEN) == GOLDEN


class TestBounds:
    def test_cauchy_bound_golden(self):
        assert cauchy_root_bound(GOLDEN) == 2
        # the golden ratio really is below it
        assert GOLDEN(2) > 0

    def test_cauchy_bound_lehmer(self):
        assert cauchy_root_bound(LEHMER_POLYNOMIAL) == 2

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            cauchy_root_bound(P(3))


class TestCyclotomic:
    def test_small_cyclotomics(self):
        assert cyclotomic(1).coeffs == (-1, 1)
        assert cyclotomic(2).coeffs == (1, 1)
        assert cyclotomic(3).coeffs == (1, 1, 1)
        assert cyclotomic(4).coeffs == (1, 0, 1)
        assert cyclotomic(6).coeffs == (1, -1, 1)
        assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)

    def test_product_over_divisors(self):
        prod = IntPolynomial.one()
        for d in (1, 2, 3, 6):
            prod = prod * cyclotomic(d)
        assert prod.coeffs == (-1, 0, 0, 0, 0, 0, 1)  # x^6 - 1

    def test_orders_cover_phi(self):
        orders = cyclotomic_orders(4)
        # phi(n) <= 4 exactly for these n
        assert orders == [1, 2, 3, 4, 5, 6, 8, 10, 12]

    def test_orders_degree_one(self):
        assert cyclotomic_orders(1) == [1, 2]


class TestUnitCircleTest:
    def test_strip_mixed_product(self):
        p = IntPolynomial.x_power(3) * cyclotomic(1) * cyclotomic(1) * GOLDEN
        core, xmult, stripped = strip_unit_circle_factors(p)
        assert xmult == 3
        assert stripped == 2
        assert core == GOLDEN

    def test_repeated_cyclotomic_factor(self):
        p = IntPolynomial.one()
        for _ in range(5):
            p = p * X_MINUS_1
        assert is_cyclotomic_product(p)

    def test_pure_x_power(self):
        assert is_cyclotomic_product(IntPolynomial.x_power(4))

    def test_golden_is_not(self):
        assert not is_cyclotomic_product(GOLDEN)

    def test_lehmer_is_not(self):
        assert not is_cyclotomic_product(LEHMER_POLYNOMIAL)

    def test_big_cyclotomic_product(self):
        p = cyclotomic(3) * cyclotomic(4) * cyclotomic(12) * IntPolynomial.x_power(2)
        assert is_cyclotomic_product(p)

    def test_salem_times_cyclotomic(self):
        assert not is_cyclotomic_product(LEHMER_POLYNOMIAL * cyclotomic(2))

    def test_pisot_family(self):
        for n in range(1, 6):
            # x^2 - n*x - 1 has a root above 1
            assert not is_cyclotomic_product(P(-1, -n, 1))

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            is_cyclotomic_product(P(1, 2))

    def test_random_cyclotomic_products(self):
        rng = random.Random(23)
        for _ in range(15):
            p = IntPolynomial.x_power(rng.randint(0, 2))
            for _ in range(rng.randint(1, 4)):
                p = p * cyclotomic(rng.randint(1, 12))
            assert is_cyclotomic_product(p)
            assert not is_cyclotomic_product(p * GOLDEN)


# non-cyclotomic factors appended to the random cyclotomic products:
# Lehmer, a quadratic Pisot family, a Pisot cubic, a squared Salem factor
_MENU = ("lehmer", "quadratic", "pisot_cubic", "squared")


@settings(max_examples=60, deadline=None)
@given(
    xmult=st.integers(0, 3),
    cyclos=st.lists(st.tuples(st.integers(1, 30), st.integers(1, 3)), max_size=4),
    extra=st.sampled_from(_MENU),
    n=st.integers(1, 6),
)
def test_strip_matches_sympy_factor_list(xmult, cyclos, extra, n):
    """Differential check against sympy: x^a * prod Phi_n^e * (menu factor)
    must give the same core, x-multiplicity and stripped degree."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    menu = {
        "lehmer": sympy.Poly(list(reversed(LEHMER_POLYNOMIAL.coeffs)), x),
        "quadratic": sympy.Poly(x**2 - n * x - 1, x),
        "pisot_cubic": sympy.Poly(x**3 - x - 1, x),
        "squared": sympy.Poly((x**4 - n * x**3 - x**2 - n * x + 1) ** 2, x),
    }
    poly = sympy.Poly(x**xmult, x) * menu[extra]
    for order, mult in cyclos:
        poly = poly * sympy.Poly(sympy.cyclotomic_poly(order, x), x) ** mult

    want_core, want_x, want_stripped = sympy.Poly(1, x), 0, 0
    _, factors = poly.factor_list()
    for factor, mult in factors:
        if factor == sympy.Poly(x, x):
            want_x += mult
        elif factor.is_cyclotomic:
            want_stripped += factor.degree() * mult
        else:
            want_core = want_core * factor**mult

    core, got_x, stripped = strip_unit_circle_factors(
        P(*(int(c) for c in reversed(poly.all_coeffs())))
    )
    assert got_x == want_x
    assert stripped == want_stripped
    assert core == P(*(int(c) for c in reversed(want_core.all_coeffs())))


class TestLehmerPolynomial:
    def test_shape(self):
        assert LEHMER_POLYNOMIAL.degree == 10
        assert LEHMER_POLYNOMIAL.is_monic

    def test_palindromic(self):
        assert LEHMER_POLYNOMIAL.coeffs == tuple(reversed(LEHMER_POLYNOMIAL.coeffs))

    def test_value_at_one_and_two(self):
        assert LEHMER_POLYNOMIAL(1) == -1
        assert LEHMER_POLYNOMIAL(2) == 1291
