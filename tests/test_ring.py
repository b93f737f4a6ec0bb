"""Ring model: bases, ranks, reduction, pairing, canonical classes."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowdyn import (
    BlowupConfig,
    InvalidConfig,
    LengthMismatch,
    Mono,
    RingMismatch,
    build_ring,
)
from blowdyn.intmat import det

from tests.support import ring_if_possible


def ring(k, centers=()):
    return build_ring(BlowupConfig(k, tuple(centers)))


# ---------------------------------------------------------------- config


def test_config_rejects_bad_dimensions():
    with pytest.raises(InvalidConfig):
        BlowupConfig(1, ())
    with pytest.raises(InvalidConfig):
        BlowupConfig(3, (2,))  # needs r <= k - 2
    with pytest.raises(InvalidConfig):
        BlowupConfig(4, (-1,))
    with pytest.raises(InvalidConfig):
        BlowupConfig(2, (1,))


def test_ring_refuses_centers_that_meet():
    BlowupConfig(4, (2, 2))  # the config alone stays permissive
    with pytest.raises(InvalidConfig, match="centers 2 and 3"):
        ring(4, (0, 2, 2))
    with pytest.raises(InvalidConfig):
        ring(7, (5, 0, 2))
    assert ring(4, (2, 1)).ranks == (1, 3, 4, 3, 1)


def test_config_accepts_boundary_dimensions():
    BlowupConfig(2, (0, 0, 0))
    BlowupConfig(7, (5, 0, 2))
    assert BlowupConfig(5, ()).max_center_dim == 0
    assert BlowupConfig(7, (2, 5)).max_center_dim == 5


# ---------------------------------------------------------------- ranks


def test_ranks_f1():
    assert ring(2, (0,)).ranks == (1, 2, 1)


def test_ranks_blowup_point_p3():
    assert ring(3, (0,)).ranks == (1, 2, 2, 1)


def test_ranks_blowup_line_p3():
    assert ring(3, (1,)).ranks == (1, 2, 2, 1)


def test_rank_k5_line_and_point():
    # k=5, centers of dimensions 1 and 0: degree 2 holds h^2, the two
    # monomials e_1^2 and h*e_1, and e_2^2.
    R = ring(5, (1, 0))
    assert R.rank(2) == 4
    labels = [m.label() for m in R.basis(2)]
    assert labels == ["h^2", "e1^2", "h*e1", "e2^2"]


def _rank_formula(k, centers, p):
    # independent count: 1 for h^p plus, per center, the number of legal
    # h-exponents a with max(0, p-(k-r-1)) <= a <= min(r, p-1)
    if p == 0 or p == k:
        return 1
    total = 1
    for r in centers:
        lo = max(0, p - (k - r - 1))
        hi = min(r, p - 1)
        total += max(0, hi - lo + 1)
    return total


@pytest.mark.parametrize("k", range(2, 9))
def test_rank_matches_counting_formula(k):
    rng = random.Random(k)
    configs = [()] + [tuple(rng.randint(0, k - 2) for _ in range(m)) for m in (1, 2, 3)]
    for centers in configs:
        R = ring(k, centers)
        for p in range(k + 1):
            assert R.rank(p) == _rank_formula(k, centers, p)


@pytest.mark.parametrize("k,centers", [
    (2, (0, 0, 0)),
    (3, (1,)),
    (4, (1, 2)),
    (5, (1, 0)),
    (6, (2, 2, 0)),
    (7, (5,)),
    (8, (3, 1)),
])
def test_rank_poincare_symmetry(k, centers):
    R = ring(k, centers)
    for p in range(k + 1):
        assert R.rank(p) == R.rank(k - p)


def test_degree_k_basis_is_top_power_only():
    for k, centers in [(3, (1,)), (5, (2, 0)), (6, (4,))]:
        R = ring(k, centers)
        assert R.basis(k) == (Mono(k),)
        assert R.basis(0) == (Mono(0),)


# ---------------------------------------------------------------- reduction


def test_f1_exceptional_square():
    R = ring(2, (0,))
    e, h = R.e(1), R.h()
    assert e * e == -1 * (h * h)
    assert R.integrate(e * e) == -1


def test_point_in_p3_cube():
    R = ring(3, (0,))
    e, h = R.e(1), R.h()
    assert e ** 3 == h ** 3
    assert R.integrate(e ** 3) == 1
    assert (e * e) * e == e * (e * e)


def test_line_in_p3_powers():
    R = ring(3, (1,))
    e, h = R.e(1), R.h()
    # (h - e)^2 = 0 unfolds to e^2 = 2he - h^2
    assert e ** 2 == 2 * (h * e) - h ** 2
    assert e ** 3 == -2 * (h ** 3)
    assert R.integrate(h * e ** 2) == -1


def test_truncation_above_top_degree():
    R = ring(3, (1,))
    h, e = R.h(), R.e(1)
    assert (h ** 4).is_zero
    assert (h ** 3 * e).is_zero
    assert ((h + e) ** 5).is_zero


def test_annihilation_rule():
    # h^(r+1) e = 0: for the line in P^3 already h^2 e dies
    R = ring(3, (1,))
    h, e = R.h(), R.e(1)
    assert (h * h * e).is_zero
    # for a point center h e = 0
    Rp = ring(3, (0,))
    assert (Rp.h() * Rp.e(1)).is_zero


def test_disjoint_centers_multiply_to_zero():
    R = ring(3, (0, 0))
    e1, e2 = R.e(1), R.e(2)
    assert (e1 * e2).is_zero
    assert (e1 + e2) ** 3 == 2 * (R.h() ** 3)


def test_exceptional_integral_identities():
    # integrate(h^r e^(k-r)) = (-1)^(k-r-1) and all lower mixed top-degree
    # products with h vanish
    for k in range(2, 8):
        for r in range(0, k - 1):
            R = ring(k, (r,))
            h, e = R.h(), R.e(1)
            val = R.integrate(h ** r * e ** (k - r))
            assert val == (-1) ** (k - r - 1)
            for b in range(1, k - r):
                assert R.integrate(e ** b * h ** (k - b)) == 0


def test_general_epower_reduction_formula():
    # e^n with n = k - r expands to sum_j (-1)^(n+1+j) C(n,j) h^(n-j) e^j
    for k, r in [(4, 1), (5, 2), (6, 1), (7, 3)]:
        R = ring(k, (r,))
        h, e = R.h(), R.e(1)
        n = k - r
        expected = R.zero()
        for j in range(n):
            c = (-1) ** (n + 1 + j) * comb(n, j)
            expected = expected + c * (h ** (n - j) * e ** j)
        assert e ** n == expected


# ---------------------------------------------------------------- pairing


def test_top_normalization():
    for k, centers in [(2, (0,)), (3, (1,)), (5, (1, 0))]:
        R = ring(k, centers)
        assert R.integrate(R.h() ** k) == 1
        assert R.integrate(R.h() ** (k - 1)) == 0
        assert R.integrate(R.one()) == 0


def test_exceptional_misses_generic_hyperplanes():
    for k, centers in [(3, (1,)), (4, (2, 0)), (6, (3,))]:
        R = ring(k, centers)
        for i in range(1, R.m + 1):
            assert R.pairing(R.e(i), R.h() ** (k - 1)) == 0


def test_degree_one_pairing_del_pezzo():
    R = ring(2, (0, 0, 0))
    P = R.pairing_matrix(1)
    assert P == ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))


def test_middle_pairing_k4_line():
    # basis h^2, e^2, h e; the e^2/h e block is ((3, 1), (1, 0))
    R = ring(4, (1,))
    assert R.pairing_matrix(2) == ((1, 0, 0), (0, 3, 1), (0, 1, 0))


@pytest.mark.parametrize("k,centers", [
    (2, ()),
    (2, (0, 0, 0, 0)),
    (3, (1, 0)),
    (4, (1,)),
    (4, (2, 2)),
    (5, (3, 1)),
    (6, (2, 0, 4)),
    (7, (5, 2)),
])
def test_pairing_unimodular_all_degrees(k, centers):
    R = ring_if_possible(k, centers)
    if R is None:
        return
    for p in range(k + 1):
        P = R.pairing_matrix(p)
        assert det(P) in (1, -1), (k, centers, p, P)


def test_pairing_matrix_transpose_symmetry():
    R = ring(5, (2, 0))
    for p in range(6):
        P = R.pairing_matrix(p)
        Q = R.pairing_matrix(5 - p)
        assert P == tuple(zip(*Q))


# ---------------------------------------------------------------- canonical


def test_canonical_class_f1():
    R = ring(2, (0,))
    assert R.canonical_class() == R.parse_class([-3, 1])


def test_del_pezzo_anticanonical_degree():
    # (-K)^2 = 9 - m on P^2 blown up in m points
    for m in range(0, 9):
        R = ring(2, (0,) * m)
        mk = -1 * R.canonical_class()
        assert R.integrate(mk ** 2) == 9 - m


def test_anticanonical_cube_point_blowup_p3():
    R = ring(3, (0,))
    assert R.canonical_class() == R.parse_class([-4, 2])
    mk = -1 * R.canonical_class()
    assert R.integrate(mk ** 3) == 56


def test_canonical_class_line_blowup_p3():
    R = ring(3, (1,))
    assert R.canonical_class() == R.parse_class([-4, 1])


# ---------------------------------------------------------------- api edges


def test_parse_class_length_check():
    R = ring(3, (0, 0))
    with pytest.raises(LengthMismatch):
        R.parse_class([1, 2])
    x = R.parse_class([1, Fraction(-1, 2), 0])
    assert x.coefficient(Mono(1)) == 1
    assert x.coefficient(Mono(0, 0, 1)) == Fraction(-1, 2)
    assert x.coefficient(Mono(0, 1, 1)) == 0


def test_floats_are_rejected():
    R = ring(2, (0,))
    with pytest.raises(TypeError):
        R.parse_class([1.5, 0])
    with pytest.raises(TypeError):
        0.5 * R.h()


def test_cross_ring_operations_rejected():
    A = ring(2, (0,))
    B = ring(2, (0,))
    with pytest.raises(RingMismatch):
        A.h() + B.h()
    with pytest.raises(RingMismatch):
        A.h() * B.h()


def test_degree_bookkeeping():
    R = ring(3, (1,))
    x = R.h() + R.h() ** 2
    assert x.degrees() == (1, 2)
    assert not x.is_homogeneous()
    assert x.degree_part(1) == R.h()
    assert x.degree_part(3).is_zero
    assert R.h().coefficients(1) == (1, 0)
    assert (R.h() ** 2).coefficients(2) == (1, 0)


def test_basis_vector_roundtrip():
    R = ring(4, (1,))
    for p in range(5):
        n = R.rank(p)
        coeffs = [Fraction(i - 1, 3) for i in range(n)]
        x = R.from_basis_vector(p, coeffs)
        assert list(x.coefficients(p)) == coeffs


# ------------------------------------------------------- algebraic laws

_R_LAW = build_ring(BlowupConfig(5, (1, 0)))


def _random_class(draw_coeff, monos):
    terms = {}
    for mono, c in zip(monos, draw_coeff):
        if c:
            terms[mono] = Fraction(c)
    return terms


@st.composite
def ring_classes(draw, R=_R_LAW):
    monos = [m for p in range(R.k + 1) for m in R.basis(p)]
    picks = draw(st.lists(st.sampled_from(monos), max_size=4, unique=True))
    x = R.zero()
    for mono in picks:
        num = draw(st.integers(-4, 4))
        den = draw(st.integers(1, 3))
        x = x + Fraction(num, den) * R.monomial_class(mono)
    return x


@st.composite
def possible_configs(draw):
    """k <= 8 and up to four centers that can be pairwise disjoint in P^k:
    each new dimension keeps r_i + r_j <= k - 1 with those drawn before."""
    k = draw(st.integers(2, 8))
    dims = []
    for _ in range(draw(st.integers(0, 4))):
        dims.append(draw(st.integers(0, min(k - 2, k - 1 - max(dims, default=0)))))
    return BlowupConfig(k, tuple(draw(st.permutations(dims))))


@given(ring_classes(), ring_classes())
@settings(max_examples=60, deadline=None)
def test_multiplication_commutes(x, y):
    assert x * y == y * x


@given(ring_classes(), ring_classes(), ring_classes())
@settings(max_examples=40, deadline=None)
def test_multiplication_associates(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_multiplication_associates_on_possible_configs(data):
    R = build_ring(data.draw(possible_configs()))
    x, y, z = (data.draw(ring_classes(R)) for _ in range(3))
    assert (x * y) * z == x * (y * z)


@given(ring_classes(), ring_classes(), ring_classes())
@settings(max_examples=40, deadline=None)
def test_multiplication_distributes(x, y, z):
    assert x * (y + z) == x * y + x * z


# ------------------------------------------------------- confluence fuzz


def _naive_normal_form(k, r, a, b, rng):
    """Reduce h^a e^b by applying rewrite rules in random order.

    Works directly from the relations: kill when h-degree exceeds r with e
    present, kill pure h above degree k, unfold e^n via (h-e)^n = 0. The
    choice of which rule to apply where is randomized; the result must not
    depend on it.
    """
    n = k - r
    rule = [(-1) ** (n + 1 + j) * comb(n, j) for j in range(n)]
    terms = {(a, b): Fraction(1)}
    for _ in range(4000):
        candidates = []
        for (ha, eb) in terms:
            if eb > 0 and ha >= r + 1:
                candidates.append(((ha, eb), "kill"))
            if eb >= n:
                candidates.append(((ha, eb), "unfold"))
            if eb == 0 and ha > k:
                candidates.append(((ha, eb), "kill"))
        if not candidates:
            break
        (ha, eb), action = rng.choice(candidates)
        coeff = terms.pop((ha, eb))
        if action == "unfold":
            for j, c in enumerate(rule):
                key = (ha + n - j, eb - n + j)
                v = terms.get(key, Fraction(0)) + coeff * c
                if v:
                    terms[key] = v
                else:
                    terms.pop(key, None)
    else:
        raise AssertionError("rewriting did not terminate")
    return terms


@pytest.mark.parametrize("k,r", [(3, 1), (4, 1), (5, 2), (6, 3), (7, 1)])
def test_reduction_confluence_fuzz(k, r):
    R = ring(k, (r,))
    rng = random.Random(1234 + k * 10 + r)
    for _ in range(60):
        a = rng.randint(0, k + 3)
        b = rng.randint(0, k + 3)
        want = {}
        for mono, c in R._reduce(0, a, b).items():
            key = (mono.h_pow, mono.e_pow)
            want[key] = want.get(key, 0) + c
        for trial in range(4):
            got = _naive_normal_form(k, r, a, b, rng)
            assert {k_: v for k_, v in got.items() if v} == {
                k_: Fraction(v) for k_, v in want.items() if v
            }, (k, r, a, b)
