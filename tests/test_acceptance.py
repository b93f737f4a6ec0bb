"""The ten acceptance criteria, one test per criterion.

Each test prints a single verdict line, so

    python3 -m pytest tests/test_acceptance.py -q -s

gives the whole sweep at a glance (pytest -v adds its own PASSED/FAILED
column per criterion).  Everything here recomputes its expectations from
first principles or from the frozen bisection oracle in tests/oracles.py;
nothing is imported from the code paths under test except the public API.
"""

import itertools
import json
import random
from fractions import Fraction

from blowdyn import intmat
from blowdyn.actions import identity_action
from blowdyn.gate import decide
from blowdyn.lattices import (
    coxeter_action,
    cremona_action,
    permutation_action,
)
from blowdyn.polys import LEHMER_POLYNOMIAL, is_cyclotomic_product
from blowdyn.positivity import (
    nef_necessary_check,
    verify_fixed_nef_class,
    weak_fano_report,
)
from blowdyn.ring import BlowupConfig, build_ring
from blowdyn.spectral import char_poly, degree_properties_report, dynamical_degrees, entropy
from blowdyn.document import dumps, load, loads

from tests.oracles import LEHMER, bisect_largest_real_root, log_enclosure
from tests.support import ring_if_possible
from tests.test_cli import doc_argv, run
from tests.golden.regen import CASES, DOCS, HERE as GOLDEN_DIR


def verdict(n, label):
    print("criterion %2d  %-55s PASS" % (n, label))


# --------------------------------------------------------------- criterion 1


def test_criterion_01_gate_table():
    for k in range(2, 21):
        for r in range(0, k - 1):
            assert decide(k, (r,)).forced == (k > 2 * r + 2), (k, r)
    assert decide(3, (0, 0, 0)).forced
    assert not decide(4, (1,)).forced
    assert decide(7, (2, 0)).forced
    verdict(1, "gate Forced iff k > 2r+2 over 2 <= k <= 20")


# --------------------------------------------------------------- criterion 2


def expected_rank(k, dims, p):
    """Independent count of the degree-p basis: h^p plus, per center of
    dimension r, the monomials h^a e^b with a+b = p, 1 <= b <= k-1-r,
    a <= r."""
    if p == 0 or p == k:
        return 1
    total = 1
    for r in dims:
        lo = max(1, p - r)
        hi = min(p, k - 1 - r)
        if hi >= lo:
            total += hi - lo + 1
    return total


def nonzero_det(rows):
    """Fraction-free Gaussian elimination, enough to decide det != 0."""
    m = [list(map(Fraction, row)) for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        return False
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return False
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return True


def test_criterion_02_ring_ranks_and_pairings():
    # Rank table + Poincare symmetry across every center-dimension multiset.
    for k in range(2, 9):
        for m in range(0, 7):
            for dims in itertools.combinations_with_replacement(range(k - 1), m):
                ring = ring_if_possible(k, dims)
                if ring is None:
                    continue
                ranks = ring.ranks
                assert ranks == tuple(
                    expected_rank(k, dims, p) for p in range(k + 1)
                ), (k, dims)
                assert ranks == ranks[::-1], (k, dims)

    # Pairing nondegeneracy on the uniform-dimension slice.
    for k in range(2, 9):
        for m in range(0, 7):
            for r in range(0, k - 1):
                ring = ring_if_possible(k, (r,) * m)
                if ring is None:
                    continue
                for p in range(0, k // 2 + 1):
                    assert nonzero_det(ring.pairing_matrix(p)), (k, r, m, p)

    # Exceptional-class identities against hand reductions.
    #   Bl_pt P^3:  e^2*e rewrites by e^3 = h^3, so  int e^3 = int h^3 = +1.
    #   Bl_line P^3: for a line with normal bundle O(1)+O(1) the cube of the
    #   exceptional class evaluates to -deg N = -2; in the ring this is the
    #   rewrite e^2 = 2 h e - h^2 (from (h-e)^2 = 0) applied once:
    #   e^3 = 2 h e^2 - h^2 e = 2(2 h^2 e - h^3) - h^2 e = 3 h^2 e - 2 h^3,
    #   and int h^2 e = 0, int h^3 = 1 give int e^3 = -2.
    for k in range(2, 9):
        for dims in [(0,), (1,) if k >= 3 else (0,), (k - 2,)]:
            ring = build_ring(BlowupConfig(k, dims))
            e1 = ring.e(1)
            h = ring.h()
            assert ring.integrate(e1 * h ** (k - 1)) == 0
    blpt = build_ring(BlowupConfig(3, (0,)))
    assert blpt.integrate(blpt.e(1) ** 3) == 1
    blline = build_ring(BlowupConfig(3, (1,)))
    assert blline.integrate(blline.e(1) ** 3) == -2
    verdict(2, "rank tables, pairings, exceptional identities")


# --------------------------------------------------------------- criterion 3


def test_criterion_03_degree_one_power_identity():
    rng = random.Random(33550336)
    done = 0
    impossible = 0
    while done < 200:
        k = rng.randint(2, 6)
        r = rng.randint(0, k - 2)
        m = rng.randint(1, 4)
        a = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m)]
        done += 1
        ring = ring_if_possible(k, (r,) * m)
        if ring is None:
            impossible += 1
            continue
        x = a * ring.h()
        for i, c in enumerate(coeffs, 1):
            x = x + c * ring.e(i)
        value = ring.integrate(x ** (k - r - 1) * ring.h() ** (r + 1))
        assert value == a ** (k - r - 1), (k, r, m, a)
    verdict(3, "int x^(k-r-1) h^(r+1) = a^(k-r-1), %d of 200 samples possible"
            % (200 - impossible))


# --------------------------------------------------------------- criterion 4


def test_criterion_04_lehmer_regression():
    ring = build_ring(BlowupConfig(2, (0,) * 10))
    action = coxeter_action(ring)
    ds = dynamical_degrees(action, tol=Fraction(1, 10**9))

    lam1 = ds.degrees[1]
    assert Fraction("1.176280818") <= lam1.lo <= lam1.hi <= Fraction("1.176280819")
    assert Fraction("0.162357612") <= ds.entropy.lo
    assert ds.entropy.hi <= Fraction("0.162357613")
    for j in (0, 2):
        assert ds.degrees[j].exact and ds.degrees[j].lo == 1

    # Independent derivation: bisect the committed Lehmer coefficients and
    # take logs, both through the frozen oracle helpers.
    oracle_lo, oracle_hi = bisect_largest_real_root(
        LEHMER, Fraction(1), Fraction(2), digits=12
    )
    assert oracle_lo <= lam1.lo <= lam1.hi <= oracle_hi or (
        lam1.lo <= oracle_lo and oracle_hi <= lam1.hi
    )
    log_lo, log_hi = log_enclosure(oracle_lo, oracle_hi)
    assert log_lo <= ds.entropy.hi and ds.entropy.lo <= log_hi

    cp = char_poly(action.induce(1))
    quotient = cp.divexact(LEHMER_POLYNOMIAL)  # raises if not divisible
    assert quotient * LEHMER_POLYNOMIAL == cp
    verdict(4, "Coxeter lambda_1 = Lehmer's number, entropy window")


# --------------------------------------------------------------- criterion 5


def weyl_word(rng, ring, gens, length):
    w = identity_action(ring)
    for _ in range(length):
        w = w.compose(rng.choice(gens))
    return w


def test_criterion_05_finite_order_exact_zero():
    rng = random.Random(8128)
    cases = []
    impossible = 0
    for _ in range(30):
        k = rng.randint(2, 5)
        r = rng.randint(0, k - 2)
        m = rng.randint(2, 5)
        perm = list(range(m))
        rng.shuffle(perm)
        ring = ring_if_possible(k, (r,) * m)
        if ring is None:
            impossible += 1
            continue
        cases.append(permutation_action(ring, perm))

    ring10 = build_ring(BlowupConfig(2, (0,) * 10))
    gens = [cremona_action(ring10)]
    for _ in range(3):
        perm = list(range(10))
        rng.shuffle(perm)
        gens.append(permutation_action(ring10, perm))
    for _ in range(20):
        perm = list(range(10))
        rng.shuffle(perm)
        base = permutation_action(ring10, perm)
        w = weyl_word(rng, ring10, gens, rng.randint(1, 4))
        cases.append(w.compose(base).compose(w.inverse()))

    assert len(cases) + impossible == 50
    for action in cases:
        for p in range(action.ring.k + 1):
            assert is_cyclotomic_product(char_poly(action.induce(p)))
        ent = entropy(action)
        assert ent.exact and ent.lo == 0
    verdict(5, "%d finite-order actions: cyclotomic, entropy = 0" % len(cases))


# --------------------------------------------------------------- criterion 6


def test_criterion_06_degree_property_suite():
    ring4 = build_ring(BlowupConfig(2, (0,) * 4))
    actions = [identity_action(ring4)]
    for perm in itertools.permutations(range(4)):
        actions.append(permutation_action(ring4, perm))
    actions.append(coxeter_action(build_ring(BlowupConfig(2, (0,) * 10))))
    for action in actions:
        report = degree_properties_report(action)
        statuses = {c.status for c in report.checks}
        assert statuses == {"pass"}, (action.name, statuses)
        assert report.ok
    verdict(6, "degree properties pass on id, 24 perms, Coxeter")


# --------------------------------------------------------------- criterion 7


def test_criterion_07_functoriality():
    rng = random.Random(496)
    actions = []

    ring6 = build_ring(BlowupConfig(2, (0,) * 6))
    gens = [cremona_action(ring6)]
    for _ in range(2):
        perm = list(range(6))
        rng.shuffle(perm)
        gens.append(permutation_action(ring6, perm))
    for _ in range(10):
        actions.append(weyl_word(rng, ring6, gens, rng.randint(1, 5)))

    impossible = 0
    for _ in range(10):
        k = rng.randint(3, 5)
        r = rng.randint(0, k - 2)
        m = rng.randint(2, 4)
        perm = list(range(m))
        rng.shuffle(perm)
        ring = ring_if_possible(k, (r,) * m)
        if ring is None:
            impossible += 1
            continue
        actions.append(permutation_action(ring, perm))

    assert len(actions) + impossible == 20
    for f in actions:
        f.ensure_valid()
        ring = f.ring
        induced = f.induce(2)
        basis = [ring.monomial_class(mono) for mono in ring.basis(1)]
        for x in basis:
            for y in basis:
                # f* of the (rewritten) product, via the induced degree-2
                # matrix, must equal the product of the degree-1 images.
                lhs = intmat.mat_vec(induced, (x * y).coefficients(2))
                rhs = (f.apply(x) * f.apply(y)).coefficients(2)
                assert tuple(lhs) == tuple(rhs), (f.name, x, y)
    verdict(7, "f*(x y) = f*(x) f*(y) on %d validated actions" % len(actions))


# --------------------------------------------------------------- criterion 8


def test_criterion_08_fixed_class_verdicts():
    ring = build_ring(BlowupConfig(2, (0,) * 10))
    h = ring.h()
    consistent = verify_fixed_nef_class(identity_action(ring), nef_necessary_check(h))
    assert consistent.status == "Consistent"
    moved = verify_fixed_nef_class(coxeter_action(ring), nef_necessary_check(h))
    assert moved.status == "HypothesesNotMet"
    assert any("f*α ≠ α" in reason for reason in moved.reasons)
    verdict(8, "fixed-class verdicts: Consistent / HypothesesNotMet")


# --------------------------------------------------------------- criterion 9


def test_criterion_09_weak_fano():
    # Hand expansion on m points in the plane: (3h - sum e_i)^2
    #   = 9 h^2 - 6 h sum e_i + (sum e_i)^2 = 9 h^2 + sum e_i^2
    # (cross terms h e_i and e_i e_j vanish), and e_i^2 = -h^2 gives 9 - m.
    for m in range(0, 11):
        ring = build_ring(BlowupConfig(2, (0,) * m))
        report = weak_fano_report(ring)
        assert report.top_intersection == 9 - m, m
        if m <= 8:
            assert report.consistent, m
        if m == 9:
            assert not report.big_ok
        if m >= 10:
            assert not report.consistent, m

    # Bl_pt P^3: (4h - 2e)^3 = 64 h^3 - 96 h^2 e + 48 h e^2 - 8 e^3
    # integrates to 64 - 0 + 0 - 8 = 56 using int e^3 = 1.
    report = weak_fano_report(build_ring(BlowupConfig(3, (0,))))
    assert report.top_intersection == 56
    assert report.consistent
    verdict(9, "(-K)^2 = 9 - m table and (-K)^3 = 56")


# -------------------------------------------------------------- criterion 10


def test_criterion_10_cli_goldens_and_round_trip():
    for name, argv in CASES.items():
        code, out, err = run(doc_argv(argv))
        assert code == 0 and err == "", name
        assert out == (GOLDEN_DIR / name).read_text(), name
        if name.endswith(".json"):
            for line in out.splitlines():
                json.loads(line)

    shipped = sorted(DOCS.glob("*.json"))
    assert len(shipped) == 4
    for path in shipped:
        doc = load(str(path))
        assert loads(dumps(doc)) == doc
        assert dumps(doc) == path.read_text()
    verdict(10, "CLI goldens byte-stable, documents round-trip")
