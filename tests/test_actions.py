"""Candidate pullback actions: validation, induced matrices, group ops."""

import pytest

from blowdyn import (
    BlowupConfig,
    DimensionMismatch,
    InvalidConfig,
    NotUnimodular,
    NotValidated,
    RingMismatch,
    build_ring,
)
from blowdyn import intmat
from blowdyn.actions import PullbackAction, identity_action
from blowdyn.lattices import (
    center_permutation_matrix,
    coxeter_action,
    coxeter_matrix,
    cremona_action,
    permutation_action,
    reflection_matrix,
    weyl_roots,
)


def ring(k, centers=()):
    return build_ring(BlowupConfig(k, tuple(centers)))


# ------------------------------------------------------------ validation


def test_identity_validates_everywhere():
    for k, centers in [(2, (0,)), (3, (1,)), (5, (1, 0))]:
        R = ring(k, centers)
        f = identity_action(R)
        rep = f.validate()
        assert rep.ok and rep.det == 1 and rep.preserves_canonical
        for p in range(k + 1):
            assert f.induce(p) == intmat.identity(R.rank(p))
    # two planes in P^4 meet: there is no ring to validate on
    with pytest.raises(InvalidConfig):
        ring(4, (2, 2))


def test_sign_flip_is_isometry_of_surface_but_moves_canonical():
    R = ring(2, (0,))
    f = PullbackAction(R, [[1, 0], [0, -1]], name="flip")
    rep = f.validate()
    assert rep.ok
    assert rep.det == -1
    assert not rep.preserves_canonical  # warning, not failure


def test_sign_flip_fails_on_odd_dimension():
    # integrate(e^3) = 1 on the point blow-up of P^3, so e -> -e breaks the
    # cubic intersection form even though it fixes the quadratic one
    R = ring(3, (0,))
    f = PullbackAction(R, [[1, 0], [0, -1]], name="flip")
    rep = f.validate()
    assert not rep.ok
    assert rep.det_ok
    assert not rep.pairing_ok
    assert any(fail.degree in (1, 2) for fail in rep.pairing_failures)
    with pytest.raises(NotValidated):
        f.induce(1)


def test_scaling_fails_determinant():
    R = ring(2, (0,))
    rep = PullbackAction(R, [[2, 0], [0, 1]]).validate()
    assert not rep.det_ok
    assert not rep.ok
    assert "INVALID" in rep.summary()


def test_h_e_swap_fails_pairing():
    R = ring(2, (0,))
    rep = PullbackAction(R, [[0, 1], [1, 0]]).validate()
    assert rep.det_ok
    assert not rep.pairing_ok


def test_matrix_shape_and_type_checks():
    R = ring(2, (0,))
    with pytest.raises(DimensionMismatch):
        PullbackAction(R, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(TypeError):
        PullbackAction(R, [[1.0, 0], [0, 1]])


# ------------------------------------------------------------ lattices


def test_cremona_reflection_matrix():
    R = ring(2, (0, 0, 0))
    c = cremona_action(R)
    # pullback of the quadratic map: h -> 2h - e1 - e2 - e3,
    # e1 -> h - e2 - e3
    cols = intmat.transpose(c.matrix)
    assert cols[0] == (2, -1, -1, -1)
    assert cols[1] == (1, 0, -1, -1)
    rep = c.validate()
    assert rep.ok and rep.det == -1 and rep.preserves_canonical


def test_cremona_is_an_involution():
    R = ring(2, (0, 0, 0, 0))
    c = cremona_action(R)
    assert c.compose(c).matrix == intmat.identity(5)
    assert c.inverse().matrix == c.matrix


def test_reflections_are_involutions():
    for m in (3, 5, 10):
        for root in weyl_roots(m):
            s = reflection_matrix(m, root)
            assert intmat.mat_mul(s, s) == intmat.identity(1 + m)


def test_reflection_rejects_wrong_square():
    with pytest.raises(InvalidConfig):
        reflection_matrix(3, (1, -1, -1, -1, 0))  # wrong length
    with pytest.raises(InvalidConfig):
        reflection_matrix(3, (0, 1, 0, 0))  # square is -1, not -2


def test_coxeter_three_points_has_order_six():
    R = ring(2, (0, 0, 0))
    f = coxeter_action(R)
    assert f.validate().ok
    assert f.power(6).matrix == intmat.identity(4)
    for n in range(1, 6):
        assert f.power(n).matrix != intmat.identity(4)


def test_coxeter_ten_points_validates():
    R = ring(2, (0,) * 10)
    f = coxeter_action(R)
    rep = f.validate()
    assert rep.ok
    assert rep.preserves_canonical
    assert f.induce(2) == ((1,),)


def test_coxeter_requires_plane_points():
    with pytest.raises(InvalidConfig):
        coxeter_action(ring(3, (0, 0, 0)))
    with pytest.raises(InvalidConfig):
        cremona_action(ring(2, (0, 0)))


def test_permutation_action_basics():
    R = ring(2, (0, 0, 0))
    f = permutation_action(R, [1, 2, 0])
    rep = f.validate()
    assert rep.ok and rep.preserves_canonical
    assert f.power(3).matrix == intmat.identity(4)
    g = f.inverse()
    assert f.compose(g).matrix == intmat.identity(4)


def test_permutation_must_respect_center_dimensions():
    R = ring(4, (1, 0))
    with pytest.raises(InvalidConfig):
        permutation_action(R, [1, 0])
    # permuting equal dimensions is fine
    R2 = ring(4, (1, 1))
    assert permutation_action(R2, [1, 0]).validate().ok


def test_center_permutation_matrix_rejects_non_permutation():
    with pytest.raises(InvalidConfig):
        center_permutation_matrix(3, [0, 0, 1])


# ------------------------------------------------------------ induced


def test_induced_swap_on_two_points_in_p3():
    R = ring(3, (0, 0))
    f = permutation_action(R, [1, 0])
    # degree 2 basis: h^2, e1^2, e2^2 -> swap the last two
    assert f.induce(2) == ((1, 0, 0), (0, 0, 1), (0, 1, 0))
    assert f.induce(3) == ((1,),)
    assert f.induce(0) == ((1,),)


def test_induced_matrices_are_cached():
    R = ring(2, (0, 0, 0))
    f = cremona_action(R)
    assert f.induce(1) is f.induce(1)


def test_induce_is_multiplicative():
    R = ring(3, (0, 0))
    s = permutation_action(R, [1, 0])
    ss = s.compose(s)
    for p in range(4):
        assert ss.induce(p) == intmat.mat_mul(s.induce(p), s.induce(p))


def test_degree_one_induced_matrix_is_the_matrix():
    R = ring(2, (0,) * 5)
    f = coxeter_action(R)
    assert f.induce(1) == f.matrix


def test_inverse_transpose_pairing_identity():
    # validated actions satisfy M(f^-1) = P^-1 M(f)^T P on degree 1, with P
    # the degree-1 pairing matrix; this is what makes inverse degrees
    # exactly computable later
    for R, f in [
        (ring(2, (0, 0, 0)), None),
        (ring(2, (0,) * 5), None),
    ]:
        f = coxeter_action(R)
        P = R.pairing_matrix(1)
        Pinv = intmat.inverse_unimodular(P)
        lhs = f.inverse().matrix
        rhs = intmat.mat_mul(Pinv, intmat.mat_mul(intmat.transpose(f.matrix), P))
        assert lhs == rhs


# ------------------------------------------------------------ group ops


def test_compose_requires_same_ring():
    A, B = ring(2, (0,)), ring(2, (0,))
    with pytest.raises(RingMismatch):
        identity_action(A).compose(identity_action(B))


def test_inverse_requires_unimodular():
    R = ring(2, (0,))
    with pytest.raises(NotUnimodular):
        PullbackAction(R, [[2, 0], [0, 1]]).inverse()


def test_apply_degree_one_only():
    R = ring(2, (0, 0, 0))
    f = cremona_action(R)
    with pytest.raises(ValueError):
        f.apply(R.h() ** 2)
    other = ring(2, (0, 0, 0))
    with pytest.raises(RingMismatch):
        f.apply(other.h())


def test_negative_power_uses_inverse():
    R = ring(2, (0, 0, 0))
    f = permutation_action(R, [1, 2, 0])
    assert f.power(-1).matrix == f.inverse().matrix
    assert f.power(-3).matrix == intmat.identity(4)
