"""Shared fixtures for the heavier integration tests."""

import itertools

import pytest

from blowdyn.actions import PullbackAction
from blowdyn.errors import InvalidConfig
from blowdyn.lattices import coxeter_matrix
from blowdyn.ring import BlowupConfig, build_ring


def ring_if_possible(k, centers):
    """The ring of P^k blown up along linear centers of these dimensions,
    or None, after checking that build_ring refuses them, when they cannot
    be pairwise disjoint: subspaces of dimensions r_i + r_j >= k meet."""
    config = BlowupConfig(k, tuple(centers))
    if all(a + b < k for a, b in itertools.combinations(config.centers, 2)):
        return build_ring(config)
    with pytest.raises(InvalidConfig):
        build_ring(config)
    return None


def coxeter_with_extra_points(extra: int):
    """The ten-point Coxeter candidate embedded in a (10+extra)-point ring,
    acting trivially on the extra centers.

    For extra = 1 this fixes the anticanonical class 3h - e_1 - ... - e_11
    exactly while keeping the Lehmer eigenvalue, which makes it the honest
    positive-entropy counterexample fixture: a validated action fixing a
    class that passes every necessary nef check."""
    base = coxeter_matrix(10)
    n = len(base)
    size = n + extra
    mat = tuple(
        tuple(
            base[i][j] if i < n and j < n else (1 if i == j else 0)
            for j in range(size)
        )
        for i in range(size)
    )
    ring = build_ring(BlowupConfig(2, (0,) * (10 + extra)))
    return ring, PullbackAction(ring, mat, name="coxeter+%d" % extra)
