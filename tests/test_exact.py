"""Exact certificates for the projector algebra at n = 3, 4 and 5.

The Bianchi projector and every W and A projector are linear with rational
coefficients.  Under an integer metric with an integer inverse (diag(n, 0),
or g = AᵀηA with A integer unitriangular), each map's matrix times a common
denominator L is an integer matrix.  The maps are taken on co(V), which holds
every sample space, in the coordinates of the basis `dims` packs into probes:
the first-pair entries with i < j.  The maps are taken over the plain basis, one
tensor a row, since a non-diagonal g breaks the reflection symmetry that packing
needs.  Rounding recovers L·P, and float products of integer matrices below 2**53
are exact, so the identities below are checked with no tolerance.
"""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import curvdec.decomp as decomp
import curvdec.spaces as spaces
from curvdec.linalg import ScalarProduct, standard_scalar_product
from curvdec.sampling import _co_basis, formula_dim
from curvdec.spaces import bianchi_project


def lorentz_frame(n):
    """g = AᵀηA of signature (n - 1, 1), A integer unitriangular, with its integer inverse."""
    a = np.eye(n) + np.eye(n, k=1) - np.eye(n, k=n - 1)
    a_inv = np.round(np.linalg.inv(a))
    assert np.array_equal(a @ a_inv, np.eye(n))
    eta = np.diag([1.0] * (n - 1) + [-1.0])
    return ScalarProduct(a.T @ eta @ a, a_inv @ eta @ a_inv.T, (n - 1, 1))


def integer_maps(n, g):
    """L and the integer matrices L·P on co(V) of the Bianchi projector ('r') and of
    W1..W8 and A1..A8; row k of a matrix holds the coordinates of the k-th basis
    tensor's image."""
    i, j = np.triu_indices(n, 1)
    flat, mirror, _ = _co_basis(n)  # the plain basis, one tensor a row
    basis = np.zeros((len(flat), n**4))
    basis[range(len(flat)), flat], basis[range(len(flat)), mirror] = 1.0, -1.0
    r = bianchi_project(basis.reshape((-1,) + (n,) * 4))
    images = {"r": r}
    for family, proj in (("W", decomp.w_projections), ("A", decomp.a_projections)):
        images.update((f"{family}{k}", c) for k, c in enumerate(proj(r, g), 1))
    maps = {name: t[:, i, j].reshape(len(t), -1) for name, t in images.items()}
    values = np.unique(np.concatenate([m.ravel() for m in maps.values()]).round(9))
    L = math.lcm(*(Fraction(float(v)).limit_denominator(10**6).denominator for v in values))
    exact = {name: np.round(L * m) for name, m in maps.items()}
    # every entry is a multiple of 1/L, up to float error far inside the recovery bound 1/(2L)
    assert max(np.abs(L * m - exact[name]).max() for name, m in maps.items()) < 1e-6
    return L, exact


def idempotent(L, m):
    return np.array_equal(m @ m, L * m)


@pytest.mark.parametrize("lorentzian", [False, True])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_projector_families_are_exact(n, lorentzian):
    g = lorentz_frame(n) if lorentzian else standard_scalar_product(n, 0)
    L, maps = integer_maps(n, g)
    bianchi = maps["r"]
    assert idempotent(L, bianchi)
    assert np.trace(bianchi) == L * formula_dim("r", n)
    for family in "WA":
        parts = [maps[f"{family}{k}"] for k in range(1, 9)]
        assert np.array_equal(sum(parts), bianchi), family
        for k, part in enumerate(parts, 1):
            assert idempotent(L, part), (family, k)
            assert np.trace(part) == L * formula_dim(f"{family}{k}", n), (family, k)
        # idempotents whose sum is idempotent have additive ranks, so P_i P_j = 0
        # for i != j follows; the 56 products are checked where they are cheap
        if n < 5:
            for (a, p), (b, q) in itertools.permutations(enumerate(parts, 1), 2):
                assert not (p @ q).any(), (family, a, b)


def test_planted_ricci_bug_breaks_idempotence(monkeypatch):
    # a Ricci trace taken with g in place of g^-1 goes unseen where g = g^-1, as
    # on diag(2, 1), but breaks idempotence on the non-diagonal frame at n = 3
    monkeypatch.setattr(spaces, "ricci", lambda t, g: np.einsum("ij,...iabj->...ab", g.matrix, t))
    L, maps = integer_maps(3, standard_scalar_product(2, 1))
    assert all(idempotent(L, m) for m in maps.values())
    L, maps = integer_maps(3, lorentz_frame(3))
    broken = [name for name, m in maps.items() if name != "r" and not idempotent(L, m)]
    assert broken, "the planted bug went unseen"
