from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest

from curvdec.charts import (
    CONNECTIONS,
    PolyChart,
    christoffel,
    conjugate_triple_report,
    curvature_at,
)
from curvdec.errors import DegenerateAtPoint, DimensionMismatch
from curvdec.poly import Poly
from curvdec.spaces import conjugate, membership_residual

N = 3
ONE = Poly.constant(1.0, N)
ZERO = Poly(N)


def flat_metric():
    return [[ONE if i == j else ZERO for j in range(N)] for i in range(N)]


def constant_cubic(entries):
    """Totally symmetric cubic with the given {sorted-index: value} entries."""
    cub = [[[ZERO for _ in range(N)] for _ in range(N)] for _ in range(N)]
    for idx, val in entries.items():
        for p in set(permutations(idx)):
            cub[p[0]][p[1]][p[2]] = Poly.constant(val, N)
    return cub


def random_chart(rng, n=N, scale=0.08, dense=False):
    """Random chart of degree <= 2; dense=True redraws dropped monomials, so no entry is zero."""

    def rand_poly():
        terms = {}
        for _ in range(4):
            e = tuple(int(v) for v in rng.integers(0, 2, n))
            while dense and sum(e) > 2:
                e = tuple(int(v) for v in rng.integers(0, 2, n))
            if sum(e) <= 2:
                terms[e] = scale * rng.uniform(-1, 1)
        return Poly(n, terms)

    metric = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            p = rand_poly()
            metric[i][j] = metric[j][i] = (1.0 + p) if i == j else p
    cubic = [[[None] * n for _ in range(n)] for _ in range(n)]
    for idx in combinations_with_replacement(range(n), 3):
        p = rand_poly()
        for pp in set(permutations(idx)):
            cubic[pp[0]][pp[1]][pp[2]] = p
    return PolyChart(n, metric, cubic)


# -- polynomials --------------------------------------------------------------


def test_poly_arithmetic():
    x = Poly.variable(0, 2)
    y = Poly.variable(1, 2)
    p = (x + y) * (x - y) + 1.0
    assert p((2.0, 1.0)) == 4.0
    assert (p - p).is_zero()
    assert (0.0 * p).terms == {}


# -- charts -------------------------------------------------------------------


def test_chart_validates_symmetry():
    bad = flat_metric()
    bad[0][1] = Poly.variable(0, N)
    with pytest.raises(DimensionMismatch):
        PolyChart(N, bad)
    cub = constant_cubic({(0, 0, 1): 1.0})
    cub[0][0][1] = Poly.constant(2.0, N)
    with pytest.raises(DimensionMismatch):
        PolyChart(N, flat_metric(), cub)


def test_flat_chart_christoffel_zero():
    chart = PolyChart(N, flat_metric())
    gamma, dgamma = christoffel(chart, [0.4, -0.1, 0.9])
    assert np.max(np.abs(gamma)) == 0.0
    assert np.max(np.abs(dgamma)) == 0.0


def test_conformal_bump_christoffel_at_origin():
    # g_ij = delta_ij (1 + x0^2): all first derivatives vanish at 0 but the
    # second derivatives do not
    bump = Poly(N, {(2, 0, 0): 1.0})
    metric = [[(ONE + bump) if i == j else ZERO for j in range(N)] for i in range(N)]
    chart = PolyChart(N, metric)
    gamma, dgamma = christoffel(chart, [0.0, 0.0, 0.0])
    assert np.max(np.abs(gamma)) == 0.0
    assert np.max(np.abs(dgamma)) > 0.0
    assert dgamma[0, 0, 0, 0] == pytest.approx(1.0)


def test_christoffel_symmetric_in_lower_indices():
    chart = random_chart(np.random.default_rng(2))
    gamma, dgamma = christoffel(chart, [0.2, 0.1, -0.3])
    assert np.array_equal(gamma, np.swapaxes(gamma, 1, 2))
    assert np.array_equal(dgamma, np.swapaxes(dgamma, 2, 3))


def test_flat_chart_all_curvatures_vanish():
    chart = PolyChart(N, flat_metric())
    for which in ("levi_civita", "nabla", "nabla_star"):
        assert np.max(np.abs(curvature_at(chart, [0.1, 0.2, 0.3], which))) == 0.0


def test_flat_constant_cubic_curvature_is_square_term():
    cub = constant_cubic({(0, 0, 1): 1.0, (1, 2, 2): -0.5, (0, 1, 2): 0.25})
    chart = PolyChart(N, flat_metric(), cub)
    point = [0.0, 0.0, 0.0]
    assert np.max(np.abs(curvature_at(chart, point, "levi_civita"))) == 0.0
    r = curvature_at(chart, point, "nabla")
    c = np.array([[[chart.cubic[i][j][k]((0, 0, 0)) for k in range(N)] for j in range(N)]
                  for i in range(N)])
    sq = np.einsum("hjl,ihk->jkli", c, c) - np.einsum("hjk,ihl->jkli", c, c)
    expected = np.einsum("cabm,md->abcd", sq, np.eye(N))
    assert np.max(np.abs(r - expected)) <= 1e-12


def test_flat_constant_cubic_scalar_identity():
    # hand values for C = sym(e0 x e0 x e1): tau = -2, |C|^2 = 3, |T|^2 = 1/9
    cub = constant_cubic({(0, 0, 1): 1.0})
    chart = PolyChart(N, flat_metric(), cub)
    rep = conjugate_triple_report(chart, [0.0, 0.0, 0.0])
    assert rep.kappa == 0.0
    assert rep.tau == pytest.approx(-2.0, abs=1e-12)
    assert rep.pick_invariant * N * (N - 1) == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(rep.tchebychev_form, [0.0, 1.0 / 3.0, 0.0], atol=1e-15)
    norm_t2 = float(rep.tchebychev_form @ rep.tchebychev_vector)
    lhs = N * (N - 1) * rep.kappa - rep.tau
    rhs = rep.pick_invariant * N * (N - 1) - N * N * norm_t2
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert rep.identity_residuals["scalar_deviation"] <= 1e-9
    # parallel cubic: flat metric and constant C means grad C = 0, so the
    # two curvatures coincide
    assert rep.identity_residuals["parallel_cubic_symmetry"] <= 1e-12
    assert np.max(np.abs(rep.r - rep.r_star)) <= 1e-12


def test_report_residuals_zero_for_trivial_chart():
    chart = PolyChart(N, flat_metric())
    rep = conjugate_triple_report(chart, [0.5, -0.5, 0.25])
    assert max(rep.identity_residuals.values()) == 0.0
    assert rep.tau == 0.0 and rep.kappa == 0.0 and rep.pick_invariant == 0.0


def test_random_chart_identities():
    rng = np.random.default_rng(3)
    worst = {}
    for _ in range(4):
        chart = random_chart(rng)
        for point in rng.uniform(-0.4, 0.4, (3, N)):
            rep = conjugate_triple_report(chart, point)
            for k, v in rep.identity_residuals.items():
                worst[k] = max(worst.get(k, 0.0), v)
    for name, value in worst.items():
        assert value <= 1e-8, f"{name}: {value}"
    assert worst["scalar_deviation"] <= 1e-9


def test_conjugacy_between_independent_computations():
    rng = np.random.default_rng(4)
    chart = random_chart(rng)
    point = [0.15, -0.2, 0.05]
    r = curvature_at(chart, point, "nabla")
    r_star = curvature_at(chart, point, "nabla_star")
    assert np.max(np.abs(r_star - conjugate(r))) <= 1e-12
    g = chart.metric_at(point)
    assert membership_residual(r, g, "r") <= 1e-12
    assert membership_residual(r_star, g, "r") <= 1e-12
    assert membership_residual(r + r_star, g, "a") <= 1e-12


def test_degenerate_point_rejected():
    # g_00 = 1 - x0 vanishes at x0 = 1
    drop = Poly(N, {(0, 0, 0): 1.0, (1, 0, 0): -1.0})
    metric = flat_metric()
    metric[0][0] = drop
    chart = PolyChart(N, metric)
    with pytest.raises(DegenerateAtPoint):
        christoffel(chart, [1.0, 0.0, 0.0])
    chart.metric_at([0.0, 0.0, 0.0])


def fd_curvature(chart, point, which, h=1e-4):
    """Central-difference + Richardson oracle for the curvature tensor."""
    from curvdec.charts import _connection, _lower

    n = chart.dim
    point = np.asarray(point, float)
    gamma0, _ = _connection(chart, point, which)
    dgamma = np.zeros((n, n, n, n))
    for m in range(n):
        dp, dm = point.copy(), point.copy()
        dp[m] += h
        dm[m] -= h
        coarse = (_connection(chart, dp, which)[0] - _connection(chart, dm, which)[0]) / (2 * h)
        dp, dm = point.copy(), point.copy()
        dp[m] += h / 2
        dm[m] -= h / 2
        fine = (_connection(chart, dp, which)[0] - _connection(chart, dm, which)[0]) / h
        dgamma[m] = (4.0 * fine - coarse) / 3.0
    rop = (
        np.einsum("kilj->jkli", dgamma)
        - np.einsum("likj->jkli", dgamma)
        + np.einsum("ikh,hlj->jkli", gamma0, gamma0)
        - np.einsum("ilh,hkj->jkli", gamma0, gamma0)
    )
    return _lower(rop, chart.metric_at(point).matrix)


def test_exact_curvature_matches_finite_difference_oracle():
    rng = np.random.default_rng(5)
    chart = random_chart(rng)
    point = [0.21, -0.13, 0.32]
    for which in ("levi_civita", "nabla", "nabla_star"):
        exact = curvature_at(chart, point, which)
        approx = fd_curvature(chart, point, which)
        assert np.max(np.abs(exact - approx)) <= 1e-7


@pytest.mark.parametrize("n", [4, 5])
def test_dense_chart_beyond_dimension_three(n):
    rng = np.random.default_rng(40 + n)
    chart = random_chart(rng, n, dense=True)
    assert not any(p.is_zero() for row in chart.metric for p in row)
    point = rng.uniform(-0.4, 0.4, n)
    rep = conjugate_triple_report(chart, point)
    for name, value in rep.identity_residuals.items():
        assert value <= 1e-8, f"{name}: {value}"
    assert rep.identity_residuals["scalar_deviation"] <= 1e-9
    for which in CONNECTIONS:
        exact = curvature_at(chart, point, which)
        assert np.max(np.abs(exact - fd_curvature(chart, point, which))) <= 1e-7


def test_point_data_follows_the_point():
    # a chart keeps the fields of the last point; moving the point must
    # not reuse them
    rng = np.random.default_rng(6)
    chart = random_chart(rng)
    p1, p2 = np.array([0.1, -0.2, 0.3]), np.array([-0.3, 0.25, 0.05])
    r1 = curvature_at(chart, p1, "nabla")
    r2 = curvature_at(chart, p2, "nabla")
    assert not np.array_equal(r1, r2)
    assert np.array_equal(curvature_at(chart, p1, "nabla"), r1)
    p1[0] = p2[0]
    fresh = PolyChart(N, chart.metric, chart.cubic)
    assert np.array_equal(curvature_at(chart, p1, "nabla"), curvature_at(fresh, p1, "nabla"))


def test_higher_degree_chart_against_hand_derivatives():
    # entries x0^2 x1, x2^3 and x1 x2 reach the x^(e - 2) and mixed second
    # derivative terms; x0 = 0 puts exponents at the clipping boundary
    x0, x1, x2 = point = np.array([0.0, -0.5, 0.7])
    a, b, c = Poly(N, {(2, 1, 0): 0.2}), Poly(N, {(0, 0, 3): 0.1}), Poly(N, {(0, 1, 1): 0.3})
    metric = [[ONE + a, c, ZERO], [c, ONE + b, ZERO], [ZERO, ZERO, ONE]]
    cub = constant_cubic({(0, 1, 2): 0.5})
    for idx, p in (((0, 0, 1), Poly(N, {(2, 1, 0): 1.0})), ((2, 2, 2), Poly(N, {(0, 0, 3): 1.0}))):
        for q in set(permutations(idx)):
            cub[q[0]][q[1]][q[2]] = p
    chart = PolyChart(N, metric, cub)
    d = chart._point_data(point)

    da = [0.4 * x0 * x1, 0.2 * x0**2, 0.0]
    db = [0.0, 0.0, 0.3 * x2**2]
    dc = [0.0, 0.3 * x2, 0.3 * x1]
    dg = np.zeros((N, N, N))
    dg[:, 0, 0], dg[:, 1, 1], dg[:, 0, 1], dg[:, 1, 0] = da, db, dc, dc
    d2g = np.zeros((N, N, N, N))
    d2g[0, 0, 0, 0] = 0.4 * x1
    d2g[0, 1, 0, 0] = d2g[1, 0, 0, 0] = 0.4 * x0
    d2g[2, 2, 1, 1] = 0.6 * x2
    d2g[1, 2, 0, 1] = d2g[1, 2, 1, 0] = d2g[2, 1, 0, 1] = d2g[2, 1, 1, 0] = 0.3
    dcflat = np.zeros((N, N, N, N))
    for i, j, k in set(permutations((0, 0, 1))):
        dcflat[:, i, j, k] = [2.0 * x0 * x1, x0**2, 0.0]
    dcflat[2, 2, 2, 2] = 3.0 * x2**2
    assert np.allclose(d["dg"], dg, rtol=0.0, atol=1e-15)
    assert np.allclose(d["d2g"], d2g, rtol=0.0, atol=1e-15)
    assert np.allclose(d["dcflat"], dcflat, rtol=0.0, atol=1e-15)
    for which in CONNECTIONS:
        exact = curvature_at(chart, point, which)
        assert np.max(np.abs(exact - fd_curvature(chart, point, which))) <= 1e-7


def test_chart_fields_keep_exact_symmetries():
    # equal entries must evaluate to equal values: g_ij = g_ji, the cubic is
    # totally symmetric, and d_a d_c = d_c d_a, all bit for bit
    rng = np.random.default_rng(8)

    def rand_poly():
        return Poly(N, {tuple(int(v) for v in rng.integers(0, 4, N)): rng.uniform(-0.1, 0.1)
                        for _ in range(8)})

    metric = [[None] * N for _ in range(N)]
    for i, j in combinations_with_replacement(range(N), 2):
        metric[i][j] = metric[j][i] = (1.0 + rand_poly()) if i == j else rand_poly()
    cub = constant_cubic({})
    for idx in combinations_with_replacement(range(N), 3):
        p = rand_poly()
        for q in set(permutations(idx)):
            cub[q[0]][q[1]][q[2]] = p
    chart = PolyChart(N, metric, cub)
    for point in rng.uniform(-0.3, 0.3, (4, N)):
        d = chart._point_data(point)
        assert np.array_equal(d["dg"], d["dg"].transpose(0, 2, 1))
        assert np.array_equal(d["d2g"], d["d2g"].transpose(1, 0, 3, 2))
        for p in permutations((0, 1, 2)):
            assert np.array_equal(d["cflat"], d["cflat"].transpose(p))
            assert np.array_equal(d["dcflat"], d["dcflat"].transpose(0, *(q + 1 for q in p)))
