import tracemalloc
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest
from chart_helpers import fd_curvature, hessian_chart, one_plus, random_factor, random_potential

from curvdec import charts
from curvdec.charts import (
    CONNECTIONS,
    MAX_DIM,
    PolyChart,
    conjugate_triple_report,
    curvature_at,
)
from curvdec.decomp import w_projections
from curvdec.errors import (
    CurvdecError,
    DegenerateAtPoint,
    DimensionMismatch,
    NonFiniteInput,
    SchemaError,
    UnknownConnection,
)
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


def constant_cubic_values(entries):
    """The values of constant_cubic(entries), as an (N, N, N) array."""
    c = np.zeros((N, N, N))
    for idx, val in entries.items():
        for p in permutations(idx):
            c[p] = val
    return c


def random_chart(rng, n=N, scale=0.08, dense=False):
    """Random chart of degree <= 2; dense=True redraws dropped monomials, so no entry is zero."""

    def rand_terms():
        terms = {}
        for _ in range(4):
            e = tuple(int(v) for v in rng.integers(0, 2, n))
            while dense and sum(e) > 2:
                e = tuple(int(v) for v in rng.integers(0, 2, n))
            if sum(e) <= 2:
                terms[e] = scale * rng.uniform(-1, 1)
        return terms

    metric = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            terms = rand_terms()
            metric[i][j] = metric[j][i] = Poly(n, one_plus(n, terms) if i == j else terms)
    cubic = [[[None] * n for _ in range(n)] for _ in range(n)]
    for idx in combinations_with_replacement(range(n), 3):
        p = Poly(n, rand_terms())
        for pp in set(permutations(idx)):
            cubic[pp[0]][pp[1]][pp[2]] = p
    return PolyChart(n, metric, cubic)


# -- polynomials --------------------------------------------------------------


def test_poly_arithmetic():
    # (x + y)(x - y) = x^2 - y^2: the cross terms cancel and are not stored
    p = Poly(2, {(1, 0): 1.0, (0, 1): 1.0}) * Poly(2, {(1, 0): 1.0, (0, 1): -1.0})
    assert p.terms == {(2, 0): 1.0, (0, 2): -1.0}
    assert (p * 2.0)((2.0, 1.0)) == 6.0
    assert (0.0 * p).terms == {}


def test_poly_refuses_bad_terms_with_typed_errors():
    for exps in ((1, 2), (-1, 0, 0)):
        with pytest.raises(SchemaError, match="need 3 non-negative exponents"):
            Poly(3, {exps: 1.0})
    with pytest.raises(DimensionMismatch, match="3 and 2"):
        Poly(3) * Poly(2)
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteInput):
            Poly(3, {(1, 2, 3): bad})


def test_poly_refuses_non_integer_exponents():
    # an exponent is refused, not truncated, unless it is a whole number, as in chart documents
    for exps in ((1.5, 0, 0), (0, 0, 2.000001), (0.5, 1, 1), (np.nan, 0, 0), (0, np.inf, 0)):
        with pytest.raises(SchemaError, match="need 3 non-negative exponents"):
            Poly(3, {exps: 1.0})
    assert Poly(3, {(2.0, np.int64(1), True): 1.5}).terms == {(2, 1, 1): 1.5}
    # and is at most 2**31 - 1, as in chart documents
    for exps in ((2**31, 0, 0), (0, 10**20, 0)):
        with pytest.raises(SchemaError, match="each at most 2147483647"):
            Poly(3, {exps: 1.0})
    assert Poly(3, {(2**31 - 1, 0, 0): 1.0}).terms == {(2**31 - 1, 0, 0): 1.0}


# -- charts -------------------------------------------------------------------


def test_chart_validates_symmetry():
    bad = flat_metric()
    bad[0][1] = Poly(N, {(1, 0, 0): 1.0})
    with pytest.raises(DimensionMismatch, match=r"metric entry \(0,1\) not symmetric"):
        PolyChart(N, bad)
    cub = constant_cubic({(0, 0, 1): 1.0})
    cub[0][0][1] = Poly.constant(2.0, N)
    with pytest.raises(DimensionMismatch):
        PolyChart(N, flat_metric(), cub)
    # an entry that differs from the sorted one only under a 3-cycle
    cub = constant_cubic({(0, 1, 2): 1.0})
    cub[2][0][1] = Poly.constant(2.0, N)
    with pytest.raises(DimensionMismatch, match=r"\(2,0,1\) not totally symmetric"):
        PolyChart(N, flat_metric(), cub)


def test_chart_refuses_bad_shapes_and_entries_typed():
    # a field of the wrong shape and an entry that is no number are CurvdecErrors, not
    # the IndexError of indexing or the ValueError of float(); a refusal names its entry
    eye = np.eye(N)
    for metric, cubic in (([[1, 0], [0, 1]], None), (eye, np.zeros((N, N))), (1.0, None),
                          (np.eye(N + 1)[:N], None), (eye, np.zeros((N, N, N + 1)))):
        with pytest.raises(DimensionMismatch, match="of shape"):
            PolyChart(N, metric, cubic)
    with pytest.raises(SchemaError, match=r"metric\[1, 1\]: expected a Poly or a number, got 'x'"):
        PolyChart(N, [[1, 0, 0], [0, "x", 0], [0, 0, 1]])
    cub = constant_cubic({})
    cub[0][1][2] = None
    with pytest.raises(SchemaError, match=r"cubic\[0, 1, 2\]"):
        PolyChart(N, eye, cub)
    bad = flat_metric()
    bad[2][2] = Poly(N + 1)
    with pytest.raises(DimensionMismatch, match=r"metric\[2, 2\]: polynomial variable count"):
        PolyChart(N, bad)


def test_chart_dimension_bounded_before_allocation():
    # a dim outside 3..MAX_DIM is refused before the n^2 + n^3 table columns exist
    tracemalloc.start()
    try:
        for n in (2, MAX_DIM + 1, 100_000):
            with pytest.raises(DimensionMismatch, match=f"3..{MAX_DIM}, got {n}"):
                PolyChart(n, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("dim", [3.7, 3.0, "x", "3", None, True])
def test_chart_dimension_must_be_an_integer(dim):
    # int(dim) made a 3-dimensional chart of 3.7 and raised a bare ValueError for "x";
    # 3.0 is refused as parse_chart refuses it in a document
    with pytest.raises(DimensionMismatch, match="must be an integer"):
        PolyChart(dim, np.eye(3))
    assert PolyChart(np.int64(3), np.eye(3)).dim == 3


def levi_civita(chart, point):
    """(Gamma, dGamma) of the Levi-Civita connection from the chart's point record."""
    return chart._point_data(point)["connections"]["levi_civita"]


def test_flat_chart_christoffel_zero():
    chart = PolyChart(N, flat_metric())
    gamma, dgamma = levi_civita(chart, [0.4, -0.1, 0.9])
    assert np.max(np.abs(gamma)) == 0.0
    assert np.max(np.abs(dgamma)) == 0.0


def test_conformal_bump_christoffel_at_origin():
    # g_ij = delta_ij (1 + x0^2): all first derivatives vanish at 0 but the
    # second derivatives do not
    bump = Poly(N, {(0, 0, 0): 1.0, (2, 0, 0): 1.0})
    metric = [[bump if i == j else ZERO for j in range(N)] for i in range(N)]
    chart = PolyChart(N, metric)
    gamma, dgamma = levi_civita(chart, [0.0, 0.0, 0.0])
    assert np.max(np.abs(gamma)) == 0.0
    assert np.max(np.abs(dgamma)) > 0.0
    assert dgamma[0, 0, 0, 0] == pytest.approx(1.0)


def test_christoffel_symmetric_in_lower_indices():
    chart = random_chart(np.random.default_rng(2))
    gamma, dgamma = levi_civita(chart, [0.2, 0.1, -0.3])
    assert np.array_equal(gamma, np.swapaxes(gamma, 1, 2))
    assert np.array_equal(dgamma, np.swapaxes(dgamma, 2, 3))


def test_flat_chart_all_curvatures_vanish():
    chart = PolyChart(N, flat_metric())
    for which in ("levi_civita", "nabla", "nabla_star"):
        assert np.max(np.abs(curvature_at(chart, [0.1, 0.2, 0.3], which))) == 0.0


def test_flat_constant_cubic_curvature_is_square_term():
    entries = {(0, 0, 1): 1.0, (1, 2, 2): -0.5, (0, 1, 2): 0.25}
    chart = PolyChart(N, flat_metric(), constant_cubic(entries))
    point = [0.0, 0.0, 0.0]
    assert np.max(np.abs(curvature_at(chart, point, "levi_civita"))) == 0.0
    r = curvature_at(chart, point, "nabla")
    c = constant_cubic_values(entries)
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
        chart.metric_at([1.0, 0.0, 0.0])
    chart.metric_at([0.0, 0.0, 0.0])


def test_bad_point_and_connection_are_typed():
    # a point of the wrong shape and an unknown connection are CurvdecErrors,
    # not numpy's broadcast ValueError or a bare one
    chart = PolyChart(N, flat_metric())
    for point in ([0.0, 0.0], [0.0] * 4, [[0.0] * 3], 0.0):
        with pytest.raises(DimensionMismatch, match=r"shape \(3,\)"):
            chart.metric_at(point)
        with pytest.raises(DimensionMismatch):
            conjugate_triple_report(chart, point)
    with pytest.raises(DimensionMismatch):
        curvature_at(chart, [0.0, 0.0], "nabla")
    with pytest.raises(UnknownConnection, match="bogus"):
        curvature_at(chart, [0.0] * 3, "bogus")
    assert issubclass(UnknownConnection, CurvdecError)


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
    _, coeffs = chart._table
    assert coeffs[:, : n * n].any(axis=0).all()  # no metric entry is zero
    point = rng.uniform(-0.4, 0.4, n)
    rep = conjugate_triple_report(chart, point)
    for name, value in rep.identity_residuals.items():
        assert value <= 1e-8, f"{name}: {value}"
    assert rep.identity_residuals["scalar_deviation"] <= 1e-9
    for which in CONNECTIONS:
        exact = curvature_at(chart, point, which)
        assert np.max(np.abs(exact - fd_curvature(chart, point, which))) <= 1e-7


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_pick_invariant_equals_searched_einsum_path(n):
    # the report contracts the Pick norm along a fixed path; a path search must give the same bits
    rng = np.random.default_rng(70 + n)
    chart = random_chart(rng, n, dense=True)
    point = rng.uniform(-0.4, 0.4, n)
    g = chart.metric_at(point)
    cflat = np.einsum("ijk,il->ljk", chart._point_data(point)["cup"], g.matrix)
    operands = ("ia,jb,kc,ijk,abc->", g.inverse, g.inverse, g.inverse, cflat, cflat)
    assert np.einsum_path(*operands, optimize=True)[0] == charts._PICK_PATH
    norm_c2 = float(np.einsum(*operands, optimize=True))
    assert conjugate_triple_report(chart, point).pick_invariant == norm_c2 / (n * (n - 1))


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
    fresh = random_chart(np.random.default_rng(6))
    assert np.array_equal(curvature_at(chart, p1, "nabla"), curvature_at(fresh, p1, "nabla"))


def test_higher_degree_chart_against_hand_derivatives():
    # entries x0^2 x1, x2^3 and x1 x2 reach the x^(e - 2) and mixed second
    # derivative terms; x0 = 0 puts exponents at the clipping boundary
    x0, x1, x2 = point = np.array([0.0, -0.5, 0.7])
    a, b = Poly(N, {(0, 0, 0): 1.0, (2, 1, 0): 0.2}), Poly(N, {(0, 0, 0): 1.0, (0, 0, 3): 0.1})
    c = Poly(N, {(0, 1, 1): 0.3})
    metric = [[a, c, ZERO], [c, b, ZERO], [ZERO, ZERO, ONE]]
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

    def rand_terms():
        return {tuple(int(v) for v in rng.integers(0, 4, N)): rng.uniform(-0.1, 0.1)
                for _ in range(8)}

    metric = [[None] * N for _ in range(N)]
    for i, j in combinations_with_replacement(range(N), 2):
        metric[i][j] = metric[j][i] = Poly(N, one_plus(N, rand_terms()) if i == j else rand_terms())
    cub = constant_cubic({})
    for idx in combinations_with_replacement(range(N), 3):
        p = Poly(N, rand_terms())
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


def test_point_record_is_read_only():
    # metric_at, the point record and the report hand out the record's own arrays, so
    # writing to one must fail rather than change later results at the point
    chart = random_chart(np.random.default_rng(9))
    point = [0.1, 0.2, -0.1]
    r = curvature_at(chart, point, "nabla")
    g = chart.metric_at(point)
    gamma, dgamma = levi_civita(chart, point)
    for arr in (g.matrix, g.inverse, gamma, dgamma, conjugate_triple_report(chart, point).c_op):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 99.0
    assert np.array_equal(curvature_at(chart, point, "nabla"), r)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_oracle_a_hessian_chart_is_dually_flat(n):
    # g = d^2 phi, C = -d^3 phi / 2: nabla is the coordinate connection and nabla* its
    # dual, both flat, so every residual must stay small against max(1, scale)
    rng = np.random.default_rng((11, n))
    chart = hessian_chart(n, random_potential(rng, n))
    rep = conjugate_triple_report(chart, rng.uniform(-0.2, 0.2, n))
    for name, value in rep.identity_residuals.items():
        assert value <= 1e-8, f"{name}: {value}"
    assert np.max(np.abs(rep.r)) <= 1e-12
    assert np.max(np.abs(rep.r_star)) <= 1e-12


# W components (1-based) that vanish for each connection of oracle B
ORACLE_B_ZERO_W = {
    "nabla": (3, 4, 5, 6, 7, 8),
    "nabla_star": (3, 4, 6, 7, 8),
    "levi_civita": (3, 4, 7, 8),
}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_oracle_b_projective_change_of_a_hessian_structure(n):
    # g' = u d^2 phi with the matching C' makes nabla a projective change of the flat
    # connection: projectively flat with symmetric Ricci, curvature nonzero
    rng = np.random.default_rng((3, n))
    phi = random_potential(rng, n)
    chart = hessian_chart(n, phi, random_factor(rng, n))
    point = rng.uniform(-0.2, 0.2, n)
    g = chart.metric_at(point)
    for which, zero in ORACLE_B_ZERO_W.items():
        r = curvature_at(chart, point, which)
        scale = max(1.0, float(np.max(np.abs(r))))
        assert np.max(np.abs(r)) > 1e-3, which
        comps = w_projections(r, g)
        for w in zero:
            assert np.max(np.abs(comps[w - 1])) <= 1e-12 * scale, f"{which} W{w}"
    for name, value in conjugate_triple_report(chart, point).identity_residuals.items():
        assert value <= 1e-8, f"{name}: {value}"
