"""Chart-test helpers: a finite-difference curvature oracle and two exact oracle families.

Polynomials are built here as term dicts, {exponent tuple: coefficient}, with a
product and a derivative; a finished entry becomes a `Poly`.  Each symmetric
entry is built once per sorted index and shared across its permutations, so
that float summation order cannot break the chart's exact symmetry checks.
"""
from functools import reduce
from itertools import combinations_with_replacement, permutations

import numpy as np

from curvdec.charts import PolyChart
from curvdec.poly import Poly


def fd_curvature(chart, point, which, h=1e-4):
    """Central-difference + Richardson oracle for the curvature tensor.

    Differentiates the connection coefficients of the chart's point record, so
    only the exact derivatives of the record are left out of the comparison.
    """
    n = chart.dim
    point = np.asarray(point, float)

    def gamma(p):
        return chart._point_data(p)["connections"][which][0]

    gamma0 = gamma(point)
    dgamma = np.zeros((n, n, n, n))
    for m in range(n):
        dp, dm = point.copy(), point.copy()
        dp[m] += h
        dm[m] -= h
        coarse = (gamma(dp) - gamma(dm)) / (2 * h)
        dp, dm = point.copy(), point.copy()
        dp[m] += h / 2
        dm[m] -= h / 2
        fine = (gamma(dp) - gamma(dm)) / h
        dgamma[m] = (4.0 * fine - coarse) / 3.0
    rop = (
        np.einsum("kilj->jkli", dgamma)
        - np.einsum("likj->jkli", dgamma)
        + np.einsum("ikh,hlj->jkli", gamma0, gamma0)
        - np.einsum("ilh,hkj->jkli", gamma0, gamma0)
    )
    return np.einsum("cabm,md->abcd", rop, chart.metric_at(point).matrix)


# -- term dicts ---------------------------------------------------------------


def derivative(terms, i):
    """d/dx_i of a term dict."""
    out = {}
    for e, c in terms.items():
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
    return out


def product(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def one_plus(n, terms):
    """1 + terms, with the sums 1.0 + c that `1.0 + Poly(n, terms)` used to give."""
    return lincomb((1.0, {(0,) * n: 1.0}), (1.0, terms))


def lincomb(*pairs):
    """The sum of s * terms over (s, terms) pairs."""
    out = {}
    for s, terms in pairs:
        for e, c in terms.items():
            out[e] = out.get(e, 0.0) + s * c
    return out


def random_chart(rng, n=3, scale=0.08, dense=False):
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


def random_terms(rng, n, degree, count, scale):
    """count random monomials of one degree with coefficients in +-scale."""
    terms = {}
    for _ in range(count):
        e = [0] * n
        for v in rng.integers(0, n, degree):
            e[v] += 1
        terms[tuple(e)] = scale * rng.uniform(-1.0, 1.0)
    return terms


def random_potential(rng, n):
    """phi = |x|^2 / 2 plus random cubic and quartic terms: d^2 phi > 0 near 0."""
    half_square = {tuple(2 * int(v == i) for v in range(n)): 0.5 for i in range(n)}
    return lincomb((1.0, half_square), (1.0, random_terms(rng, n, 3, n + 2, 0.3)),
                   (1.0, random_terms(rng, n, 4, n + 2, 0.3)))


def random_factor(rng, n):
    """u = 1 plus random linear and quadratic terms: u > 0 near 0."""
    return lincomb((1.0, {(0,) * n: 1.0}), (1.0, random_terms(rng, n, 1, n, 0.3)),
                   (1.0, random_terms(rng, n, 2, n, 0.3)))


# -- oracle charts ------------------------------------------------------------


def hessian_chart(n, phi, u=None):
    """g = u d^2 phi and C_ljk = -u phi_ljk / 2 + (u_j phi_lk + u_k phi_lj + u_l phi_jk) / 2.

    With u = 1 (the default) this is oracle A, a Hessian structure: nabla = LC + C is
    the flat coordinate connection, so R(nabla) = R(nabla*) = 0.  A general u > 0 gives
    oracle B, nabla = D + du/u (x) id + id (x) du/u: a projective change of the flat
    connection D, with nonzero curvature.
    """
    u = {(0,) * n: 1.0} if u is None else u

    def dphi(*idx):
        return reduce(derivative, idx, phi)

    metric = [[None] * n for _ in range(n)]
    for i, j in combinations_with_replacement(range(n), 2):
        metric[i][j] = metric[j][i] = Poly(n, product(u, dphi(i, j)))
    cubic = [[[None] * n for _ in range(n)] for _ in range(n)]
    for l, j, k in combinations_with_replacement(range(n), 3):
        entry = Poly(n, lincomb(
            (-0.5, product(u, dphi(l, j, k))),
            (0.5, product(derivative(u, j), dphi(l, k))),
            (0.5, product(derivative(u, k), dphi(l, j))),
            (0.5, product(derivative(u, l), dphi(j, k))),
        ))
        for p in set(permutations((l, j, k))):
            cubic[p[0]][p[1]][p[2]] = entry
    return PolyChart(n, metric, cubic)
