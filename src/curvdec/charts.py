"""Conjugate connection triples realized from polynomial chart data.

A chart carries a metric g(x) and a totally symmetric cubic form C(x) as
polynomial fields.  The three connections of interest are the Levi-Civita
connection of g and the pair nabla = LC + C, nabla* = LC - C (C raised to a
(1,2) tensor with the inverse metric).  The fields are held as one monomial
table, exponents and one coefficient column per entry, so their values and
first and second derivatives at a point come from one pass over the monomials
by d_a x^e = e_a x^(e - e_a).  A field F is raised there as g^-1 F, and its
derivative follows from d(g^-1) = -g^-1 (dg) g^-1.  All differentiation is
exact, so identity residuals contain float roundoff but no truncation error.
A chart keeps the evaluated fields of the last point it was asked about.

Index conventions, frozen against the flat-metric constant-C case:
Gamma[i, j, k] = Gamma^i_{jk}, dGamma[m, i, j, k] = d_m Gamma^i_{jk}, and the
curvature operator array Rop[j, k, l, i] holds the e_i component of
R(e_k, e_l) e_j with R(v, w) = nabla_v nabla_w - nabla_w nabla_v -
nabla_{[v,w]}; lowering the operator index with g(x) gives the rank-4
convention used across the package.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAtPoint, DegenerateMetric, DimensionMismatch
from .linalg import ScalarProduct, antisym, build_scalar_product
from .poly import Poly
from .spaces import conjugate, membership_residual, ricci, scalar_curvature

CONNECTIONS = ("levi_civita", "nabla", "nabla_star")
_SIGNS = {"levi_civita": 0.0, "nabla": 1.0, "nabla_star": -1.0}


def _as_poly(value, nvars):
    if isinstance(value, Poly):
        if value.nvars != nvars:
            raise DimensionMismatch("polynomial variable count != chart dimension")
        return value
    return Poly.constant(float(value), nvars)


class PolyChart:
    """Polynomial metric and cubic form on an n-dimensional coordinate chart."""

    def __init__(self, dim: int, metric, cubic=None, domain_note: str = ""):
        n = int(dim)
        if n < 3:
            raise DimensionMismatch(f"chart dimension must be >= 3, got {n}")
        self.dim = n
        self.domain_note = domain_note
        self.metric = [[_as_poly(metric[i][j], n) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if self.metric[i][j] != self.metric[j][i]:
                    raise DimensionMismatch(f"metric entry ({i},{j}) not symmetric as a polynomial")
        if cubic is None:
            zero = Poly(n)
            self.cubic = [[[zero for _ in range(n)] for _ in range(n)] for _ in range(n)]
        else:
            self.cubic = [
                [[_as_poly(cubic[i][j][k], n) for k in range(n)] for j in range(n)]
                for i in range(n)
            ]
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        for p in ((j, i, k), (i, k, j)):
                            if self.cubic[i][j][k] != self.cubic[p[0]][p[1]][p[2]]:
                                raise DimensionMismatch(
                                    f"cubic entry ({i},{j},{k}) not totally symmetric"
                                )
        self._fields = None
        self._last = None

    # -- the monomial table and its evaluation -------------------------------

    def _prepared(self):
        """(T, n) exponents of the T monomials and their (T, n^2 + n^3) coefficients,
        with g_ij in column i*n + j and C_ijk in column n^2 + (i*n + j)*n + k."""
        if self._fields is None:
            entries = [p for row in self.metric for p in row]
            entries += [p for plane in self.cubic for row in plane for p in row]
            monomials = sorted({e for p in entries for e in p.terms})
            row_of = {e: t for t, e in enumerate(monomials)}
            coeffs = np.zeros((len(monomials), len(entries)))
            for col, p in enumerate(entries):
                for e, c in p.terms.items():
                    coeffs[row_of[e], col] = c
            self._fields = (np.array(monomials, dtype=int).reshape(-1, self.dim), coeffs)
        return self._fields

    def metric_at(self, point) -> ScalarProduct:
        return self._point_data(point)["g"]

    def _point_data(self, point):
        """All fields at the point, evaluated once and kept for the last point asked."""
        point = np.asarray(point, dtype=float)
        key = point.tobytes()
        if self._last is None or self._last[0] != key:
            n, m = self.dim, self.dim**2
            exps, coeffs = self._prepared()
            # factor[t, b, k] = d^k/dx_b^k x_b^e for e = exps[t, b], k = 0, 1, 2: the falling
            # factorial of e times x_b^(e - k), clipped at x_b^0 where the factorial is 0
            falling = np.stack([np.ones_like(exps), exps, exps * (exps - 1)], axis=-1)
            factor = falling * point[:, None] ** np.maximum(exps[..., None] - np.arange(3), 0)
            var, eye = np.arange(n), np.eye(n, dtype=int)
            mono = factor[:, :, 0].prod(axis=1)
            d1 = factor[:, var, eye].prod(axis=2)  # d1[t, a] = d_a x^e
            d2 = factor[:, var, eye[:, None] + eye].prod(axis=3)  # d2[t, a, c] = d_a d_c x^e
            # einsum, not BLAS: it sums each column in row order, so equal columns (g_ij
            # and g_ji) give equal values and the fields keep their exact symmetries
            flat = np.einsum("t,tk->k", mono, coeffs)
            dflat = np.einsum("ta,tk->ak", d1, coeffs)
            try:
                g = build_scalar_product(flat[:m].reshape(n, n))
            except DegenerateMetric as exc:
                raise DegenerateAtPoint(f"metric degenerate at {point.tolist()}: {exc}") from exc
            data = {
                "g": g,
                "dg": dflat[:, :m].reshape((n,) * 3),
                "d2g": np.einsum("tac,tk->ack", d2, coeffs[:, :m]).reshape((n,) * 4),
                "cflat": flat[m:].reshape((n,) * 3),
                "dcflat": dflat[:, m:].reshape((n,) * 4),
            }
            self._last = (key, data)
        return self._last[1]


def _raised_with_derivative(d, field, dfield):
    """Value and exact derivative of g^-1 field, by d(g^-1) = -g^-1 (dg) g^-1."""
    gi = d["g"].inverse
    value = np.einsum("il,ljk->ijk", gi, field)
    deriv = np.einsum("il,mljk->mijk", gi, dfield - np.einsum("mlh,hjk->mljk", d["dg"], value))
    return value, deriv


def christoffel(chart: PolyChart, point):
    """Levi-Civita coefficients and their coordinate derivatives at a point.

    Returns (gamma, dgamma) with gamma[i, j, k] = Gamma^i_{jk} and
    dgamma[m, i, j, k] = d_m Gamma^i_{jk}, both exact.
    """
    d = chart._point_data(point)
    dg, d2g = d["dg"], d["d2g"]
    a = 0.5 * (
        np.einsum("jlk->ljk", dg) + np.einsum("klj->ljk", dg) - np.einsum("ljk->ljk", dg)
    )
    da = 0.5 * (
        np.einsum("mjlk->mljk", d2g)
        + np.einsum("mklj->mljk", d2g)
        - np.einsum("mljk->mljk", d2g)
    )
    return _raised_with_derivative(d, a, da)


def _cubic_raised(chart: PolyChart, point):
    d = chart._point_data(point)
    return _raised_with_derivative(d, d["cflat"], d["dcflat"])


def _connection(chart: PolyChart, point, which: str):
    if which not in CONNECTIONS:
        raise ValueError(f"unknown connection {which!r}; expected one of {CONNECTIONS}")
    gamma, dgamma = christoffel(chart, point)
    s = _SIGNS[which]
    if s == 0.0:
        return gamma, dgamma
    c, dc = _cubic_raised(chart, point)
    return gamma + s * c, dgamma + s * dc


def _operator_curvature(gamma, dgamma):
    dpart = np.einsum("kilj->jkli", dgamma) - np.einsum("likj->jkli", dgamma)
    qpart = np.einsum("ikh,hlj->jkli", gamma, gamma) - np.einsum(
        "ilh,hkj->jkli", gamma, gamma
    )
    return dpart + qpart


def _lower(rop, gmatrix):
    return np.einsum("cabm,md->abcd", rop, gmatrix)


def curvature_at(chart: PolyChart, point, which: str = "levi_civita") -> np.ndarray:
    """The rank-4 curvature tensor of the chosen connection at the point."""
    gamma, dgamma = _connection(chart, point, which)
    return _lower(_operator_curvature(gamma, dgamma), chart._point_data(point)["g"].matrix)


@dataclass(frozen=True)
class TripleReport:
    """Pointwise data and identity residuals of the conjugate triple.

    c_op and c_tilde hold C_{jk}{}^i in [j, k, i] layout; tchebychev_form is
    the covector (1/n) C_{hj}{}^h and tchebychev_vector its g-raise.  The
    residual map uses max(1, scale) normalization per identity.
    """

    point: np.ndarray
    r: np.ndarray
    r_star: np.ndarray
    r_g: np.ndarray
    c_op: np.ndarray
    tchebychev_form: np.ndarray
    tchebychev_vector: np.ndarray
    c_tilde: np.ndarray
    pick_invariant: float
    tau: float
    kappa: float
    identity_residuals: dict


def _scaled(diff, *scales):
    denom = max(1.0, *(float(np.max(np.abs(s))) for s in scales))
    return float(np.max(np.abs(diff))) / denom


def conjugate_triple_report(chart: PolyChart, point, tol: float = 1e-10) -> TripleReport:
    """Evaluate the triple at a point and check all pointwise identities."""
    point = np.asarray(point, dtype=float)
    n = chart.dim
    g = chart._point_data(point)["g"]
    gm, gi = g.matrix, g.inverse

    gamma, dgamma = christoffel(chart, point)
    cup, dcup = _cubic_raised(chart, point)
    rop_g = _operator_curvature(gamma, dgamma)
    rop = _operator_curvature(gamma + cup, dgamma + dcup)
    rop_star = _operator_curvature(gamma - cup, dgamma - dcup)
    r_g = _lower(rop_g, gm)
    r = _lower(rop, gm)
    r_star = _lower(rop_star, gm)

    # covariant derivative of the raised cubic field: dc[m, i, j, k]
    dc = (
        dcup
        + np.einsum("imh,hjk->mijk", gamma, cup)
        - np.einsum("hmj,ihk->mijk", gamma, cup)
        - np.einsum("hmk,ijh->mijk", gamma, cup)
    )
    # gamma-term of the structure identities: [j, k, l, i]
    sq = np.einsum("hjl,ihk->jkli", cup, cup) - np.einsum("hjk,ihl->jkli", cup, cup)
    dc_skew = np.einsum("kijl->jkli", dc) - np.einsum("lijk->jkli", dc)

    cflat = np.einsum("ijk,il->ljk", cup, gm)
    t_form = np.einsum("hhj->j", cup) / n
    t_vec = gi @ t_form
    norm_c2 = float(np.einsum("ia,jb,kc,ijk,abc->", gi, gi, gi, cflat, cflat, optimize=True))
    norm_t2 = float(t_form @ gi @ t_form)
    pick = norm_c2 / (n * (n - 1))
    tau = scalar_curvature(r, g)
    kappa = scalar_curvature(r_g, g) / (n * (n - 1))

    eye = np.eye(n)
    c_tilde_up = cup - (n / (n + 2)) * (
        np.einsum("j,ik->ijk", t_form, eye)
        + np.einsum("k,ij->ijk", t_form, eye)
        + np.einsum("jk,i->ijk", gm, t_vec)
    )
    c_tilde_flat = np.einsum("ijk,il->ljk", c_tilde_up, gm)

    residuals = {
        "curvature_vs_difference_tensor": _scaled(
            (rop - rop_g) - (dc_skew + sq), rop, rop_g, sq
        ),
        "conjugate_curvature_vs_difference_tensor": _scaled(
            (rop_star - rop_g) - (-dc_skew + sq), rop_star, rop_g, sq
        ),
        "curvature_skew_difference": _scaled(
            (rop - rop_star) - 2.0 * dc_skew, rop, rop_star
        ),
        "curvature_sum_square_term": _scaled(
            rop + rop_star - 2.0 * rop_g - 2.0 * sq, rop, rop_star, rop_g, sq
        ),
        "scalar_deviation": abs(
            (n * (n - 1) * kappa - tau) - (norm_c2 - n * n * norm_t2)
        )
        / max(1.0, abs(tau), abs(norm_c2), n * n * abs(norm_t2)),
        "curvature_sum_algebraic": membership_residual(r + r_star, g, "a")
        if np.max(np.abs(r + r_star)) > 1e-14
        else 0.0,
        "ricci_symmetry_pair": _scaled(
            antisym(ricci(r, g)) + antisym(ricci(r_star, g)), ricci(r, g)
        ),
        "conjugacy": _scaled(r_star - conjugate(r), r, r_star),
        "cubic_trace_free": max(
            _scaled(np.einsum("jk,jkl->l", gi, c_tilde_flat), c_tilde_flat),
            _scaled(np.einsum("jl,jkl->k", gi, c_tilde_flat), c_tilde_flat),
            _scaled(np.einsum("kl,jkl->j", gi, c_tilde_flat), c_tilde_flat),
        ),
        "bianchi_nabla": membership_residual(r, g, "r"),
        "bianchi_nabla_star": membership_residual(r_star, g, "r"),
    }
    # the parallel-cubic criterion only bites when grad C is totally symmetric
    dc_asym = _scaled(dc - np.einsum("jimk->mijk", dc), dc)
    residuals["parallel_cubic_symmetry"] = (
        _scaled(rop - rop_star, rop) if dc_asym <= tol else 0.0
    )

    return TripleReport(
        point=point,
        r=r,
        r_star=r_star,
        r_g=r_g,
        c_op=np.einsum("ijk->jki", cup),
        tchebychev_form=t_form,
        tchebychev_vector=t_vec,
        c_tilde=np.einsum("ijk->jki", c_tilde_up),
        pick_invariant=pick,
        tau=tau,
        kappa=kappa,
        identity_residuals=residuals,
    )
