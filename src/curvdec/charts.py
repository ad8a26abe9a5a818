"""Conjugate connection triples realized from polynomial chart data.

A chart carries a metric g(x) and a totally symmetric cubic form C(x) as
polynomial fields.  The three connections of interest are the Levi-Civita
connection of g and the pair nabla = LC + C, nabla* = LC - C (C raised to a
(1,2) tensor with the inverse metric).  The fields are held only as one
monomial table, built and checked with the chart: exponents and one coefficient
column per entry, which `jsonio.parse_chart` fills straight from a document's
term dicts.  Values and first and second derivatives at a point come from one
pass over the monomials by d_a x^e = e_a x^(e - e_a).  A field F is raised
there as g^-1 F, and its derivative follows from d(g^-1) = -g^-1 (dg) g^-1.
All differentiation is exact: identity residuals hold roundoff, no truncation.
A chart keeps a record of the last point it was asked about: the evaluated
fields, the raised cubic, and the coefficients of the three connections with
their derivatives, each computed once.  The metric, its inverse, the raised
cubic and the connection arrays are handed out uncopied, so they are read-only.

Index conventions, frozen against the flat-metric constant-C case:
Gamma[i, j, k] = Gamma^i_{jk}, dGamma[m, i, j, k] = d_m Gamma^i_{jk}, and the
curvature operator array Rop[j, k, l, i] holds the e_i component of
R(e_k, e_l) e_j with R(v, w) = nabla_v nabla_w - nabla_w nabla_v -
nabla_{[v,w]}; lowering the operator index with g(x) gives the rank-4
convention used across the package.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import (DegenerateAtPoint, DegenerateMetric, DimensionMismatch, NonFiniteInput,
                     SchemaError, UnknownConnection)
from .linalg import ScalarProduct, _integer, _number, _real, antisym, build_scalar_product
from .poly import Poly
from .spaces import _tau, conjugate, membership_residual, ricci, scalar_curvature

CONNECTIONS = ("levi_civita", "nabla", "nabla_star")
# the largest chart dimension: a point record holds about 15 arrays of n^4 floats,
# some 130 MB at n = 32, and no chart field is allocated for a dim past it
MAX_DIM = 32
# np.einsum_path's choice for the Pick norm at every n = 3..40, so no request searches
_PICK_PATH = ["einsum_path", (0, 3), (0, 2), (1, 2), (0, 1)]


def _chart_dim(dim) -> int:
    """dim, an integer in 3..MAX_DIM, else DimensionMismatch before anything is allocated."""
    if not 3 <= _integer(dim, DimensionMismatch, "chart dimension") <= MAX_DIM:
        raise DimensionMismatch(f"chart dimension must be an integer in 3..{MAX_DIM}, got {dim!r}")
    return int(dim)


def _entries(field, name, n, rank):
    """The entries of a nested n^rank field as {table column: term dict}, in row-major order."""
    flat = [field]
    try:  # a row of the wrong length is dropped, so the count falls short
        for _ in range(rank):
            flat = [x for row in flat if len(row) == n for x in row]
    except TypeError:  # a number where a row belongs
        flat = []
    if len(flat) != n**rank:
        raise DimensionMismatch(f"expected a {name} of shape {(n,) * rank}")
    path = lambda: f"{name}{[int(i) for i in np.unravel_index(pos, (n,) * rank)]}"
    for pos, x in enumerate(flat):
        if isinstance(x, Real):  # NonFiniteInput for NaN, infinity or past the float range
            flat[pos] = x = Poly.constant(_number(x, path()), n)
        elif not isinstance(x, Poly):
            raise SchemaError(path(), f"expected a Poly or a number, got {x!r}")
        if x.nvars != n:
            raise DimensionMismatch(f"{path()}: polynomial variable count != chart dimension")
    return {(rank - 2) * n * n + pos: x.terms for pos, x in enumerate(flat)}  # metric, then cubic


class PolyChart:
    """Polynomial metric and cubic form (zero if missing) on an n-dimensional chart, given
    as nested n x n and n x n x n arrays of `Poly` or numbers and kept as one table."""

    def __init__(self, dim: int, metric, cubic=None):
        self.dim = n = _chart_dim(dim)
        columns = _entries(metric, "metric", n, 2)
        if cubic is not None:
            columns.update(_entries(cubic, "cubic", n, 3))
        self._table, self._last = self._prepared(columns), None

    @classmethod
    def _from_columns(cls, dim: int, columns: dict) -> PolyChart:
        """The chart of a checked dim and {table column: term dict}, as `jsonio` reads it."""
        chart = cls.__new__(cls)
        chart.dim = dim
        chart._table, chart._last = chart._prepared(columns), None
        return chart

    # -- the monomial table and its evaluation -------------------------------

    def _prepared(self, columns):
        """(T, n) exponents of the T monomials and their (T, n^2 + n^3) coefficients from
        {column: term dict}, g_ij in column i*n + j, C_ijk in n^2 + (i*n + j)*n + k, else 0."""
        n, m = self.dim, self.dim**2
        monomials = sorted({e for terms in columns.values() for e in terms})
        row_of = {e: t for t, e in enumerate(monomials)}
        coeffs = np.zeros((len(monomials), m + n**3))
        for col, terms in columns.items():
            for e, c in terms.items():
                coeffs[row_of[e], col] = c
        # equal term dicts give equal columns; adjacent index swaps generate every permutation
        g, cub = coeffs[:, :m].reshape(-1, n, n), coeffs[:, m:].reshape(-1, n, n, n)
        if not (g == g.swapaxes(1, 2)).all():  # named by the upper entry of the pair
            i, j = np.argwhere((g != g.swapaxes(1, 2)).any(axis=0))[0]
            raise DimensionMismatch(f"metric entry ({i},{j}) not symmetric as a polynomial")
        if not ((cub == cub.swapaxes(1, 2)).all() and (cub == cub.swapaxes(2, 3)).all()):
            i, j, k = np.sort(np.indices((n, n, n)), axis=0)  # each entry's sorted index
            a, b, d = np.argwhere((cub != cub[:, i, j, k]).any(axis=0))[0]  # the first unlike it
            raise DimensionMismatch(f"cubic entry ({a},{b},{d}) not totally symmetric")
        return np.array(monomials, dtype=int).reshape(-1, n), coeffs

    def metric_at(self, point) -> ScalarProduct:
        return self._point_data(point)["g"]

    def _point_data(self, point):
        """The point's record, computed once and kept for the last point asked: the
        fields, the raised cubic 'cup' with its derivative 'dcup', and 'connections',
        each connection's (Gamma, dGamma) in the index layout above."""
        point = _real(point, "the point")
        if point.shape != (self.dim,):
            raise DimensionMismatch(f"expected a point of shape ({self.dim},), got {point.shape}")
        key = point.tobytes()
        if self._last is None or self._last[0] != key:
            if not np.isfinite(point).all():  # a field of other coordinates would look finite
                raise NonFiniteInput(f"point {point.tolist()} is not finite")
            n, m = self.dim, self.dim**2
            exps, coeffs = self._table
            # a point far out overflows to a non-finite metric, which build_scalar_product refuses
            with np.errstate(over="ignore", invalid="ignore"):
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
                d2flat = np.einsum("tac,tk->ack", d2, coeffs[:, :m])
            try:
                g = build_scalar_product(flat[:m].reshape(n, n))
            except DegenerateMetric as exc:
                raise DegenerateAtPoint(f"metric degenerate at {point.tolist()}: {exc}") from exc
            except NonFiniteInput as exc:  # an overflow, which 0·inf spreads to every entry
                raise NonFiniteInput(f"metric not finite at {point.tolist()}") from exc
            data = {
                "g": g,
                "dg": dflat[:, :m].reshape((n,) * 3),
                "d2g": d2flat.reshape((n,) * 4),
                "cflat": flat[m:].reshape((n,) * 3),
                "dcflat": dflat[:, m:].reshape((n,) * 4),
            }
            dg, d2g = data["dg"], data["d2g"]
            # Christoffel symbols of the first kind, Gamma_{ljk}, and their derivatives
            a = 0.5 * (np.einsum("jlk->ljk", dg) + np.einsum("klj->ljk", dg) - dg)
            da = 0.5 * (np.einsum("mjlk->mljk", d2g) + np.einsum("mklj->mljk", d2g) - d2g)
            gamma, dgamma = _raised_with_derivative(g.inverse, dg, a, da)
            cup, dcup = _raised_with_derivative(g.inverse, dg, data["cflat"], data["dcflat"])
            connections = {
                "levi_civita": (gamma, dgamma),
                "nabla": (gamma + cup, dgamma + dcup),
                "nabla_star": (gamma - cup, dgamma - dcup),
            }
            # callers get these arrays, not copies, so none may change the record
            for arr in (g.matrix, g.inverse, cup, dcup, *sum(connections.values(), ())):
                arr.flags.writeable = False
            data.update(cup=cup, dcup=dcup, connections=connections)
            self._last = (key, data)
        return self._last[1]


def _raised_with_derivative(gi, dg, field, dfield):
    """Value and exact derivative of g^-1 field, by d(g^-1) = -g^-1 (dg) g^-1."""
    value = np.einsum("il,ljk->ijk", gi, field)
    deriv = np.einsum("il,mljk->mijk", gi, dfield - np.einsum("mlh,hjk->mljk", dg, value))
    return value, deriv


def _operator_curvature(gamma, dgamma):
    dpart = np.einsum("kilj->jkli", dgamma) - np.einsum("likj->jkli", dgamma)
    qpart = np.einsum("ikh,hlj->jkli", gamma, gamma) - np.einsum("ilh,hkj->jkli", gamma, gamma)
    return dpart + qpart


def _lower(rop, gmatrix):
    return np.einsum("cabm,md->abcd", rop, gmatrix)


def curvature_at(chart: PolyChart, point, which: str = "levi_civita") -> np.ndarray:
    """The rank-4 curvature tensor of the chosen connection at the point."""
    if not isinstance(which, str) or which not in CONNECTIONS:  # an array compares entrywise
        raise UnknownConnection(f"unknown connection {which!r}; expected one of {CONNECTIONS}")
    d = chart._point_data(point)
    return _lower(_operator_curvature(*d["connections"][which]), d["g"].matrix)


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


def _membership(t, g, space):
    """membership_residual, which divides by max |t|, over max(1, max |t|) instead."""
    return membership_residual(t, g, space) * min(1.0, float(np.max(np.abs(t))))


def conjugate_triple_report(chart: PolyChart, point) -> TripleReport:
    """Evaluate the triple at a point and check all pointwise identities."""
    point = _real(point, "the point")
    n = chart.dim
    d = chart._point_data(point)
    g, cup, dcup = d["g"], d["cup"], d["dcup"]
    gm, gi = g.matrix, g.inverse
    gamma = d["connections"]["levi_civita"][0]
    rop_g, rop, rop_star = (_operator_curvature(*d["connections"][w]) for w in CONNECTIONS)
    r_g, r, r_star = (_lower(x, gm) for x in (rop_g, rop, rop_star))

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
    norm_c2 = float(np.einsum("ia,jb,kc,ijk,abc->", gi, gi, gi, cflat, cflat, optimize=_PICK_PATH))
    norm_t2 = float(t_form @ gi @ t_form)
    pick = norm_c2 / (n * (n - 1))
    ric = ricci(r, g)
    tau = _tau(ric, g).item()
    kappa = scalar_curvature(r_g, g) / (n * (n - 1))

    eye = np.eye(n)
    c_tilde_up = cup - (n / (n + 2)) * (
        np.einsum("j,ik->ijk", t_form, eye)
        + np.einsum("k,ij->ijk", t_form, eye)
        + np.einsum("jk,i->ijk", gm, t_vec)
    )
    c_tilde_flat = np.einsum("ijk,il->ljk", c_tilde_up, gm)

    residuals = {
        "curvature_vs_difference_tensor": _scaled((rop - rop_g) - (dc_skew + sq), rop, rop_g, sq),
        "conjugate_curvature_vs_difference_tensor": _scaled(
            (rop_star - rop_g) - (-dc_skew + sq), rop_star, rop_g, sq
        ),
        "curvature_skew_difference": _scaled((rop - rop_star) - 2.0 * dc_skew, rop, rop_star),
        "curvature_sum_square_term": _scaled(
            rop + rop_star - 2.0 * rop_g - 2.0 * sq, rop, rop_star, rop_g, sq
        ),
        "scalar_deviation": abs(
            (n * (n - 1) * kappa - tau) - (norm_c2 - n * n * norm_t2)
        )
        / max(1.0, abs(tau), abs(norm_c2), n * n * abs(norm_t2)),
        "curvature_sum_algebraic": _membership(r + r_star, g, "a"),
        "ricci_symmetry_pair": _scaled(antisym(ric) + antisym(ricci(r_star, g)), ric),
        "conjugacy": _scaled(r_star - conjugate(r), r, r_star),
        "cubic_trace_free": max(
            _scaled(np.einsum("jk,jkl->l", gi, c_tilde_flat), c_tilde_flat),
            _scaled(np.einsum("jl,jkl->k", gi, c_tilde_flat), c_tilde_flat),
            _scaled(np.einsum("kl,jkl->j", gi, c_tilde_flat), c_tilde_flat),
        ),
        "bianchi_nabla": _membership(r, g, "r"),
        "bianchi_nabla_star": _membership(r_star, g, "r"),
    }
    # the parallel-cubic criterion only bites when grad C is totally symmetric
    dc_asym = _scaled(dc - np.einsum("jimk->mijk", dc), dc)
    residuals["parallel_cubic_symmetry"] = (
        _scaled(rop - rop_star, rop) if dc_asym <= 1e-10 else 0.0
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
