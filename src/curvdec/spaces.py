"""Rank-4 curvature tensors: products, conjugation, Ricci traces, memberships.

A curvature tensor is an (n, n, n, n) float array R[i, j, k, l] holding
R(e_i, e_j, e_k, e_l).  The tensor tower is

    a(V)  c  f(V,g)  c  r(V)  c  co(V),

where co requires antisymmetry in the first index pair, r additionally the
first Bianchi identity, f additionally a symmetric Ricci tensor, and a
additionally antisymmetry in the last pair.  s(V) is the last-pair symmetric
companion of a(V); p(V) and t(V) are the Ricci-flat and totally trace-free
subspaces of r(V).  Tensors carry no space tag: membership is a predicate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnknownSpace
from .linalg import ScalarProduct, _maxnorm, antisym, check_same_dim, check_tensor

MEMBERSHIP_TOL = 1e-10

SPACE_TAGS = ("co", "r", "a", "s", "f", "p", "t")


def _reindex(t, pattern):
    return np.einsum(f"{pattern}->abcd", t)


def reindex(t, pattern: str) -> np.ndarray:
    """out[a,b,c,d] = t[pattern], e.g. reindex(R, 'badc') is R(y,x,w,z)."""
    return _reindex(check_tensor(t), pattern)


def wedge_r(h, k, r: float) -> np.ndarray:
    """The wedge product family on bilinear forms.

    (h ^_r k)[a,b,c,d] = h[a,c] k[b,d] - h[b,c] k[a,d]
                         - r * (h[a,d] k[b,c] - h[b,d] k[a,c]);
    r = 0 is the plain wedge, r = 1 the Kulkarni-Nomizu product.
    """
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    check_same_dim(h, k)
    hk = np.einsum("ac,bd->abcd", h, k)
    out = hk - hk.swapaxes(0, 1)
    if r != 0:
        out -= r * out.swapaxes(2, 3)
    return out


def wedge(h, k) -> np.ndarray:
    """Plain wedge h ^ k = wedge_r(h, k, 0)."""
    return wedge_r(h, k, 0.0)


def dot_product(h, k) -> np.ndarray:
    """(h . k)[a,b,c,d] = h[a,b] k[c,d].  Not symmetric in (h, k)."""
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    check_same_dim(h, k)
    return np.einsum("ab,cd->abcd", h, k)


def conjugate(t) -> np.ndarray:
    """Conjugate tensor R*[i,j,k,l] = -R[i,j,l,k]; an exact involution."""
    return -np.swapaxes(check_tensor(t), 2, 3)


def psi(t) -> np.ndarray:
    """Four-term average projecting r(V) onto a(V); idempotent on r(V)."""
    t = check_tensor(t)
    return 0.25 * (t + _reindex(t, "badc") + _reindex(t, "cdab") + _reindex(t, "dcba"))


def mu(t) -> np.ndarray:
    """Six-term average projecting r(V) onto s(V); idempotent on r(V)."""
    t = check_tensor(t)
    return 0.125 * (
        3.0 * t
        + 3.0 * _reindex(t, "abdc")
        + _reindex(t, "adcb")
        + _reindex(t, "acdb")
        + _reindex(t, "dbca")
        + _reindex(t, "cbda")
    )


def _cyclic_sum(t):
    return t + _reindex(t, "bcad") + _reindex(t, "cabd")


def cyclic_sum(t) -> np.ndarray:
    """First-Bianchi cyclic sum over the first three arguments."""
    return _cyclic_sum(check_tensor(t))


def bianchi_project(t) -> np.ndarray:
    """Orthogonal projection of an arbitrary rank-4 tensor onto r(V).

    Antisymmetrizes the first index pair, then removes the image of the
    cyclic-sum operator (one third of it is idempotent on the
    first-pair-antisymmetric tensors).
    """
    t = check_tensor(t)
    a = 0.5 * (t - np.swapaxes(t, 0, 1))
    return a - _cyclic_sum(a) / 3.0


@dataclass(frozen=True)
class RicciReport:
    """All five single-pair g-traces of a rank-4 tensor plus the scalar trace.

    ric is rho14 and ric_star is rho23; on co(V) one has rho23 = -rho13 and
    rho24 = -rho14 entrywise, and tau equals the g-trace of both ric and
    ric_star.
    """

    rho13: np.ndarray
    rho14: np.ndarray
    rho23: np.ndarray
    rho24: np.ndarray
    rho34: np.ndarray
    tau: float

    @property
    def ric(self) -> np.ndarray:
        return self.rho14

    @property
    def ric_star(self) -> np.ndarray:
        return self.rho23


def ricci(t, g: ScalarProduct) -> np.ndarray:
    """Ricci tensor rho14: ric[a,b] = g^ij R[i,a,b,j]."""
    t = check_tensor(t, g)
    return np.einsum("ij,iabj->ab", g.inverse, t)


def ricci_star(t, g: ScalarProduct) -> np.ndarray:
    """Conjugate Ricci tensor rho23: ric*[a,b] = g^ij R[a,i,j,b]."""
    t = check_tensor(t, g)
    return np.einsum("ij,aijb->ab", g.inverse, t)


def scalar_curvature(t, g: ScalarProduct) -> float:
    """Generalized scalar curvature tau = g^il g^jk R_ijkl."""
    t = check_tensor(t, g)
    return float(np.einsum("il,jk,ijkl->", g.inverse, g.inverse, t, optimize=True))


def ricci_traces(t, g: ScalarProduct) -> RicciReport:
    """All Ricci-type contractions of t with respect to g."""
    t = check_tensor(t, g)
    gi = g.inverse
    return RicciReport(
        rho13=np.einsum("ij,iajb->ab", gi, t),
        rho14=np.einsum("ij,iabj->ab", gi, t),
        rho23=np.einsum("ij,aijb->ab", gi, t),
        rho24=np.einsum("ij,aibj->ab", gi, t),
        rho34=np.einsum("ij,abij->ab", gi, t),
        tau=float(np.einsum("il,jk,ijkl->", gi, gi, t, optimize=True)),
    )


def membership_residual(t, g: ScalarProduct, space: str) -> float:
    """Max-norm violation of the defining identities, normalized by ||t||.

    Returns 0.0 for the zero tensor (it belongs to every space).
    """
    t = check_tensor(t, g)
    scale = _maxnorm(t)
    if scale == 0.0:
        return 0.0
    res = _maxnorm(t + np.swapaxes(t, 0, 1))
    if space == "co":
        return res / scale
    res = max(res, _maxnorm(_cyclic_sum(t)))
    if space == "r":
        return res / scale
    if space == "a":
        return max(res, _maxnorm(t + np.swapaxes(t, 2, 3))) / scale
    if space == "s":
        return max(res, _maxnorm(t - np.swapaxes(t, 2, 3))) / scale
    if space == "f":
        return max(res, _maxnorm(antisym(ricci(t, g)))) / scale
    if space == "p":
        return max(res, _maxnorm(ricci(t, g))) / scale
    if space == "t":
        return max(res, _maxnorm(ricci(t, g)), _maxnorm(ricci_star(t, g))) / scale
    raise UnknownSpace(f"unknown space tag {space!r}")


def membership(t, g: ScalarProduct, space: str, tol: float = MEMBERSHIP_TOL):
    """(flag, residual) for membership of t in the named space."""
    if space not in SPACE_TAGS:
        raise UnknownSpace(f"unknown space tag {space!r}; expected one of {SPACE_TAGS}")
    res = membership_residual(t, g, space)
    return res <= tol, res


__all__ = [
    "MEMBERSHIP_TOL",
    "SPACE_TAGS",
    "RicciReport",
    "bianchi_project",
    "conjugate",
    "cyclic_sum",
    "dot_product",
    "membership",
    "membership_residual",
    "mu",
    "psi",
    "reindex",
    "ricci",
    "ricci_star",
    "ricci_traces",
    "scalar_curvature",
    "wedge",
    "wedge_r",
]
