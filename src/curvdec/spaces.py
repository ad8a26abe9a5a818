"""Rank-4 curvature tensors: products, conjugation, Ricci traces, memberships.

A curvature tensor is an (n, n, n, n) float array R[i, j, k, l] holding
R(e_i, e_j, e_k, e_l); every map here also takes a stack (..., n, n, n, n)
and acts on each tensor of it, bit for bit as on that tensor alone.  The
tensor tower is

    a(V)  c  f(V,g)  c  r(V)  c  co(V),

where co requires antisymmetry in the first index pair, r additionally the
first Bianchi identity, f additionally a symmetric Ricci tensor, and a
additionally antisymmetry in the last pair.  s(V) is the last-pair symmetric
companion of a(V); p(V) and t(V) are the Ricci-flat and totally trace-free
subspaces of r(V).  Tensors carry no space tag: membership is a predicate.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import NonFiniteInput, UnknownSpace
from .linalg import (ScalarProduct, _per_tensor, _real, _row_maxnorm, antisym, check_same_dim,
                     check_tensor)

MEMBERSHIP_TOL = 1e-10

SPACE_TAGS = ("co", "r", "a", "s", "f", "p", "t")


@cache
def _axes(pattern: str, ndim: int) -> tuple[int, ...]:
    return (*range(ndim - 4), *(ndim - 4 + pattern.index(c) for c in "abcd"))


def _reindex(t, pattern):
    """The view of t with out[..., a, b, c, d] = t[..., <pattern>], e.g. t[..., b, a, d, c]."""
    return t.transpose(_axes(pattern, t.ndim))


def _wedge_r(h, k, r: float) -> np.ndarray:
    """`wedge_r` of float forms of one n, unchecked: the package's own products, whose forms
    all come from one g."""
    hk = np.einsum("...ac,...bd->...abcd", h, k)
    out = hk - hk.swapaxes(-4, -3)
    if r != 0:
        out -= r * out.swapaxes(-2, -1)
    return out


def _wedge(h, k) -> np.ndarray:
    return _wedge_r(h, k, 0.0)


def _dot_product(h, k) -> np.ndarray:
    return np.einsum("...ab,...cd->...abcd", h, k)


def _finite(**forms) -> list[np.ndarray]:
    """The one gate of forms from outside: each as a float array, all (..., n, n) of one n
    (`check_same_dim`); NonFiniteInput naming the first that is complex or not finite."""
    forms = {name: _real(x, name) for name, x in forms.items()}
    check_same_dim(*forms.values())
    for name, x in forms.items():
        if not np.isfinite(x).all():
            raise NonFiniteInput(f"{name} has a non-finite entry")
    return list(forms.values())


def wedge_r(h, k, r: float) -> np.ndarray:
    """The wedge product family on bilinear forms.

    (h ^_r k)[a,b,c,d] = h[a,c] k[b,d] - h[b,c] k[a,d]
                         - r * (h[a,d] k[b,c] - h[b,d] k[a,c]);
    r = 0 is the plain wedge, r = 1 the Kulkarni-Nomizu product.  NonFiniteInput for a
    complex, NaN or infinite entry of h or k, or for r.
    """
    h, k = _finite(h=h, k=k)
    if not np.isfinite(_real(r, "r")):
        raise NonFiniteInput(f"r = {r} is not finite")
    return _wedge_r(h, k, r)


def wedge(h, k) -> np.ndarray:
    """Plain wedge h ^ k = wedge_r(h, k, 0)."""
    return _wedge(*_finite(h=h, k=k))


def dot_product(h, k) -> np.ndarray:
    """(h . k)[a,b,c,d] = h[a,b] k[c,d].  Not symmetric in (h, k)."""
    return _dot_product(*_finite(h=h, k=k))


def conjugate(t) -> np.ndarray:
    """Conjugate tensor R*[i,j,k,l] = -R[i,j,l,k]; an exact involution."""
    return -np.swapaxes(check_tensor(t), -2, -1)


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


def bianchi_project(t) -> np.ndarray:
    """Orthogonal projection of an arbitrary rank-4 tensor onto r(V).

    Antisymmetrizes the first index pair, then removes the image of the
    cyclic-sum operator (one third of it is idempotent on the
    first-pair-antisymmetric tensors).
    """
    t = check_tensor(t)
    a = 0.5 * (t - np.swapaxes(t, -4, -3))
    return a - _cyclic_sum(a) / 3.0


@dataclass(frozen=True)
class RicciReport:
    """All five single-pair g-traces of a rank-4 tensor plus the scalar trace.

    ric is rho14 and ric_star is rho23; on co(V) one has rho23 = -rho13 and
    rho24 = -rho14 entrywise, and tau equals the g-trace of both ric and
    ric_star.  For a stack every field is stacked, tau to the batch shape.
    """

    rho13: np.ndarray
    rho14: np.ndarray
    rho23: np.ndarray
    rho24: np.ndarray
    rho34: np.ndarray
    tau: float | np.ndarray

    @property
    def ric(self) -> np.ndarray:
        return self.rho14

    @property
    def ric_star(self) -> np.ndarray:
        return self.rho23


def ricci(t, g: ScalarProduct) -> np.ndarray:
    """Ricci tensor rho14: ric[a,b] = g^ij R[i,a,b,j]."""
    t = check_tensor(t, g)
    return np.einsum("ij,...iabj->...ab", g.inverse, t)


def ricci_star(t, g: ScalarProduct) -> np.ndarray:
    """Conjugate Ricci tensor rho23: ric*[a,b] = g^ij R[a,i,j,b]."""
    t = check_tensor(t, g)
    return np.einsum("ij,...aijb->...ab", g.inverse, t)


def _tau(ric, g: ScalarProduct):
    """tau, the g^-1-trace of Ric, shaped (..., 1, 1): summed elementwise, not by einsum,
    whose order differs in the last bit."""
    return np.sum(g.inverse * ric, axis=(-2, -1), keepdims=True)


def _traces(t, g: ScalarProduct):
    """(Ric, Ric*, tau) of t, with tau as _tau gives it."""
    ric = ricci(t, g)
    return ric, ricci_star(t, g), _tau(ric, g)


def scalar_curvature(t, g: ScalarProduct) -> float | np.ndarray:
    """Generalized scalar curvature tau = g^il g^jk R_ijkl; a float for one tensor."""
    return _per_tensor(_tau(ricci(t, g), g)[..., 0, 0])


def ricci_traces(t, g: ScalarProduct) -> RicciReport:
    """All Ricci-type contractions of t with respect to g, one report for a whole stack."""
    t = check_tensor(t, g)
    gi = g.inverse
    ric, star, tau = _traces(t, g)
    return RicciReport(
        rho13=np.einsum("ij,...iajb->...ab", gi, t),
        rho14=ric,
        rho23=star,
        rho24=np.einsum("ij,...aibj->...ab", gi, t),
        rho34=np.einsum("ij,...abij->...ab", gi, t),
        tau=_per_tensor(tau[..., 0, 0]),
    )


def membership_residual(t, g: ScalarProduct, space: str) -> float:
    """Max-norm violation of the defining identities, normalized by ||t||.

    Returns 0.0 for the zero tensor (it belongs to every space); for a stack,
    the largest residual of its tensors.
    """
    return float(np.maximum.reduce(_membership_rows(t, g, space), axis=None, initial=0.0))


def _membership_rows(t, g: ScalarProduct, space: str):
    """membership_residual of each tensor of a stack, one per index of its batch axes."""
    if space not in SPACE_TAGS:
        raise UnknownSpace(f"unknown space tag {space!r}; expected one of {SPACE_TAGS}")
    t = check_tensor(t, g)
    # entries near the float limit overflow to an infinite residual, which refuses the tensor
    with np.errstate(over="ignore", invalid="ignore"):
        parts = [t + np.swapaxes(t, -4, -3)]
        if space != "co":
            parts.append(_cyclic_sum(t))
        if space == "a":
            parts.append(t + np.swapaxes(t, -2, -1))
        elif space == "s":
            parts.append(t - np.swapaxes(t, -2, -1))
        elif space == "f":
            parts.append(antisym(ricci(t, g)))
        elif space == "p":
            parts.append(ricci(t, g))
        elif space == "t":
            parts += [ricci(t, g), ricci_star(t, g)]
        return _relative(t, *parts)


def _relative(t, *parts):
    """Per tensor of the stack t, the largest max |x| of the parts over max |t| (over 1.0 if 0)."""
    scale = _row_maxnorm(t, t.ndim - 4)
    worst = np.maximum.reduce([_row_maxnorm(x, t.ndim - 4) for x in parts])
    return worst / np.where(scale > 0, scale, 1.0)


def membership(t, g: ScalarProduct, space: str, tol: float = MEMBERSHIP_TOL):
    """(flag, residual) for membership of t in the named space."""
    res = membership_residual(t, g, space)
    return res <= tol, res

