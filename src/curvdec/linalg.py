"""Signature-aware linear algebra: scalar products, splits, and the rank-4 pairing.

Bilinear forms are plain (n, n) float arrays and rank-4 tensors are plain
(n, n, n, n) float arrays throughout the package; the kernels also take
stacks (..., n, n) and (..., n, n, n, n) with leading batch axes.  This
module owns the one stateful value type, :class:`ScalarProduct`.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import (
    DegenerateMetric,
    DimensionMismatch,
    DimensionTooSmall,
    NonFiniteInput,
    NonPositiveFactor,
    NotSymmetric,
)

SYMMETRY_TOL = 1e-12
DEGENERACY_RATIO = 1e-10
MAX_FLAT_DIM = 1000  # standard_scalar_product's bound: its two n x n matrices take <= 16 MB


@dataclass(frozen=True)
class ScalarProduct:
    """A nondegenerate symmetric bilinear form with cached inverse.

    Attributes
    ----------
    matrix : (n, n) ndarray
        The form g_ij.
    inverse : (n, n) ndarray
        g^ij, symmetrized.
    signature : (int, int)
        Counts (p, q) of positive and negative eigenvalues.
    """

    matrix: np.ndarray
    inverse: np.ndarray
    signature: tuple[int, int]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def rescaled(self, c: float) -> "ScalarProduct":
        """The scalar product c*g (c real and > 0); signature is unchanged."""
        c = _number(c, "rescale factor")
        if c <= 0:
            raise NonPositiveFactor(f"rescale factor {c} is not positive")
        return ScalarProduct(self.matrix * c, self.inverse / c, self.signature)


def build_scalar_product(matrix) -> ScalarProduct:
    """Validate a symmetric matrix and package it with inverse and signature.

    Raises
    ------
    DimensionTooSmall
        If n < 3.
    NonFiniteInput
        If the matrix is complex, some entry is NaN or infinite (listed by index), or the
        inverse overflows.
    NotSymmetric
        If max |g - g^T| exceeds 1e-12.
    DegenerateMetric
        If some eigenvalue has magnitude below 1e-10 times the spectral norm.
    """
    g = _real(matrix, "the metric")
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {g.shape}")
    n = g.shape[0]
    if n < 3:
        raise DimensionTooSmall(f"need dimension >= 3, got {n}")
    bad = np.argwhere(~np.isfinite(g))
    if bad.size:
        raise NonFiniteInput(f"non-finite metric entries at {[tuple(i) for i in bad.tolist()]}")
    asym = _row_maxnorm(g - g.T, 0)
    if asym > SYMMETRY_TOL:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e}")
    g = 0.5 * g + 0.5 * g.T  # 0.5 * (g + g.T) would overflow near the float limit
    # the signature and the degeneracy ratio do not depend on scale, and the
    # eigen-solve of g / max|g| cannot overflow
    eigs = np.linalg.eigvalsh(g / (np.max(np.abs(g)) or 1.0))
    spectral = np.max(np.abs(eigs))
    if spectral == 0.0 or np.min(np.abs(eigs)) < DEGENERACY_RATIO * spectral:
        raise DegenerateMetric(
            f"eigenvalue magnitude below {DEGENERACY_RATIO:.0e} of spectral norm"
        )
    p, q = int(np.sum(eigs > 0)), int(np.sum(eigs < 0))
    inv = np.linalg.inv(g)
    inv = 0.5 * (inv + inv.T)
    if not np.isfinite(inv).all():
        raise NonFiniteInput("the inverse metric is out of float range")
    return ScalarProduct(g, inv, (p, q))


def _real(x, what: str) -> np.ndarray:
    """x as a float array; NonFiniteInput for a complex one, whose imaginary part a cast drops,
    for strings, which a cast would parse, and for one the cast refuses: a ragged nest or an
    integer past the float range."""
    try:
        kind = np.asarray(x).dtype.kind  # the dtype alone: no pass over a float array's entries
        if kind not in "cUS":
            return np.asarray(x, dtype=float)
    except (ValueError, TypeError, OverflowError) as exc:
        raise NonFiniteInput(f"{what} is not a real number in float range") from exc
    raise NonFiniteInput(f"{what} is not real" if kind == "c" else f"{what} is not a real number")


def _number(x, what: str) -> float:
    """x, one finite real number, as a float; else NonFiniteInput, for an array too."""
    x = _real(x, what)
    if x.ndim or not np.isfinite(x):  # NaN and infinity are no real numbers either
        raise NonFiniteInput(f"{what} {x.tolist()} is not a real number")
    return float(x)


def _integer(x, error, what: str) -> int:
    """x as an int, numpy integers included; error for a bool or a value that is not an integer."""
    if not isinstance(x, Integral) or isinstance(x, bool):
        raise error(f"{what} must be an integer, got {x!r}")
    return int(x)


def standard_scalar_product(p: int, q: int) -> ScalarProduct:
    """diag(+1 x p, -1 x q), the flat form of signature (p, q) of integer counts, with
    p + q in 3..MAX_FLAT_DIM = 1,000; a larger count is refused before anything is built."""
    p, q = (_integer(x, DimensionMismatch, "a signature entry") for x in (p, q))
    if p < 0 or q < 0:
        raise DimensionMismatch(f"signature ({p}, {q}) has a negative count")
    n = p + q
    if n < 3:
        raise DimensionTooSmall(f"need dimension >= 3, got {n}")
    if n > MAX_FLAT_DIM:
        raise DimensionMismatch(f"dimension {n} exceeds {MAX_FLAT_DIM}")
    m = np.diag(np.concatenate([np.ones(p), -np.ones(q)]))
    return ScalarProduct(m, m.copy(), (p, q))


def sym(b) -> np.ndarray:
    """Symmetric part (b + b^T)/2 of a form or a stack of forms."""
    b = np.asarray(b, dtype=float)
    return 0.5 * (b + b.swapaxes(-1, -2))


def antisym(b) -> np.ndarray:
    """Antisymmetric part (b - b^T)/2 of a form or a stack of forms."""
    b = np.asarray(b, dtype=float)
    return 0.5 * (b - b.swapaxes(-1, -2))


def _row_maxnorm(x, batch: int):
    """max |x| over every axis after the first `batch` ones."""
    return np.maximum.reduce(np.abs(x), axis=tuple(range(batch, x.ndim)), initial=0.0)


def check_tensor(t, g: ScalarProduct | None = None) -> np.ndarray:
    """t as a float (..., n, n, n, n) array of finite entries, n from g if given.

    Raises DimensionMismatch for any other shape and NonFiniteInput for a complex
    stack or a NaN or infinite entry anywhere in it.
    """
    t = _real(t, "the tensor")
    n = g.dim if g is not None else t.shape[-1] if t.ndim else 0
    if t.shape[-4:] != (n,) * 4:
        raise DimensionMismatch(
            f"expected tensors of shape (..., {n}, {n}, {n}, {n}), got {t.shape}"
        )
    if not np.logical_and.reduce(np.isfinite(t), axis=None):
        bad = np.argwhere(~np.isfinite(t))
        first = tuple(bad[0].tolist())
        raise NonFiniteInput(f"{len(bad)} non-finite tensor entries, the first at {first}")
    return t


def _per_tensor(x):
    """A per-tensor result: a Python scalar for one tensor, an array for a stack."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def tensor_pairing(t1, t2, g: ScalarProduct) -> float | np.ndarray:
    """Full contraction g^ia g^jb g^kc g^ld T1_ijkl T2_abcd.

    This is the O(V,g)-invariant pairing on rank-4 tensors; the orthogonality
    statements of the decompositions are with respect to it.  Symmetric in
    (t1, t2); positive definite only for definite g.  The leading batch axes
    of t1 and t2 broadcast against each other, and the result holds one value
    per broadcast pair: a float for two single tensors.
    """
    t1, t2 = check_tensor(t1, g), check_tensor(t2, g)
    batch, n, gi = t1.shape[:-4], g.dim, g.inverse
    # raise i, j, k, then l, each by one product on a contiguous reshape
    raised = gi.T @ (gi.T @ t1.reshape(*batch, n, n**3)).reshape(*batch, n, n, n * n)
    raised = (gi.T @ raised.reshape(*batch, n * n, n, n)).reshape(*batch, n**3, n) @ gi
    try:  # C order: a broadcast axis of t2's innermost would make the sums run across pairs
        products = np.multiply(raised.reshape(t1.shape), t2, order="C")
    except ValueError:
        raise DimensionMismatch(f"shapes {t1.shape} and {t2.shape} do not broadcast") from None
    return _per_tensor(np.add.reduce(products.reshape(*products.shape[:-4], n**4), axis=-1))
