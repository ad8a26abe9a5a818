"""Deterministic subspace sampling and rank-based dimension estimation.

Every sample is drawn from a PCG64 stream keyed by (seed, index): the
generator is ``default_rng(SeedSequence(entropy=seed, spawn_key=index))``
with ``index`` a tuple of unsigned ints.  Identical keys give bit-identical
tensors on every platform.  Samples are normalized to unit max-norm.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomp import a_projections, projective_part, traceless_core, w_projections
from .errors import EmptySpace, UnknownSpace
from .linalg import standard_scalar_product
from .spaces import bianchi_project, mu, psi

SAMPLE_SPACES = (
    "co",
    "r",
    "a",
    "s",
    "f",
    "f_pair",
    "p",
    "t",
    "a_plus_s",
    *(f"W{j}" for j in range(1, 9)),
    *(f"A{j}" for j in range(1, 9)),
)

EMPTY_NORM = 1e-10
RANK_RATIO = 1e-8
GAP_RATIO = 1e6


def rng_stream(seed: int, index) -> np.random.Generator:
    """The documented stream split: PCG64 over SeedSequence(seed, spawn_key=index)."""
    if isinstance(index, int):
        index = (index,)
    key = tuple(int(i) & 0xFFFFFFFF for i in index)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))


def _normalize(t, floor: float):
    m = float(np.max(np.abs(t)))
    if m < floor:
        raise EmptySpace(f"projected sample has max-norm {m:.2e}; space is empty here")
    return t / m


def sample(
    space: str,
    dim: int,
    signature: tuple[int, int] | None = None,
    seed: int = 0,
    index=0,
) -> np.ndarray:
    """One unit-max-norm tensor lying in the named subspace.

    Construction routes: 'r' is the Bianchi projection of uniform noise; 'a'
    and 's' are its idempotent averages; 'f' removes the single component
    carrying the antisymmetric Ricci part; 'f_pair' also removes the two
    components obstructing Ricci symmetry of the conjugate, so the sample and
    its conjugate both have symmetric Ricci tensors; 'p' and 't' use the
    Ricci-free and trace-free projections; 'Wj'/'Aj' apply the family
    projectors.  Raises EmptySpace when the subspace is zero-dimensional at
    this dimension (the projected noise is at roundoff scale).
    """
    if space not in SAMPLE_SPACES:
        raise UnknownSpace(f"unknown sample space {space!r}")
    n = int(dim)
    if signature is None:
        signature = (n, 0)
    g = standard_scalar_product(*signature)
    rng = rng_stream(seed, index)
    noise = rng.uniform(-1.0, 1.0, (n, n, n, n))

    if space == "co":
        return _normalize(0.5 * (noise - np.swapaxes(noise, 0, 1)), EMPTY_NORM)
    base = bianchi_project(noise)
    base = base / np.max(np.abs(base))
    if space == "r":
        return base
    if space == "a":
        return _normalize(psi(base), EMPTY_NORM)
    if space == "s":
        return _normalize(mu(base), EMPTY_NORM)
    if space == "a_plus_s":
        return _normalize(psi(base) + mu(base), EMPTY_NORM)
    if space == "f":
        w = w_projections(base, g)
        return _normalize(base - w[2], EMPTY_NORM)
    if space == "f_pair":
        w = w_projections(base, g)
        return _normalize(base - w[2] - w[3] - w[7], EMPTY_NORM)
    if space == "p":
        return _normalize(projective_part(base, g), EMPTY_NORM)
    if space == "t":
        return _normalize(traceless_core(base, g), EMPTY_NORM)
    family = space[0]
    j = int(space[1:]) - 1
    comps = w_projections(base, g) if family == "W" else a_projections(base, g)
    return _normalize(comps[j], EMPTY_NORM)


def dim_co(n: int) -> int:
    return n**3 * (n - 1) // 2


def dim_r(n: int) -> int:
    return n * n * (n * n - 1) // 3


def dim_a(n: int) -> int:
    return n * n * (n * n - 1) // 12


def dim_f(n: int) -> int:
    return n * (n - 1) * (2 * n * n + 2 * n - 3) // 6


def dim_p(n: int) -> int:
    return n * n * (n * n - 4) // 3


FORMULA_DIMS = {"co": dim_co, "r": dim_r, "a": dim_a, "f": dim_f, "p": dim_p}


def formula_dim(space: str, n: int) -> int | None:
    fn = FORMULA_DIMS.get(space)
    return fn(n) if fn else None


@dataclass(frozen=True)
class DimensionReport:
    """Numerical rank of a stack of subspace samples.

    singular_value_gap is the ratio between the smallest accepted and the
    largest rejected singular value (None when nothing was rejected or the
    space is empty); the report is inconclusive when the gap is below 1e6.
    """

    space: str
    empirical_dim: int
    formula_dim: int | None
    samples_used: int
    singular_value_gap: float | None
    inconclusive: bool


def numerical_rank(rows: np.ndarray, floor: float = 0.0) -> tuple[int, float | None]:
    """Rank by singular-value thresholding at 1e-8 of the largest value.

    floor is an absolute scale below which the whole stack counts as zero
    (for rows that were not individually normalized).
    """
    if rows.size == 0:
        return 0, None
    s = np.linalg.svd(rows, compute_uv=False)
    smax = s[0]
    if smax <= max(floor, 0.0):
        return 0, None
    rank = int(np.sum(s > RANK_RATIO * smax))
    if rank >= len(s):
        return rank, None
    tail = s[rank]
    gap = float("inf") if tail == 0.0 else float(s[rank - 1] / tail)
    return rank, gap


def empirical_dimension(
    space: str,
    dim: int,
    signature: tuple[int, int] | None = None,
    samples: int | None = None,
    seed: int = 0,
) -> DimensionReport:
    """Estimate the dimension of a subspace by the rank of stacked samples.

    Uses at least twice the candidate dimension many samples (the known
    closed-form dimension when one exists, the ambient generalized-curvature
    dimension otherwise).  An unreliable singular-value gap sets the report's
    inconclusive flag.
    """
    n = int(dim)
    if signature is None:
        signature = (n, 0)
    fdim = formula_dim(space, n)
    candidate = fdim if fdim is not None else dim_r(n)
    k = samples if samples is not None else max(2 * candidate, 8)
    rows = []
    for idx in range(k):
        try:
            rows.append(sample(space, n, signature, seed, idx).ravel())
        except EmptySpace:
            pass
    if not rows:
        return DimensionReport(space, 0, fdim, 0, None, False)
    rank, gap = numerical_rank(np.asarray(rows))
    inconclusive = gap is not None and gap < GAP_RATIO or gap is None and rank > 0
    return DimensionReport(space, rank, fdim, len(rows), gap, inconclusive)
