"""Deterministic subspace sampling and rank-based dimension estimation.

Every sample is drawn from a PCG64 stream keyed by (seed, index): the
generator is ``default_rng(SeedSequence(entropy=seed, spawn_key=index))``
with ``index`` an int >= 0 or a tuple of them.  Identical keys give
bit-identical tensors on every platform.  Samples have unit max-norm.

The noise of an index does not depend on the space, so every space's samples
are projections of one base stack: the normalized Bianchi projections of the
noise of indices 0, 1, 2, ...  A space's k samples are the first k indices of
this sequence, which all spaces share; `dimension_reports` draws each index
once for all spaces (and projects it once per W or A family), the invariant
suite once per block of CHUNK indices.  Stacks are built CHUNK tensors at a
time, so the kernels see a batch axis while the temporaries stay small;
`sample` is the one-index call of the same builder.  `curvdec dims` prints the
reports, and the suite's dimension_consistency is their verdict.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomp import a_projections, projective_part, traceless_core, w_projections
from .errors import DimensionMismatch, DimensionTooSmall, EmptyRun, EmptySpace
from .errors import NegativeStreamKey, UnknownSpace
from .linalg import ScalarProduct, standard_scalar_product
from .spaces import bianchi_project, mu, psi

EMPTY_NORM = 1e-10
RANK_RATIO = 1e-8
GAP_RATIO = 1e6
# tensors per kernel call; larger chunks gain no speed at n >= 6 and cost memory
CHUNK = 32


# the dimensions of the module types in the W and A families
_one = lambda n: 1
_sym0 = lambda n: n * (n + 1) // 2 - 1  # traceless symmetric 2-forms
_alt = lambda n: n * (n - 1) // 2  # alternating 2-forms
_weyl = lambda n: n * (n + 1) * (n + 2) * (n - 3) // 12
_b7 = lambda n: (n - 1) * n * (n + 1) * (n + 2) // 8 - n * n + 1
_b8 = lambda n: n * (n - 1) * (n - 3) * (n + 2) // 8


def _sum(plus, minus=()):
    """The dimension of a sum of table entries, less the given summands."""
    return lambda n: sum(FORMULA_DIMS[s](n) for s in plus) - sum(FORMULA_DIMS[s](n) for s in minus)


# The closed-form dimension of every sample space, in output order.  The W and
# A families each split r(V); a(V) = A1 + A2 + A6 and s(V) = A3 + A4 + A7.
FORMULA_DIMS = {
    "co": lambda n: n**3 * (n - 1) // 2,
    "r": lambda n: n * n * (n * n - 1) // 3,
    "a": lambda n: n * n * (n * n - 1) // 12,
    "s": _sum(("A3", "A4", "A7")),
    "f": lambda n: n * (n - 1) * (2 * n * n + 2 * n - 3) // 6,
    "f_pair": _sum(("r",), ("W3", "W4", "W8")),
    "p": lambda n: n * n * (n * n - 4) // 3,
    "t": _sum(("W6", "W7", "W8")),
    "a_plus_s": _sum(("a", "s")),
    "W1": _one, "W2": _sym0, "W3": _alt, "W4": _alt,
    "W5": _sym0, "W6": _weyl, "W7": _b7, "W8": _b8,
    "A1": _one, "A2": _sym0, "A3": _sym0, "A4": _alt,
    "A5": _alt, "A6": _weyl, "A7": _b7, "A8": _b8,
}
SAMPLE_SPACES = tuple(FORMULA_DIMS)


def formula_dim(space: str, n: int) -> int:
    """The closed-form dimension of a sample space at n >= 3; UnknownSpace for an unknown tag."""
    if space not in FORMULA_DIMS:
        raise UnknownSpace(f"unknown sample space {space!r}")
    if int(n) < 3:
        raise DimensionTooSmall(f"need dimension >= 3, got {n}")
    return FORMULA_DIMS[space](int(n))


def _scalar_product(n: int, signature) -> ScalarProduct:
    """The standard scalar product of signature, (n, 0) by default; p + q must be n."""
    p, q = (n, 0) if signature is None else signature
    if p + q != n:
        raise DimensionMismatch(f"signature ({p}, {q}) does not fit dimension {n}")
    return standard_scalar_product(p, q)


def rng_stream(seed: int, index) -> np.random.Generator:
    """The documented stream split: PCG64 over SeedSequence(seed, spawn_key=index).

    Raises NegativeStreamKey for a negative seed or index entry.
    """
    if isinstance(index, int):
        index = (index,)
    key = tuple(int(i) for i in index)
    if seed < 0 or min(key, default=0) < 0:
        raise NegativeStreamKey(f"negative stream key: seed {seed}, index {index}")
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))


def _noise(shape, seed: int, indices) -> np.ndarray:
    """Uniform [-1, 1) noise of the given shape from each stream index, stacked."""
    out = np.empty((len(indices),) + shape)
    for row, index in zip(out, indices):
        row[...] = rng_stream(seed, index).uniform(-1.0, 1.0, shape)
    return out


def _normalize(stack, floor: float) -> np.ndarray:
    """Scale each tensor to unit max-norm in place, dropping those below floor."""
    m = np.max(np.abs(stack), axis=(-4, -3, -2, -1))
    keep = ~(m < floor)
    if not keep.all():
        stack, m = stack[keep], m[keep]
    stack /= m[:, None, None, None, None]
    return stack


def _project(space: str, base, g: ScalarProduct) -> np.ndarray:
    """The (unnormalized) image of a stack of 'r' samples in the space."""
    if space == "a":
        return psi(base)
    if space == "s":
        return mu(base)
    if space == "a_plus_s":
        return psi(base) + mu(base)
    if space == "f":
        return base - w_projections(base, g)[2]
    if space == "f_pair":
        w = w_projections(base, g)
        return base - w[2] - w[3] - w[7]
    if space == "p":
        return projective_part(base, g)
    if space == "t":
        return traceless_core(base, g)
    comps = w_projections(base, g) if space[0] == "W" else a_projections(base, g)
    return comps[int(space[1:]) - 1]


def _stack(space: str, g: ScalarProduct, seed: int, indices, base=None) -> np.ndarray:
    """The samples of a space at these stream indices, stacked (k', n, n, n, n).

    An index whose projection is at roundoff scale (the space is empty there)
    is left out.  base, if given, holds the 'r' samples of the same indices.
    """
    n = g.dim
    out = np.empty((len(indices),) + (n,) * 4)
    used = 0
    for lo in range(0, len(indices), CHUNK):
        part = indices[lo : lo + CHUNK]
        if space == "co":
            noise = _noise((n,) * 4, seed, part)
            rows = _normalize(0.5 * (noise - np.swapaxes(noise, -4, -3)), EMPTY_NORM)
        else:
            if base is not None:
                r = base[lo : lo + CHUNK]
            else:  # the Bianchi projection of noise is never at roundoff scale: no floor
                r = _normalize(bianchi_project(_noise((n,) * 4, seed, part)), 0.0)
            rows = r if space == "r" else _normalize(_project(space, r, g), EMPTY_NORM)
        out[used : used + len(rows)] = rows
        used += len(rows)
    return out[:used]


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
    this dimension (the projected noise is at roundoff scale),
    DimensionMismatch when the signature does not fit the dimension and
    NegativeStreamKey for a negative seed or index entry.
    """
    if space not in FORMULA_DIMS:
        raise UnknownSpace(f"unknown sample space {space!r}")
    stack = _stack(space, _scalar_product(int(dim), signature), seed, [index])
    if not len(stack):
        raise EmptySpace(
            f"projected sample has max-norm below {EMPTY_NORM:.0e}; space is empty here"
        )
    return stack[0]


@dataclass(frozen=True)
class DimensionReport:
    """Numerical rank of a stack of subspace samples.

    singular_value_gap is the ratio between the smallest accepted and the
    largest rejected singular value (None when nothing was rejected or the
    space is empty); the report is inconclusive when the gap is below 1e6.
    """

    space: str
    empirical_dim: int
    formula_dim: int
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


def _components(proj, spaces, counts, base, g: ScalarProduct) -> dict[str, np.ndarray]:
    """`_stack` of the named W or A blocks from one proj call per CHUNK rows of base;
    each block copies its own rows, so no chunk's eight components outlive its pass."""
    out = {space: np.empty((counts[space],) + base.shape[1:]) for space in spaces}
    for lo in range(0, max((counts[space] for space in spaces), default=0), CHUNK):
        comps = proj(base[lo : lo + CHUNK], g)
        for space, rows in out.items():
            part = rows[lo : lo + CHUNK]
            part[...] = comps[int(space[1:]) - 1][: len(part)]
    return {space: _normalize(rows, EMPTY_NORM) for space, rows in out.items()}


def _report(space: str, n: int, stack) -> DimensionReport:
    rank, gap = numerical_rank(stack.reshape(len(stack), n**4))
    inconclusive = gap is not None and gap < GAP_RATIO or gap is None and rank > 0
    return DimensionReport(space, rank, formula_dim(space, n), len(stack), gap, inconclusive)


def dimension_reports(
    dim: int,
    signature: tuple[int, int] | None = None,
    samples: int | None = None,
    seed: int = 0,
    spaces=SAMPLE_SPACES,
) -> dict[str, DimensionReport]:
    """Estimate the dimensions of subspaces by the rank of stacked samples.

    Each space uses `samples` samples, by default max(2 * formula_dim, 8).
    They are the first indices of one stream sequence, drawn once and shared
    by all spaces.  An unreliable singular-value gap sets a report's
    inconclusive flag.  Raises EmptyRun when samples is below 1 or no space is
    named, UnknownSpace for an unknown tag and DimensionMismatch when the
    signature does not fit the dimension.
    """
    spaces = tuple(spaces)  # an iterator would be spent by the first pass over it
    if not spaces or samples is not None and samples < 1:
        raise EmptyRun(f"a run needs a space and at least 1 sample, got samples={samples}")
    n = int(dim)
    fdims = {s: formula_dim(s, n) for s in spaces}
    counts = {s: max(2 * d, 8) if samples is None else samples for s, d in fdims.items()}
    g = _scalar_product(n, signature)
    reports = {}
    if "co" in counts:  # 'co' is drawn from the noise itself: rank it before the base exists
        reports["co"] = _report("co", n, _stack("co", g, seed, range(counts["co"])))
    rest = [space for space in counts if space != "co"]
    if rest:
        base = _stack("r", g, seed, range(max(counts[space] for space in rest)))
        for letter, proj in (("W", w_projections), ("A", a_projections)):
            family = [space for space in rest if space[0] == letter]
            stacks = _components(proj, family, counts, base, g)
            while stacks:  # a block's copy is freed once it is ranked
                space, stack = stacks.popitem()
                reports[space] = _report(space, n, stack)
        for space in [space for space in rest if space not in reports]:
            k = counts[space]
            reports[space] = _report(space, n, _stack(space, g, seed, range(k), base[:k]))
    return {space: reports[space] for space in spaces}
