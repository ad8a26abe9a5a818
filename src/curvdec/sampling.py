"""Deterministic subspace sampling and rank-based dimension estimation.

Every sample is drawn from a PCG64 stream keyed by (seed, index): the
generator is ``default_rng(SeedSequence(entropy=seed, spawn_key=index))``
with ``index`` an int >= 0 or a tuple of them.  Identical keys give
bit-identical tensors on every platform.  Samples have unit max-norm.

The noise of an index does not depend on the space, so every space's samples
are projections of one base stack: the normalized Bianchi projections of the
noise of indices 0, 1, 2, ...  A space's k samples are the first k indices of
this sequence, which all spaces share.  'f' and 'f_pair' are sums of W
components, so one W projection serves W1..W8, 'f' and 'f_pair', and one ψ
and one μ serve 'a', 's' and 'a_plus_s'.  `dimension_reports` draws each
index's noise once, for 'co' and 'r', projects it CHUNK tensors at a time once
per family (W, A, or ψ and μ), and holds each stack as co(V) coordinate rows;
`sample` and the invariant suite's blocks draw through `_stack`.  `curvdec
dims` prints the reports, and the suite's dimension_consistency is their verdict.
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
RANK_MARGIN = 8  # rows of a default rank stack beyond the formula dimension; see dimension_reports
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


_averages = lambda base, g: (psi(base), mu(base))  # the parts of 'a', 's' and 'a_plus_s'


def _family(space: str):
    """The map whose parts build the space ('f' and 'f_pair' from W's), or None."""
    return {"f": w_projections, "W": w_projections, "A": a_projections,
            "a": _averages, "s": _averages}.get(space[0])


def _project(space: str, base, g: ScalarProduct, comps=None) -> np.ndarray:
    """The unnormalized image of 'r' samples base in the space; comps: its `_family` parts."""
    if space == "p":
        return projective_part(base, g)
    if space == "t":
        return traceless_core(base, g)
    comps = _family(space)(base, g) if comps is None else comps
    if space in ("a", "s", "a_plus_s"):  # comps: ψ(base), μ(base); copied for in-place scaling
        return comps[0] + comps[1] if space == "a_plus_s" else comps[("a", "s").index(space)].copy()
    if space == "f":
        return base - comps[2]
    if space == "f_pair":
        return base - comps[2] - comps[3] - comps[7]
    return comps[int(space[1:]) - 1]


def _stack(space: str, g: ScalarProduct, seed: int, indices) -> np.ndarray:
    """The samples of a space at these stream indices, stacked (k', n, n, n, n).

    An index whose projection is at roundoff scale (the space is empty there)
    is left out.
    """
    noise = _noise((g.dim,) * 4, seed, indices)
    if space == "co":
        return _normalize(0.5 * (noise - np.swapaxes(noise, -4, -3)), EMPTY_NORM)
    r = _normalize(bianchi_project(noise), 0.0)  # never at roundoff scale: no floor
    return r if space == "r" else _normalize(_project(space, r, g), EMPTY_NORM)


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
    """Numerical rank of a stack of subspace samples, in co(V) coordinates.

    The rank is taken over each sample's first-pair entries with i < j.
    singular_value_gap is the ratio there between the smallest accepted and the
    largest rejected singular value, and below 1e6 the report is inconclusive.
    It is None when nothing was rejected: for an empty space or one that fills
    co(V), as 'co' does (conclusive), or an undersampled stack (inconclusive).
    """

    space: str
    empirical_dim: int
    formula_dim: int
    samples_used: int
    singular_value_gap: float | None
    inconclusive: bool


def numerical_rank(rows: np.ndarray, floor: float = 0.0) -> tuple[int, float | None]:
    """Rank by singular-value thresholding at 1e-8 of the largest value.

    The gap is None when no value was rejected, at rank min(rows, columns).
    floor is an absolute scale below which the whole stack counts as zero.
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


def _report(space: str, n: int, rows) -> DimensionReport:
    """The report of a space's samples, given as co(V) coordinate rows."""
    rank, gap = numerical_rank(rows)
    inconclusive = gap < GAP_RATIO if gap is not None else 0 < rank == len(rows)
    return DimensionReport(space, rank, formula_dim(space, n), len(rows), gap, inconclusive)


def _rank_pass(spaces, counts, n: int, images, top: int = 0) -> dict[str, DimensionReport]:
    """Report each space from one walk over its indices, CHUNK at a time.

    images(lo, live) gives the unnormalized rows from index lo of each live
    space (one with more than lo samples); the walk goes on to top if that is
    further.  The rows are normalized in place, left out below EMPTY_NORM as in
    `_stack`, and held as preallocated co(V) coordinate rows until ranked.
    """
    i, j = np.triu_indices(n, 1)  # co(V) coordinates: the first-pair entries with i < j
    rows = {s: np.empty((counts[s], len(i) * n * n)) for s in spaces}
    used = dict.fromkeys(spaces, 0)
    for lo in range(0, max([top] + [counts[s] for s in spaces]), CHUNK):
        for space, chunk in images(lo, [s for s in spaces if counts[s] > lo]).items():
            chunk = _normalize(chunk[: counts[space] - lo], EMPTY_NORM)[:, i, j]
            start, used[space] = used[space], used[space] + len(chunk)
            rows[space][start : used[space]] = chunk.reshape(len(chunk), len(i) * n * n)
    return {space: _report(space, n, rows.pop(space)[: used[space]]) for space in spaces}


def dimension_reports(
    dim: int,
    signature: tuple[int, int] | None = None,
    samples: int | None = None,
    seed: int = 0,
    spaces=SAMPLE_SPACES,
) -> dict[str, DimensionReport]:
    """Estimate the dimensions of subspaces by the rank of stacked samples.

    Each space uses `samples` samples (the first indices of one stream sequence,
    drawn once for all spaces), by default d + RANK_MARGIN for formula dimension
    d: d samples span the space, and the margin rows give the rejected singular
    values.  So a true dimension d + j shows rank d + j for j < RANK_MARGIN, and
    else fills its stack: inconclusive, as is a gap below GAP_RATIO.  Raises
    EmptyRun when samples is below 1 or no space is named, UnknownSpace for an
    unknown tag and DimensionMismatch for a signature that does not fit.
    """
    spaces = tuple(spaces)  # an iterator would be spent by the first pass over it
    if not spaces or samples is not None and samples < 1:
        raise EmptyRun(f"a run needs a space and at least 1 sample, got samples={samples}")
    n = int(dim)
    fdims = {s: formula_dim(s, n) for s in spaces}
    counts = {s: d + RANK_MARGIN if samples is None else samples for s, d in fdims.items()}
    g = _scalar_product(n, signature)
    base = np.empty((max([counts[s] for s in counts if s != "co"], default=0),) + (n,) * 4)

    def draw(lo, live):  # one noise draw per index: 'co' antisymmetrizes it, 'r' projects it
        noise = _noise((n,) * 4, seed, range(lo, min(lo + CHUNK, max(counts.values()))))
        if lo < len(base):  # the Bianchi projection of noise is never at roundoff scale: no floor
            base[lo : lo + CHUNK] = _normalize(bianchi_project(noise[: len(base) - lo]), 0.0)
        co = 0.5 * (noise - np.swapaxes(noise, -4, -3)) if "co" in live else None
        # 'r' rows have unit max-norm already, so normalizing them again changes no bit
        return {space: co if space == "co" else base[lo : lo + CHUNK] for space in live}

    def project(lo, live):  # one projector call per chunk serves a family's spaces
        chunk, proj = base[lo : lo + CHUNK], _family(live[0])
        comps = None if proj is None else proj(chunk, g)
        return {space: _project(space, chunk, g, comps) for space in live}

    reports = _rank_pass([s for s in ("co", "r") if s in counts], counts, n, draw, len(base))
    for family in (w_projections, a_projections, _averages, None):
        group = [s for s in counts if s not in ("co", "r") and _family(s) is family]
        reports.update(_rank_pass(group, counts, n, project))
    return {space: reports[space] for space in spaces}
