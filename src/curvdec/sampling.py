"""Deterministic subspace sampling and rank-based dimension estimation.

Every sample is drawn from a PCG64 stream keyed by (seed, index): the
generator is ``default_rng(SeedSequence(entropy=seed, spawn_key=index))``
with ``index`` an int >= 0 or a tuple of them.  Identical keys give
bit-identical tensors on every platform.  Samples have unit max-norm.

The noise of an index does not depend on the space, so every space's samples
are projections of one base stack: the normalized Bianchi projections of the
noise of indices 0, 1, 2, ...  A space's k samples are the first k indices of
this sequence, which all spaces share.  A `Block` holds the samples of a list
of stream keys: each key's noise is drawn once, for both 'co' and 'r', and each
space's stack is built once.  `sample` is a block of one key, and the invariant
suite reads blocks of CHUNK keys.  `dimension_reports` takes its 'co' and 'r'
rows from blocks of CHUNK keys, projects the 'r' rows CHUNK at a time once per
family (W, A, or ψ and μ), and holds each stack as co(V) coordinate rows.
`curvdec dims` prints the reports, and the suite's dimension_consistency is
their verdict.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .decomp import a_projections, projective_part, traceless_core, w_projections
from .errors import DimensionMismatch, DimensionTooSmall, EmptyRun, EmptySpace
from .errors import NegativeStreamKey, UnknownSpace
from .linalg import ScalarProduct, _integer, standard_scalar_product
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
    if _integer(n, DimensionMismatch, "the dimension") < 3:
        raise DimensionTooSmall(f"need dimension >= 3, got {n}")
    return FORMULA_DIMS[space](int(n))


def _scalar_product(n: int, signature) -> ScalarProduct:
    """The standard scalar product of signature, a pair of integers (n, 0) by default;
    p + q must be n."""
    try:
        p, q = (n, 0) if signature is None else signature
    except (TypeError, ValueError):  # not a pair
        raise DimensionMismatch(f"signature {signature!r} is not a pair of integers") from None
    p, q = (_integer(x, DimensionMismatch, "a signature entry") for x in (p, q))
    if p + q != n:
        raise DimensionMismatch(f"signature ({p}, {q}) does not fit dimension {n}")
    return standard_scalar_product(p, q)


def rng_stream(seed: int, index) -> np.random.Generator:
    """The documented stream split: PCG64 over SeedSequence(seed, spawn_key=index).

    Raises NegativeStreamKey for a seed or index entry that is negative or not an integer.
    """
    entries = index if isinstance(index, (tuple, list)) else (index,)
    key = [_integer(i, NegativeStreamKey, "a stream key entry") for i in (seed, *entries)]
    if min(key) < 0:
        raise NegativeStreamKey(f"negative stream key: seed {seed}, index {index}")
    return np.random.default_rng(np.random.SeedSequence(entropy=key[0], spawn_key=key[1:]))


def _noise(shape, seed: int, indices) -> np.ndarray:
    """Uniform [-1, 1) noise of the given shape from each stream index, stacked."""
    out = np.empty((len(indices),) + shape)
    for row, index in zip(out, indices):
        row[...] = rng_stream(seed, index).uniform(-1.0, 1.0, shape)
    return out


def _normalize(stack, floor: float) -> np.ndarray:
    """Each tensor scaled to unit max-norm, those below floor left out."""
    m = np.max(np.abs(stack), axis=(-4, -3, -2, -1))
    keep = ~(m < floor)
    if not keep.all():
        stack, m = stack[keep], m[keep]
    return stack / m[:, None, None, None, None]


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
    if space in ("a", "s", "a_plus_s"):  # comps: ψ(base), μ(base)
        return comps[0] + comps[1] if space == "a_plus_s" else comps[("a", "s").index(space)]
    if space == "f":
        return base - comps[2]
    if space == "f_pair":
        return base - comps[2] - comps[3] - comps[7]
    return comps[int(space[1:]) - 1]


class Block:
    """The samples of every space at a list of stream keys, under one metric and seed.

    A key's noise is drawn once, for both 'co' and 'r'.  A space's stack,
    (len(keys), n, n, n, n), is built once, and so are a map's components of a
    stack (W, A, or ψ and μ); both are kept read-only.  'f' and 'f_pair' are
    sums of the W components of 'r', so one W projection serves W1..W8, 'f'
    and 'f_pair', and one ψ and one μ serve 'a', 's' and 'a_plus_s'.  Raises
    EmptySpace when a key's projection is at roundoff scale: the space is
    empty there.
    """

    def __init__(self, g: ScalarProduct, seed: int, keys):
        self.g, self.seed, self.keys = g, seed, keys
        self._stacks, self._comps = {}, {}

    @cached_property
    def _drawn(self) -> np.ndarray:
        """The noise of each key, drawn once for 'co' and 'r'."""
        return _noise((self.g.dim,) * 4, self.seed, self.keys)

    def stack(self, space: str) -> np.ndarray:
        """The samples of the space at the block's keys, stacked and read-only."""
        rows = self._stacks.get(space)
        if rows is None:
            if space == "co":
                noise = self._drawn
                rows = _normalize(0.5 * (noise - np.swapaxes(noise, -4, -3)), EMPTY_NORM)
            elif space == "r":  # Bianchi-projected noise is never at roundoff scale: no floor
                rows = _normalize(bianchi_project(self._drawn), 0.0)
            else:
                family = _family(space)
                comps = None if family is None else self.comps("r", family)
                rows = _normalize(_project(space, self.stack("r"), self.g, comps), EMPTY_NORM)
            if len(rows) < len(self.keys):  # a dropped row would misalign the stack with its keys
                raise EmptySpace(f"{space!r} is empty here: max-norm below {EMPTY_NORM:g}")
            rows.flags.writeable = False
            self._stacks[space] = rows
        return rows

    def comps(self, space: str, proj) -> np.ndarray:
        """proj's components of the space's stack, one read-only (parts, len(keys), ...) stack."""
        comps = self._comps.get((space, proj))
        if comps is None:
            comps = self._comps[space, proj] = np.stack(proj(self.stack(space), self.g))
            comps.flags.writeable = False
        return comps


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
    DimensionMismatch for a dimension or signature entry that is not an
    integer or a signature that does not fit, and NegativeStreamKey for a
    seed or index entry that is negative or not an integer.
    """
    formula_dim(space, dim)  # refuses an unknown space and a dimension that is not an integer >= 3
    return Block(_scalar_product(int(dim), signature), seed, [index]).stack(space)[0].copy()


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


def numerical_rank(rows: np.ndarray) -> tuple[int, float | None]:
    """Rank by singular-value thresholding at 1e-8 of the largest value.

    The gap is None when no value was rejected, at rank min(rows, columns), and an
    empty or all-zero stack has rank 0.
    """
    s = np.linalg.svd(rows, compute_uv=False) if rows.size else np.zeros(1)
    rank = int(np.sum(s > RANK_RATIO * s[0]))
    if rank in (0, len(s)):
        return rank, None
    return rank, float("inf") if s[rank] == 0.0 else float(s[rank - 1] / s[rank])


def _report(space: str, n: int, rows) -> DimensionReport:
    """The report of a space's samples, given as co(V) coordinate rows."""
    rank, gap = numerical_rank(rows)
    inconclusive = gap < GAP_RATIO if gap is not None else 0 < rank == len(rows)
    return DimensionReport(space, rank, formula_dim(space, n), len(rows), gap, inconclusive)


def _rank_pass(spaces, counts, n: int, images, top: int = 0) -> dict[str, DimensionReport]:
    """Report each space from one walk over its indices, CHUNK at a time.

    images(lo, live) gives the unnormalized rows from index lo of each live
    space (one with more than lo samples); the walk goes on to top if that is
    further.  The rows are normalized, left out below EMPTY_NORM, and held as
    preallocated co(V) coordinate rows until ranked.
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
    EmptyRun when samples is not an integer >= 1 or no space is named,
    UnknownSpace for an unknown tag and DimensionMismatch for a dimension or
    signature entry that is not an integer or a signature that does not fit.
    """
    spaces = tuple(spaces)  # an iterator would be spent by the first pass over it
    if not spaces or samples is not None and _integer(samples, EmptyRun, "samples") < 1:
        raise EmptyRun(f"a run needs a space and at least 1 sample, got samples={samples}")
    n = _integer(dim, DimensionMismatch, "the dimension")
    fdims = {s: formula_dim(s, n) for s in spaces}
    counts = {s: d + RANK_MARGIN if samples is None else samples for s, d in fdims.items()}
    g = _scalar_product(n, signature)
    base = np.empty((max([counts[s] for s in counts if s != "co"], default=0),) + (n,) * 4)

    def draw(lo, live):  # one block per chunk: 'co' and 'r' share each index's noise draw
        block = Block(g, seed, range(lo, min(lo + CHUNK, max(counts.values()))))
        if lo < len(base):
            base[lo : lo + CHUNK] = block.stack("r")[: len(base) - lo]
        # the rows have unit max-norm already, so normalizing them again changes no bit
        return {space: block.stack(space) for space in live}

    def project(lo, live):  # one projector call per chunk serves a family's spaces
        chunk, proj = base[lo : lo + CHUNK], _family(live[0])
        comps = None if proj is None else proj(chunk, g)
        return {space: _project(space, chunk, g, comps) for space in live}

    reports = _rank_pass([s for s in ("co", "r") if s in counts], counts, n, draw, len(base))
    for family in (w_projections, a_projections, _averages, None):
        group = [s for s in counts if s not in ("co", "r") and _family(s) is family]
        reports.update(_rank_pass(group, counts, n, project))
    return {space: reports[space] for space in spaces}
