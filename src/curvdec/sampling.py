"""Deterministic subspace sampling, and the dimension of each space as a projector trace.

Every sample is drawn from a PCG64 stream keyed by (seed, index): the
generator is ``default_rng(SeedSequence(entropy=seed, spawn_key=index))``
with ``index`` an int >= 0 or a tuple of them.  Identical keys give
bit-identical tensors on every platform.  Samples have unit max-norm.

The noise of an index does not depend on the space, so every space's samples
are projections of one base stack: the normalized Bianchi projections of the
noise of indices 0, 1, 2, ...  A space's k samples are the first k indices of
this sequence, which all spaces share.  A `Block` holds the samples of a list
of stream keys: each key's noise, the one draw from its stream, is drawn once,
for both 'co' and 'r', and each space's stack and its trace data
(`decomp._Parts`, which both projector families read) are built once.  `sample`
is a block of one key, and the invariant suite reads blocks of CHUNK keys,
whose metric-free part both signatures of a dimension share.

Dimensions are neither sampled nor ranked, and a space is empty exactly where its
FORMULA_DIMS entry is 0.  Every space but 'co' is the image of P o B, with B the Bianchi
projector and P the space's idempotent map on r(V).  `_blocks` reads the parity-class blocks
of every such map's matrix on co(V) in one pass over the basis probes; `curvdec dims` prints
each map's trace, the sum of its blocks' traces, and the suite's family checks are verdicts
on the blocks.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .decomp import _Parts
from .errors import DimensionMismatch, DimensionTooSmall, EmptySpace
from .errors import NegativeStreamKey, UnknownSpace
from .linalg import ScalarProduct, _integer, standard_scalar_product
from .spaces import bianchi_project

# the largest dimension of a sample, a dims report or a verify point: verify's peak memory
# grows as n^4, 64 MiB at n = 8 and 362 MiB at n = 12 (tracemalloc), so some 1.2 GiB at 16
MAX_DIM = 12
# a projector's trace further than this from an integer is no rank: the exact traces stay within
# 1e-12 of theirs up to n = 8, and a component scaled by 1 + e moves its trace by e times its rank
TRACE_TOL = 1e-8
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
    """The closed-form dimension of a sample space at n in 3..MAX_DIM (DimensionTooSmall or
    DimensionMismatch past either end); UnknownSpace for an unknown tag."""
    if not isinstance(space, str) or space not in FORMULA_DIMS:  # a list is no tag, nor hashable
        raise UnknownSpace(f"unknown sample space {space!r}")
    if _integer(n, DimensionMismatch, "the dimension") < 3:
        raise DimensionTooSmall(f"need dimension >= 3, got {n}")
    if n > MAX_DIM:
        raise DimensionMismatch(f"dimension {n} exceeds the largest supported, {MAX_DIM}")
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


def _normalize(stack, floor: float) -> np.ndarray:
    """Each tensor scaled to unit max-norm, those below floor left out."""
    m = np.max(np.abs(stack), axis=(-4, -3, -2, -1))
    keep = ~(m < floor)
    if not keep.all():
        stack, m = stack[keep], m[keep]
    return stack / m[:, None, None, None, None]


_METRIC_FREE = frozenset({"co", "r", "a", "a_plus_s"})  # see Block


def _family(space: str):
    """The family ('w' or 'a') whose components build the space ('f' and 'f_pair' from W's),
    or None."""
    return {"f": "w", "W": "w", "A": "a"}.get(space[0])


def _project(space: str, parts: _Parts, comps=None) -> np.ndarray:
    """The unnormalized image in the space of the 'r' samples parts.t, every map read off
    parts' trace data; comps: all eight components of the space's `_family`, when it has one."""
    if space == "p":
        return parts.projective_part()
    if space == "t":
        return parts.traceless_core()
    if space == "a":
        return parts.psi
    if space == "s":
        return parts.mu
    if space == "a_plus_s":
        return parts.psi + parts.mu
    if space == "f":
        return parts.t - comps[2]
    if space == "f_pair":
        return parts.t - comps[2] - comps[3] - comps[7]
    return comps[int(space[1:]) - 1]


class Block:
    """The samples of every space at a list of stream keys, under one metric and seed.

    A key's noise, all that the block draws, is drawn once, for both 'co' and
    'r'.  A space's stack, (len(keys), n, n, n, n), is built once, and so are
    its trace data (a `decomp._Parts`, which builds any component on demand)
    and, stacked, the eight components of a family that a caller reads in full; stacks,
    components, ψ and μ are kept read-only.  'f' and 'f_pair' are sums of the
    W components of 'r', so one W projection serves W1..W8, 'f' and 'f_pair',
    and the ψ and μ of 'r' serve 'a', 's', 'a_plus_s' and both families.
    Stacks that do not depend on the metric (_METRIC_FREE: 'co', 'r', 'a' and
    'a_plus_s') and their ψ and μ are kept in shared when it is given: the
    dict of metric-free stacks shared by the blocks of one dimension, seed and
    keys.  The noise and 's' (one normalization of μ) stay with the block:
    kept for the next metric, they would raise the suite's peak memory more
    than they save.  Raises EmptySpace for a space whose FORMULA_DIMS entry is
    0 at this n, once the keys are drawn: a bad key is refused first.
    """

    def __init__(self, g: ScalarProduct, seed: int, keys, shared: dict | None = None):
        self.g, self.seed, self.keys = g, seed, keys
        self._memos = {} if shared is None else shared, {}

    def _memo(self, key, build) -> np.ndarray:
        """The entry of key, built once and kept read-only, in the shared dict if _METRIC_FREE."""
        memo = self._memos[key not in _METRIC_FREE]
        if key not in memo:
            memo[key] = build()
            memo[key].flags.writeable = False
        return memo[key]

    def stack(self, space: str) -> np.ndarray:
        """The samples of the space at the block's keys, stacked and read-only."""
        return self._memo(space, lambda: self._rows(space))

    def _rows(self, space: str) -> np.ndarray:
        if space == "co":  # each key's noise is drawn once for both 'co' and 'r'
            noise = self.noise()
            rows = 0.5 * (noise - np.swapaxes(noise, -4, -3))
        elif space == "r":
            rows = bianchi_project(self.noise())
        else:
            family = _family(space)
            comps = None if family is None else self.comps("r", family)
            rows = _project(space, self.parts("r"), comps)
        if FORMULA_DIMS[space](self.g.dim) == 0:  # after the draw: a bad key is refused first
            raise EmptySpace(f"{space!r} is empty at dimension {self.g.dim}")
        return _normalize(rows, 0.0)

    def noise(self) -> np.ndarray:
        """Uniform [-1, 1) noise of shape (n, n, n, n) from each of the block's keys, stacked."""
        draw = lambda i: rng_stream(self.seed, i).uniform(-1.0, 1.0, (self.g.dim,) * 4)
        return self._memo("noise", lambda: np.stack([draw(i) for i in self.keys]))

    def parts(self, space: str) -> _Parts:
        """The trace data of the space's stack, built once; its ψ and μ are kept with the
        stack, in shared for a metric-free one."""
        memo = self._memos[1]
        if ("parts", space) not in memo:
            averages = self._memos[space not in _METRIC_FREE].setdefault(("averages", space), {})
            memo["parts", space] = _Parts(self.stack(space), self.g, averages)
        return memo["parts", space]

    def comps(self, space: str, family: str) -> np.ndarray:
        """The family's ('w' or 'a') eight components of the space's stack, one read-only
        (8, len(keys), ...) stack."""
        return self._memo((space, family), lambda: np.stack(getattr(self.parts(space), family)()))


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
    projectors.  Raises EmptySpace where `formula_dim` is 0 (W6, W8, A6 and
    A8 at n = 3), DimensionMismatch for a dimension past MAX_DIM, a dimension
    or signature entry that is not an integer or a signature that does not
    fit, and NegativeStreamKey for a seed or index entry that is negative or
    not an integer.
    """
    formula_dim(space, dim)  # refuses an unknown space and a dimension not an integer in 3..MAX_DIM
    return Block(_scalar_product(int(dim), signature), seed, [index]).stack(space)[0].copy()


@dataclass(frozen=True)
class DimensionReport:
    """The dimension of a sample space, read off the trace of its projector on co(V).

    empirical_dim is the trace, read off the class blocks (see the module docstring),
    rounded to an integer, or -1 for a trace that is not finite.  The report is
    inconclusive when the trace lies further than TRACE_TOL from empirical_dim, so that
    the map is not idempotent and its trace no rank, or when the map fails the guard of
    `_blocks`, so that the blocks misread it; a NaN or infinite trace or guard does both.
    """

    space: str
    empirical_dim: int
    formula_dim: int
    inconclusive: bool


def _co_basis(n: int):
    """The coordinate basis of co(V) as index arrays (flat, mirror, probe), one entry a
    tensor, and its parity classes (groups).

    Basis tensor b is 1 at the b-th first-pair entry with i < j, in row-major (i, j, k, l)
    order, and -1 at its mirror (j, i, k, l): flat and mirror hold these n**4 indices.  Its
    class is the count of each coordinate in (i, j, k, l) mod 2.  groups holds one (G, s)
    array per class size s, row c class c's tensors in basis order, and probe[b] counts
    those before b: probe row k sums the k-th tensor of every class.
    """
    i, j = np.triu_indices(n, 1)
    flat, mirror = ((((a * n + b) * n * n)[:, None] + np.arange(n * n)).ravel()
                    for a, b in ((i, j), (j, i)))
    # bit c of a class is set when coordinate c is counted an odd number of times; no numpy
    # sort: it would fault in code pages nothing else in `dims` or `verify` touches (0.3 MB RSS)
    parity = ((1 << a) ^ (1 << b) ^ (1 << c) ^ (1 << d)
              for a, b, c, d in zip(*(x.tolist() for x in np.unravel_index(flat, (n,) * 4))))
    classes, sizes = defaultdict(list), defaultdict(list)
    for b, p in enumerate(parity):
        classes[p].append(b)
    for members in classes.values():
        sizes[len(members)].append(members)
    groups, probe = [np.array(rows) for rows in sizes.values()], np.empty(len(flat), dtype=int)
    for rows in groups:
        probe[rows] = np.arange(rows.shape[1])
    return flat, mirror, probe, groups


def _blocks(n: int, g: ScalarProduct, spaces):
    """The class blocks of each space's map on co(V) under a diagonal g, off the basis probes,
    with each map's guard residual.

    Each coordinate reflection R_a lies in O(p, q) and commutes with the maps, so their
    matrices are block-diagonal over the parity classes of `_co_basis` (a non-diagonal metric
    would pack in its η-orthonormal frame).  Probe k sums the k-th tensor of every class, B is
    applied CHUNK probes at a time, and each chunk is projected once per family (W, A, or ψ
    and μ; 'p' and 't' by their own maps) from one set of its trace data.  blocks[space]
    holds one (G, s, s) stack per entry of groups: entry [c, m, k] is the coordinate of
    class c's m-th tensor in probe k's image.  The last chunk ends in a fixed co(V) tensor x
    and its reflections, and guard[space] is the largest |R_a P(x) - P(R_a x)|: 0.0 for every
    map here, as the maps act row by row, and of order 1 for one that mixes the classes.
    """
    flat, mirror, probe, groups = _co_basis(n)
    # R_a flips the sign of an entry whose index tuple counts a an odd number of times
    counts = (np.indices((n,) * 4).reshape(4, 1, -1) == np.arange(n)[:, None]).sum(axis=0)
    signs, x = 1.0 - 2.0 * (counts % 2), np.cos(np.arange(n**4)).reshape((n,) * 4)
    x = (x - x.swapaxes(0, 1)).ravel()
    blocks = {space: [np.empty((len(m), m.shape[1], m.shape[1])) for m in groups]
              for space in spaces}  # each space once, filled a chunk of probes at a time
    guard = {}
    for lo in range(0, probe.max() + 1, CHUNK):  # one chunk of probes built at a time
        pick = (probe >= lo) & (probe < lo + CHUNK)
        at, k = probe[pick] - lo, min(CHUNK, probe.max() + 1 - lo)
        last = lo + CHUNK > probe.max()  # the one chunk that also holds x, then R_0 x .. R_n-1 x
        chunk = np.zeros((k + (n + 1) * last, n**4))
        chunk[at, flat[pick]], chunk[at, mirror[pick]] = 1.0, -1.0
        if last:
            chunk[k], chunk[k + 1:] = x, signs * x
        chunk = chunk.reshape((-1,) + (n,) * 4)
        r = bianchi_project(chunk)
        parts = _Parts(r, g)  # the chunk's trace data, ψ and μ serve both families
        for family in dict.fromkeys(map(_family, blocks)):  # one family's components at a time
            comps = None if family is None else getattr(parts, family)()
            for space in (space for space in blocks if _family(space) == family):
                image = {"co": chunk, "r": r}.get(space)
                image = _project(space, parts, comps) if image is None else image
                image = image.reshape(len(chunk), -1)
                if last:
                    guard[space] = np.abs(signs * image[k] - image[k + 1:]).max()
                for block, members in zip(blocks[space], groups):  # class c has probes k < s
                    rows = image[: max(0, min(k, members.shape[1] - lo))]
                    block[..., lo:lo + len(rows)] = rows[:, flat[members]].transpose(1, 2, 0)
            del comps  # before the next family's are built: memory holds one family's at a time
    return blocks, guard


def _reports(n: int, blocks, guard) -> dict[str, DimensionReport]:
    """Each space's report off the trace of its class blocks and its guard residual (see
    `_blocks`), inconclusive when either is past TRACE_TOL or not finite."""
    reports = {}
    for space, stacks in blocks.items():
        t = sum(float(np.trace(b, axis1=1, axis2=2).sum()) for b in stacks)
        dim = round(t) if math.isfinite(t) else -1  # round refuses nan and inf
        sure = abs(t - dim) <= TRACE_TOL and guard[space] <= TRACE_TOL  # false for a nan
        reports[space] = DimensionReport(space, dim, formula_dim(space, n), not sure)
    return reports


def dimension_reports(
    dim: int, signature: tuple[int, int] | None = None
) -> dict[str, DimensionReport]:
    """The dimension of every space of SAMPLE_SPACES, in its order, as the trace of its
    projector on co(V).

    Exact up to roundoff: nothing is drawn and nothing is ranked, and the basis is
    packed into probes (see the module docstring): at n = 8, 56 probes stand for 1,792
    basis tensors, projected CHUNK at a time.  Raises DimensionTooSmall for a dimension
    below 3 and DimensionMismatch for one past MAX_DIM, a dimension or signature entry
    that is not an integer or a signature that does not fit, before any work.
    """
    formula_dim("co", dim)  # refuses a dimension not an integer in 3..MAX_DIM
    n = int(dim)
    return _reports(n, *_blocks(n, _scalar_product(n, signature), SAMPLE_SPACES))
