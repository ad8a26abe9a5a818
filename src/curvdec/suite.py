"""Runnable invariant suite: every structural law as a named, seeded check.

The suite walks the configured grid one dimension at a time, the sample
indices in blocks of CHUNK, each block under every signature before the next:
a `sampling.Block` whose row i of its stack of a space is `sample(space, n,
sig, seed, index=lo + i)`, and a check reads only the block's rows.  The
signatures share the block's metric-free samples until the walk moves on.  A
check registered through _first_block reads only a point's first rows, or no
sample, and runs on block 0 alone, whatever the sample count.  A check yields
residual terms, and one fold takes their max over terms and blocks: a numeric
term (an array or a float) counts max |term|, 0.0 when empty; a bool or
bool-array term is a verdict held sample by sample and counts 1.0 unless every
entry is true.  A nan or inf term fails its check at any finite tolerance, and
its worst residual is reported as null (nan stays nan through the fold).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from numbers import Real

import numpy as np

from . import sampling
from .decomp import (
    _Parts,
    a_projections,
    b_forms,
    equiaffine_einstein_check,
    projective_part,
    sigma_split,
    singer_thorpe,
    traceless_core,
)
from .errors import DimensionMismatch, EmptyRun, NonFiniteInput, UnknownCheck
from .linalg import _integer, _row_maxnorm, antisym, standard_scalar_product, sym
from .linalg import tensor_pairing
from .sampling import CHUNK, Block, _normalize
from .spaces import (
    MEMBERSHIP_TOL,
    SPACE_TAGS,
    _membership_rows,
    _traces,
    conjugate,
    membership,
    membership_residual,
    mu,
    psi,
    ricci,
    ricci_star,
    ricci_traces,
    wedge,
    wedge_r,
)

# engineered-negative quantities must clear this margin on unit-norm samples
MARGIN = 1e-4


@dataclass(frozen=True)
class SuiteConfig:
    dims: tuple[int, ...] = (3, 4)
    signatures: tuple[tuple[int, int], ...] | None = None
    samples: int = 32
    seed: int = 0
    tolerance: float = 1e-9

    def grid(self):
        for n in self.dims:
            sigs = self.signatures if self.signatures else ((n, 0), (n - 1, 1))
            for sig in sigs:
                if sig[0] + sig[1] == n and sig[1] >= 0:
                    yield n, sig

    def as_dict(self):
        return {
            "dims": list(self.dims),
            "signatures": None if self.signatures is None else [list(s) for s in self.signatures],
            "samples": self.samples,
            "seed": self.seed,
            "tolerance": self.tolerance,
        }


class _Ctx(Block):
    """One block of a (dimension, signature) point: its k sample indices from lo, with
    the point's n and signature, the run's tolerance and the dict shared (see Block)."""

    def __init__(self, n: int, sig, cfg: SuiteConfig, lo: int, shared: dict):
        self.n, self.sig, self.lo, self.tol, self.shared = n, sig, lo, cfg.tolerance, shared
        self.k = min(CHUNK, cfg.samples - lo)
        keys = range(lo, lo + self.k)
        super().__init__(standard_scalar_product(*sig), cfg.seed, keys, shared)


def _fold(worst: float, terms) -> float:
    """worst raised to each term's residual (see the module docstring); nan once any is nan."""
    for term in terms:
        a = np.asarray(term)
        r = (0.0 if a.all() else 1.0) if a.dtype == bool else float(np.abs(a).max(initial=0.0))
        if r > worst or math.isnan(r):  # not max(): Python's max(0.0, nan) is 0.0
            worst = r
    return worst


# ---------------------------------------------------------------------------
# check implementations; each yields its residual terms for one context


def _completeness(ctx, family):
    yield np.sum(ctx.comps("r", family), axis=0) - ctx.stack("r")


def _idempotence(ctx, family):
    # again[i, j] = P_i(P_j r), which is P_j r for i = j and zero otherwise
    comps = ctx.comps("r", family)[:, :4]
    again = np.stack(getattr(_Parts(comps, ctx.g), family)())
    again[range(8), range(8)] -= comps
    scale = np.maximum(1.0, _row_maxnorm(comps, 2))
    yield _row_maxnorm(again, 3) / scale


def _orthogonality(ctx, family):
    # pair[a, b, i] pairs component a of sample 2i with component b of sample 2i + 1,
    # over the block's first m = 2 min(k // 2, 6) rows; a block of one row pairs it with itself
    m = 2 * min(ctx.k // 2, 6)
    comps = ctx.comps("r", family)[:, : m or 1]
    first, second = (slice(0, m, 2), slice(1, m, 2)) if m else (slice(1),) * 2
    pair = np.abs(tensor_pairing(comps[:, None, first], comps[None, :, second], ctx.g))
    norm = np.sqrt(np.sum(np.square(comps), axis=(-4, -3, -2, -1)))
    n1, n2 = norm[:, None, first], norm[None, :, second]
    keep = (n1 >= 1e-10) & (n2 >= 1e-10) & ~np.eye(8, dtype=bool)[..., None]
    yield pair[keep] / (n1 * n2)[keep]


def _check_gram_positivity(ctx):
    # full positive definiteness asserted only for definite signature
    if ctx.sig[1] != 0:
        return
    w, a = ctx.comps("r", "w"), ctx.comps("r", "a")
    comps = np.concatenate([w[:, :6], a[:, :6]])
    nonzero = _row_maxnorm(comps, 2) > 1e-8
    yield tensor_pairing(comps, comps, ctx.g)[nonzero] > 0.0


def _check_wa_map_coincidences(ctx):
    w, a = ctx.comps("r", "w"), ctx.comps("r", "a")
    yield from (w[j] - a[j] for j in (0, 5, 6, 7))
    yield from (w[1] + w[4] - a[1] - a[2], w[2] + w[3] - a[3] - a[4])


def _check_w_trace_formulas(ctx):
    g, n = ctx.g, ctx.n
    gm = g.matrix
    ric, star, tau = ctx.parts("r").traces[:3]
    c = _w_conditions(ric, star, tau, gm, n)
    parts = _traces(ctx.comps("r", "w"), g)
    exp_ric = [(tau / n) * gm, c[1], c[2]] + [0.0] * 5
    exp_star = [(tau / n) * gm, -c[1] / (n - 1), (-3.0 / (n + 1)) * c[2], c[3], c[4]] + [0.0] * 3
    for j, (ric_j, star_j) in enumerate(zip(*parts[:2])):
        yield from (ric_j - exp_ric[j], star_j - exp_star[j])
    yield parts[2][1:]  # tau of W2 .. W8


def _check_a_trace_formulas(ctx):
    g, n = ctx.g, ctx.n
    gm = g.matrix
    star_factor = [1.0, 1.0, -1.0, -1.0, 3.0, 0.0, 0.0, 0.0]
    ric, star, tau = ctx.parts("r").traces[:3]
    c = _a_conditions(ric, star, tau, gm, n)
    parts = _traces(ctx.comps("r", "a"), g)
    exp_ric = [(tau / n) * gm, 0.5 * c[1], 0.5 * c[2], 0.25 * c[3], 0.25 * c[4]] + [0.0] * 3
    for j, (ric_j, star_j) in enumerate(zip(*parts[:2])):
        yield ric_j - exp_ric[j]
        yield star_j - star_factor[j] * ric_j
    yield parts[2][1:]  # tau of A2 .. A8


def _w_conditions(ric, star, tau, gm, n):
    """The five trace forms whose vanishing is the vanishing of W1 .. W5."""
    return [
        tau,
        sym(ric) - (tau / n) * gm,
        antisym(ric),
        antisym(star + (3.0 / (n + 1)) * ric),
        sym(ric / (n - 1) + star) - (tau / (n - 1)) * gm,
    ]


def _a_conditions(ric, star, tau, gm, n):
    # the second criterion carries a symmetrization: the projector formula
    # only sees sym(ric + star), so only that part can be forced to vanish
    return [
        tau,
        sym(ric + star) - (2.0 * tau / n) * gm,
        sym(ric - star),
        antisym(3.0 * ric - star),
        antisym(ric + star),
    ]


def _vanishing(ctx, family, conditions):
    g, n = ctx.g, ctx.n
    r = ctx.stack("r")[:8]
    comps = ctx.comps("r", family)[:5, :8]
    conds = conditions(*_traces(r, g), g.matrix, n)
    # forward: removing component j enforces trace condition j, and leaves no component j
    for j, stripped in enumerate(r - comps):
        parts = _Parts(stripped, g)
        yield conditions(*parts.traces[:3], g.matrix, n)[j]
        yield from getattr(parts, family)((j,))
        # converse: each distinctly nonzero component needs a nonzero condition
        nonzero = _row_maxnorm(comps[j], 1) > MARGIN
        yield _row_maxnorm(conds[j], 1)[nonzero] > 10 * ctx.tol


def _check_conjugate_closure(ctx):
    # membership of the conjugate in r(V), the component criterion, and the
    # complement all vanish together
    g = ctx.g
    s = ctx.stack("a_plus_s")
    comps = ctx.comps("a_plus_s", "a")
    yield from (membership_residual(conjugate(s), g, "r"), comps[4], comps[7])
    r = ctx.parts("r")
    c = _normalize(r.t - r.psi - r.mu, 1e-8)
    yield _membership_rows(conjugate(c), g, "r") > 1e-3
    a5, a8 = _Parts(c, g).a((4, 7))
    yield np.maximum(_row_maxnorm(a5, 1), _row_maxnorm(a8, 1)) > 1e-3


def _check_conjugate_split(ctx):
    parts = ctx.parts("a_plus_s")
    s = parts.t
    cs = conjugate(s)
    yield from (parts.psi - 0.5 * (s + cs), parts.mu - 0.5 * (s - cs))


def _check_a_conjugation_signs(ctx):
    g = ctx.g
    signs = {0: 1.0, 1: 1.0, 2: -1.0, 3: -1.0, 5: 1.0, 6: -1.0}
    s = ctx.stack("a_plus_s")
    comps = ctx.comps("a_plus_s", "a")
    comps_star = a_projections(conjugate(s), g)
    yield from (comps_star[j] - sign * comps[j] for j, sign in signs.items())
    # components of the conjugate coincide with conjugated components
    yield from (comps_star[j] - conjugate(comps[j]) for j in (0, 1, 2, 5))
    yield from (comps_star[4], comps_star[7])
    yield from (comps[4], comps[7])


def _check_equiaffine_pair_projections(ctx):
    g, n = ctx.g, ctx.n
    gm = g.matrix
    s = ctx.stack("f_pair")
    cs = conjugate(s)
    w = ctx.comps("f_pair", "w")
    keep = (0, 2, 3, 5, 6, 7)  # W2 and W5 of the conjugate are not read
    ws = dict(zip(keep, _Parts(cs, g).w(keep)))
    ric, star, tau = ctx.parts("f_pair").traces[:3]
    yield membership_residual(cs, g, "r")
    yield from (w[2], w[3], w[7])
    yield from (ws[2], ws[3], ws[7])
    yield from (ws[0] - w[0], ws[5] - w[5], ws[6] + w[6])
    yield w[1] - wedge((tau / n) * gm - ric, gm) / (n - 1)
    expected5 = (
        tau[..., None, None] * wedge(gm, gm) - wedge_r(ric + (n - 1) * star, gm, n - 1) / n
    ) / ((n - 1) * (n - 2))
    yield w[4] - expected5
    yield projective_part(s, g) - w[4] - w[5] - w[6]


def _check_ricci_symmetry_equivalence(ctx):
    g = ctx.g
    parts, conj = ctx.parts("a_plus_s"), _Parts(conjugate(ctx.stack("a_plus_s")), g)
    yield from (*parts.w((7,)), *conj.w((7,)))
    lr, lrs = antisym(parts.traces[0]), antisym(conj.traces[0])
    yield lr + lrs
    sym_s = _row_maxnorm(lr, 1) <= 100 * ctx.tol
    sym_cs = _row_maxnorm(lrs, 1) <= 100 * ctx.tol
    yield np.array_equal(sym_s, sym_cs)
    p = ctx.parts("f_pair")
    yield from (antisym(p.traces[0]), antisym(ricci(conjugate(p.t), g)))


def _check_conjugate_pair_reduction(ctx):
    # the five-component reduction needs the Ricci-symmetric conjugate-pair
    # class; on all of a+s the antisymmetric-Ricci components survive
    s = ctx.stack("f_pair")
    w = ctx.comps("f_pair", "w")
    yield s - w[0] - w[1] - w[4] - w[5] - w[6]
    yield from (w[2], w[3], w[7])


def _check_complement_ricci_structure(ctx):
    g, r = ctx.g, ctx.parts("r")
    c = _normalize(r.t - r.psi - r.mu, 1e-8)
    ric = ricci(c, g)
    keep = _row_maxnorm(ric, 1) > 100 * ctx.tol
    c, ric = c[keep], ric[keep]
    yield from (sym(ric), ricci_star(c, g) - 3.0 * ric)


def _check_traceless_core(ctx):
    g = ctx.g
    r = ctx.stack("r")
    core = traceless_core(r, g)
    w = ctx.comps("r", "w")
    yield from (ricci(core, g), ricci_star(core, g))
    yield core - (r - w[0] - w[1] - w[2] - w[3] - w[4])
    ps, m = psi(core), mu(core)
    yield from (w[5] - ps, w[6] - m)
    yield w[7] - (core - ps - m)
    t = ctx.stack("t")
    yield traceless_core(t, g) - t


def _check_projective_part(ctx):
    g, n = ctx.g, ctx.n
    yield projective_part(wedge(g.matrix, g.matrix), g)
    r = ctx.stack("r")
    f = ctx.stack("f")
    yield projective_part(f, g) - (f + wedge(ricci(f, g), g.matrix) / (n - 1))
    t = ctx.stack("t")
    yield projective_part(t, g) - t
    w = ctx.comps("r", "w")
    yield projective_part(r, g) - (w[3] + w[4] + w[5] + w[6] + w[7])


def _check_projective_flat_bilinear_form(ctx):
    g = ctx.g
    gg = wedge(g.matrix, g.matrix)
    yield from b_forms(gg, g)
    w = ctx.comps("r", "w")
    paired = conjugate(_normalize(w[0] + w[1], 1e-8))
    b_star, _ = b_forms(paired, g)
    yield b_star


def _check_einstein_projector_criterion(ctx):
    g, n = ctx.g, ctx.n
    gm = g.matrix
    yield equiaffine_einstein_check(wedge(gm, gm), g)
    yield equiaffine_einstein_check(np.zeros((n,) * 4), g)
    r = ctx.stack("r")
    w = ctx.comps("r", "w")
    pos = r - w[1] - w[2]
    ric, _, tau = _traces(pos, g)
    yield ric - (tau / n) * gm
    # the converse, for each sample with a distinctly nonzero W2 or W3
    neg = np.maximum(_row_maxnorm(w[1], 1), _row_maxnorm(w[2], 1)) > MARGIN
    ric, _, tau = ctx.parts("r").traces[:3]
    gap = _row_maxnorm(ric - (tau / n) * gm, 1)
    yield gap[neg] > 10 * ctx.tol
    yield equiaffine_einstein_check(pos, g)
    yield ~equiaffine_einstein_check(r, g)[neg]


def _check_constant_curvature_equivalences(ctx):
    g, n = ctx.g, ctx.n
    gm = g.matrix
    gg = wedge(gm, gm)
    w = ctx.comps("r", "w")
    flat = w[0] + w[1]
    flat_parts = _Parts(flat, g)
    w2_flat, = flat_parts.w((1,))
    pos = flat - w2_flat  # flat-type, then drop 2
    pos_parts = _Parts(pos, g)
    ric, _, tau = pos_parts.traces[:3]
    yield from pos_parts.w((1,))
    yield ric - (tau / n) * gm
    yield pos + (tau[..., None, None] / (n * (n - 1))) * gg
    # each sample with a distinctly nonzero W2 must fail all three
    neg = _row_maxnorm(w[1], 1) > MARGIN
    ric, _, tau = flat_parts.traces[:3]
    for gap in (w2_flat, ric - (tau / n) * gm, flat + (tau[..., None, None] / (n * (n - 1))) * gg):
        yield _row_maxnorm(gap, 1)[neg] > 10 * ctx.tol


def _check_ricci_block_closed_form(ctx):
    g, n = ctx.g, ctx.n
    gm = g.matrix
    parts = ctx.parts("f_pair")
    w, (a2, a3) = ctx.comps("f_pair", "w"), parts.a((1, 2))
    ric, star, tau = parts.traces[:3]
    rhs = (
        2.0 * tau[..., None, None] * wedge(gm, gm)
        - wedge_r(gm, ric, n - 1)
        - wedge_r(star, gm, n - 1)
    ) / (n * (n - 2))
    yield from (w[1] + w[4] - rhs, a2 + a3 - rhs)


def _check_equiaffine_projector_agreement(ctx):
    s = ctx.stack("f_pair")
    a4, a5 = ctx.parts("f_pair").a((3, 4))
    via_w = s - ctx.comps("f_pair", "w")[2]
    via_a = s - a4 - a5
    yield from (via_w - via_a, via_w - s)


def _check_projective_conjugate_equivalence(ctx):
    # the Ricci-free parts of a tensor and its conjugate coincide exactly
    # when the two coincide, i.e. when the tensor is of metric type
    g = ctx.g
    a = ctx.stack("a")[:8]
    yield projective_part(conjugate(a), g) - projective_part(a, g)
    p = ctx.stack("f_pair")[:8]
    cp = conjugate(p)
    off = _row_maxnorm(p - cp, 1) > MARGIN
    pdiff = _row_maxnorm(projective_part(p, g) - projective_part(cp, g), 1)
    yield pdiff[off] > 10 * ctx.tol
    yield _membership_rows(p, g, "a")[off] > 10 * ctx.tol


def _check_trace_reconstruction(ctx):
    g, n = ctx.g, ctx.n
    # omega's noise, then theta's: a stream's first 2n² uniforms, the start of the block
    # noise of its key (a stream draws in order), taken once for every signature
    if "sources" not in ctx.shared:
        ctx.shared["sources"] = ctx.first_uniforms(8, 2 * n * n).reshape(-1, 2, n, n)
    noise = ctx.shared["sources"]
    omega, theta = antisym(noise[:, 0]), sym(noise[:, 1])
    built = sigma_split(omega, theta, g)
    yield from (ricci(built, g) - omega - theta, membership_residual(built, g, "r"))
    only_omega = sigma_split(omega, np.zeros((n, n)), g)
    yield ricci(only_omega, g) - omega
    only_theta = sigma_split(np.zeros((n, n)), theta, g)
    yield ricci(only_theta, g) - theta


def _check_singer_thorpe(ctx):
    g, n = ctx.g, ctx.n
    gm = g.matrix
    gg = wedge(gm, gm)
    res = singer_thorpe(ctx.stack("a"), g)
    u, z, w = res.components
    # u is a multiple of g^g
    c = (tensor_pairing(u, gg, g) / tensor_pairing(gg, gg, g))[:, None, None, None, None]
    yield from (res.completeness_residual, u - c * gg)
    # z is recovered from its own traceless symmetric Ricci source
    xi = ricci(z, g) / (n - 2)
    yield z + wedge_r(xi, gm, 1)
    yield from (antisym(xi), np.sum(g.inverse * xi, axis=(-2, -1)))
    yield from (ricci(w, g), ricci_star(w, g))
    for part in (u, z, w):
        yield membership_residual(part[_row_maxnorm(part, 1) > 1e-10], g, "a")


def _check_rescale_invariance(ctx):
    g = ctx.g
    tol = max(ctx.tol, 1e-12)
    r = ctx.stack("r")[:6]
    w1, a1 = ctx.comps("r", "w")[:, :6], ctx.comps("r", "a")[:, :6]
    flags = np.array([_membership_rows(r, g, space) <= tol for space in SPACE_TAGS])
    p1 = tensor_pairing(r, r, g)
    averages = {}  # ψ and μ of r, which do not depend on the metric
    for c in (0.5, 3.75):
        gc = g.rescaled(c)
        parts = _Parts(r, gc, averages)
        w2, a2 = parts.w(), parts.a()
        for j in range(8):
            yield from (w1[j] - w2[j], a1[j] - a2[j])
        flags_c = np.array([_membership_rows(r, gc, space) <= tol for space in SPACE_TAGS])
        yield np.array_equal(flags, flags_c)
        p2 = tensor_pairing(r, r, gc)
        yield np.abs(p2 - p1 / c**4) / np.maximum(1.0, np.abs(p1))


def _check_dimension_consistency(ctx):
    # the point's `dims` reports of r, a, f, p and the W and A blocks: each projector's
    # trace, read off the basis probes, is its table dimension
    spaces = ("r", "a", "f", "p", *(f"{family}{j}" for family in "WA" for j in range(1, 9)))
    reports = sampling.dimension_reports(ctx.n, ctx.sig, spaces).values()
    yield all(rep.empirical_dim == rep.formula_dim and not rep.inconclusive for rep in reports)


def _check_ricci_image_dimensions(ctx):
    # sigma lifts each coordinate form E_ab, as Alt E_ab and Sym E_ab, into r(V) and Ric of
    # the lift is E_ab: Ric maps r(V) onto the n(n - 1)/2 alternating and the n(n + 1)/2
    # symmetric forms.  Exact identities, judged at MEMBERSHIP_TOL whatever the tolerance
    g, n = ctx.g, ctx.n
    forms = np.eye(n * n).reshape(n * n, n, n)
    lifts = sigma_split(antisym(forms), sym(forms), g)
    yield _membership_rows(lifts, g, "r") <= MEMBERSHIP_TOL
    yield _row_maxnorm(ricci(lifts, g) - forms, 1) <= MEMBERSHIP_TOL


def _check_membership_tower(ctx):
    g, n = ctx.g, ctx.n
    gg = wedge(g.matrix, g.matrix)
    for space in ("a", "f", "r", "co"):
        yield membership_residual(gg, g, space) <= ctx.tol
    yield membership_residual(gg, g, "p") > ctx.tol
    zero = np.zeros((n,) * 4)
    for space in ("co", "r", "a", "s", "f", "p", "t"):
        yield from membership(zero, g, space, tol=ctx.tol)  # its flag, then its residual
    r, a, s, f, p, t = (ctx.stack(space)[:8] for space in ("r", "a", "s", "f", "p", "t"))
    yield from (conjugate(a) - a, conjugate(s) + s)
    co = ctx.stack("co")[:8]
    yield membership_residual(co, g, "co")
    yield _membership_rows(co, g, "r") > 1e-3
    for space, stack in (("r", r), ("f", f), ("p", p), ("t", t)):
        yield membership_residual(stack, g, space)


def _check_conjugation_involution(ctx):
    r = ctx.stack("r")[:8]
    yield conjugate(conjugate(r)) - r


def _check_ricci_conjugate_trace(ctx):
    g = ctx.g
    co = ctx.stack("co")
    rep = ricci_traces(co, g)
    yield from (rep.ric_star - ricci(conjugate(co), g), rep.rho23 + rep.rho13)
    yield rep.rho24 + rep.rho14
    yield np.sum(g.inverse * rep.ric, axis=(-2, -1)) - rep.tau
    yield np.sum(g.inverse * rep.ric_star, axis=(-2, -1)) - rep.tau


def _first_block(check):
    # for a check that reads only a point's first rows, or no sample: no terms past block 0
    return lambda ctx: () if ctx.lo else check(ctx)


CHECKS = {
    "w_completeness": partial(_completeness, family="w"),
    "a_completeness": partial(_completeness, family="a"),
    "w_idempotence": _first_block(partial(_idempotence, family="w")),
    "a_idempotence": _first_block(partial(_idempotence, family="a")),
    "w_orthogonality": _first_block(partial(_orthogonality, family="w")),
    "a_orthogonality": _first_block(partial(_orthogonality, family="a")),
    "gram_positivity": _first_block(_check_gram_positivity),
    "wa_map_coincidences": _check_wa_map_coincidences,
    "w_trace_formulas": _check_w_trace_formulas,
    "a_trace_formulas": _check_a_trace_formulas,
    "w_vanishing_criteria": _first_block(partial(_vanishing, family="w", conditions=_w_conditions)),
    "a_vanishing_criteria": _first_block(partial(_vanishing, family="a", conditions=_a_conditions)),
    "conjugate_closure": _check_conjugate_closure,
    "conjugate_split": _check_conjugate_split,
    "a_conjugation_signs": _check_a_conjugation_signs,
    "equiaffine_pair_projections": _check_equiaffine_pair_projections,
    "ricci_symmetry_equivalence": _check_ricci_symmetry_equivalence,
    "conjugate_pair_reduction": _check_conjugate_pair_reduction,
    "complement_ricci_structure": _check_complement_ricci_structure,
    "traceless_core": _check_traceless_core,
    "projective_part": _check_projective_part,
    "projective_flat_bilinear_form": _check_projective_flat_bilinear_form,
    "einstein_projector_criterion": _check_einstein_projector_criterion,
    "constant_curvature_equivalences": _check_constant_curvature_equivalences,
    "ricci_block_closed_form": _check_ricci_block_closed_form,
    "equiaffine_projector_agreement": _check_equiaffine_projector_agreement,
    "projective_conjugate_equivalence": _first_block(_check_projective_conjugate_equivalence),
    "trace_reconstruction": _first_block(_check_trace_reconstruction),
    "singer_thorpe": _check_singer_thorpe,
    "rescale_invariance": _first_block(_check_rescale_invariance),
    "dimension_consistency": _first_block(_check_dimension_consistency),
    "ricci_image_dimensions": _first_block(_check_ricci_image_dimensions),
    "membership_tower": _first_block(_check_membership_tower),
    "conjugation_involution": _first_block(_check_conjugation_involution),
    "ricci_conjugate_trace": _check_ricci_conjugate_trace,
}


def run_invariant_suite(config: SuiteConfig | None = None, only=None) -> dict:
    """Run the named checks over the configured grid.

    Returns the report as a map check-name -> {pass, worst_residual, config};
    a failure is data, not an exception.  `only` restricts to the given check
    names.  Each point is walked in blocks of CHUNK sample indices.  A check's
    worst residual is the max over its blocks and terms: max |term| for a number
    or an array, 1.0 for a bool verdict with a false entry.  Nan or inf fails the
    check and is reported as None.
    Raises UnknownCheck when `only` holds a name that is not in CHECKS,
    EmptyRun for a sample count that is not an integer >= 1 or an empty grid,
    DimensionTooSmall for a dimension below 3, DimensionMismatch for one past
    sampling.MAX_DIM, a signature that is not a pair or a dimension or
    signature entry that is not an integer, NonFiniteInput for a tolerance that
    is not a finite real number, and NegativeStreamKey for a seed that is
    negative or not an integer, before any check runs.
    """
    cfg = config or SuiteConfig()
    wanted = set(CHECKS) if only is None else set(only)
    unknown = sorted(wanted - set(CHECKS))
    if unknown:
        raise UnknownCheck(f"unknown check names {unknown}; known: {', '.join(CHECKS)}")
    if _integer(cfg.samples, EmptyRun, "samples") < 1:
        raise EmptyRun(f"samples must be at least 1, got {cfg.samples}")
    for sig in cfg.signatures or ():
        if np.shape(sig) != (2,):
            raise DimensionMismatch(f"a signature must be a pair (p, q), got {sig!r}")
    for x in (*cfg.dims, *(x for sig in cfg.signatures or () for x in sig)):
        _integer(x, DimensionMismatch, "a dimension or signature entry")
    for n in cfg.dims:
        sampling.formula_dim("co", n)  # refuses n < 3 and n > MAX_DIM
    if not isinstance(cfg.tolerance, Real) or not math.isfinite(cfg.tolerance):
        raise NonFiniteInput(f"tolerance must be a finite real number, got {cfg.tolerance!r}")
    if not any(cfg.grid()):
        raise EmptyRun(f"no signature in {cfg.signatures} fits a dimension in {list(cfg.dims)}")
    sampling.rng_stream(cfg.seed, 0)  # the first stream a check may read: refuses a bad seed
    worst = {name: 0.0 for name in CHECKS if name in wanted}
    for n, points in groupby(cfg.grid(), key=lambda point: point[0]):
        sigs = [sig for _, sig in points]
        for lo in range(0, cfg.samples, CHUNK):
            shared = {}  # the metric-free samples of block lo of n, for every signature
            for sig in sigs:
                ctx = _Ctx(n, sig, cfg, lo, shared)
                for name in worst:
                    worst[name] = _fold(worst[name], CHECKS[name](ctx))
    return {
        name: {
            "pass": bool(w <= cfg.tolerance),  # false for nan and inf at a finite tolerance
            "worst_residual": w if math.isfinite(w) else None,  # JSON has no nan or inf
            "config": cfg.as_dict(),
        }
        for name, w in worst.items()
    }
