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
its worst residual is reported as null (nan stays nan through the fold).  The
family checks (`_on_blocks`, dimension_consistency) read no sample: they are
verdicts on the class blocks of the point's maps on all of co(V), read once.
Nor do trace_reconstruction and ricci_image_dimensions, which certify sigma on
a basis of forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import groupby
from numbers import Real

import numpy as np

from . import sampling
from .decomp import (_Parts, a_projections, b_forms, equiaffine_einstein_check, projective_part,
                     sigma_split, singer_thorpe)
from .errors import CurvdecError, DimensionMismatch, EmptyRun, NonFiniteInput, UnknownCheck
from .linalg import _integer, _row_maxnorm, antisym, standard_scalar_product, sym
from .linalg import tensor_pairing
from .sampling import CHUNK, Block, _normalize
from .spaces import (MEMBERSHIP_TOL, SPACE_TAGS, _membership_rows, _traces, _wedge, _wedge_r,
                     conjugate, membership, membership_residual, mu, psi, ricci, ricci_star,
                     ricci_traces)

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
                if sig[0] + sig[1] == n:
                    yield n, sig

    def as_dict(self):
        return {
            "dims": list(self.dims),
            "signatures": None if self.signatures is None else [list(s) for s in self.signatures],
            "samples": self.samples,
            "seed": self.seed,
            "tolerance": self.tolerance,
        }


_W, _A = (tuple(f"{family}{j}" for j in range(1, 9)) for family in "WA")


class _Ctx(Block):
    """One block of a (dimension, signature) point: its (at most CHUNK) sample indices from
    lo, with the point's n and signature, the run's tolerance and the dict shared (see Block)."""

    def __init__(self, n: int, sig, cfg: SuiteConfig, lo: int, shared: dict):
        self.n, self.sig, self.lo, self.tol = n, sig, lo, cfg.tolerance
        keys = range(lo, min(lo + CHUNK, cfg.samples))
        super().__init__(standard_scalar_product(*sig), cfg.seed, keys, shared)

    @cached_property
    def blocks(self):
        """The class blocks and guard residuals of B and of the 'a', 'f', 'p', W and A maps,
        which the family checks and dimension_consistency read."""
        return sampling._blocks(self.n, self.g, ("r", "a", "f", "p", *_W, *_A))

    @cached_property
    def sigma_basis(self):
        """Ric(lift) - form and the r(V) membership residual of each half lift, sigma(Alt E_ab,
        0) for a < b, then sigma(0, Sym E_ab) for a <= b: sigma is linear and these forms span
        both form spaces, so the two sigma checks read them."""
        n, g = self.n, self.g
        e, below = np.eye(n * n).reshape((n,) * 4), np.tri(n, dtype=bool)  # e[a, b] is E_ab
        omega, theta = np.zeros((2, n * n, n, n))
        k = n * (n - 1) // 2  # the pairs a < b; the n(n + 1)/2 pairs a <= b follow
        omega[:k], theta[k:] = antisym(e[~below]), sym(e[below.T])
        lifts = sigma_split(omega, theta, g)
        return ricci(lifts, g) - omega - theta, _membership_rows(lifts, g, "r")


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


def _check_gram_positivity(ctx):
    # full positive definiteness asserted only for definite signature
    if ctx.sig[1] != 0:
        return
    w, a = ctx.comps("r", "w"), ctx.comps("r", "a")
    comps = np.concatenate([w[:, :6], a[:, :6]])
    nonzero = _row_maxnorm(comps, 2) > 1e-8
    yield tensor_pairing(comps, comps, ctx.g)[nonzero] > 0.0


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
    conds = conditions(*(x[:8] for x in ctx.parts("r").traces[:3]), g.matrix, n)
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
    parts = ctx.parts("f_pair")
    cs = conjugate(parts.t)
    w = ctx.comps("f_pair", "w")
    keep = (0, 2, 3, 5, 6, 7)  # W2 and W5 of the conjugate are not read
    ws = dict(zip(keep, _Parts(cs, g).w(keep)))
    ric, star, tau = parts.traces[:3]
    yield membership_residual(cs, g, "r")
    yield from (w[2], w[3], w[7])
    yield from (ws[2], ws[3], ws[7])
    yield from (ws[0] - w[0], ws[5] - w[5], ws[6] + w[6])
    yield w[1] - _wedge((tau / n) * gm - ric, gm) / (n - 1)
    expected5 = (
        tau[..., None, None] * _wedge(gm, gm) - _wedge_r(ric + (n - 1) * star, gm, n - 1) / n
    ) / ((n - 1) * (n - 2))
    yield w[4] - expected5
    yield parts.projective_part() - w[4] - w[5] - w[6]


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
    g, r = ctx.g, ctx.parts("r")
    core = r.traceless_core()
    w = ctx.comps("r", "w")
    yield from (ricci(core, g), ricci_star(core, g))
    yield core - (r.t - w[0] - w[1] - w[2] - w[3] - w[4])
    ps, m = psi(core), mu(core)
    yield from (w[5] - ps, w[6] - m)
    yield w[7] - (core - ps - m)
    t = ctx.parts("t")
    yield t.traceless_core() - t.t


def _check_projective_part(ctx):
    g, n = ctx.g, ctx.n
    yield projective_part(_wedge(g.matrix, g.matrix), g)
    f, t = ctx.parts("f"), ctx.parts("t")
    yield f.projective_part() - (f.t + _wedge(ricci(f.t, g), g.matrix) / (n - 1))
    yield t.projective_part() - t.t
    w = ctx.comps("r", "w")
    yield ctx.parts("r").projective_part() - (w[3] + w[4] + w[5] + w[6] + w[7])


def _check_projective_flat_bilinear_form(ctx):
    g = ctx.g
    gg = _wedge(g.matrix, g.matrix)
    yield from b_forms(gg, g)
    w = ctx.comps("r", "w")
    paired = conjugate(_normalize(w[0] + w[1], 1e-8))
    b_star, _ = b_forms(paired, g)
    yield b_star


def _check_einstein_projector_criterion(ctx):
    g, n = ctx.g, ctx.n
    gm = g.matrix
    yield equiaffine_einstein_check(_wedge(gm, gm), g)
    yield equiaffine_einstein_check(np.zeros((n,) * 4), g)
    r, w = ctx.parts("r"), ctx.comps("r", "w")
    pos = _Parts(r.t - w[1] - w[2], g)
    ric, _, tau = pos.traces[:3]
    yield ric - (tau / n) * gm
    # the converse, for each sample with a distinctly nonzero W2 or W3
    neg = np.maximum(_row_maxnorm(w[1], 1), _row_maxnorm(w[2], 1)) > MARGIN
    ric, _, tau = r.traces[:3]
    gap = _row_maxnorm(ric - (tau / n) * gm, 1)
    yield gap[neg] > 10 * ctx.tol
    yield pos.einstein()
    yield ~r.einstein()[neg]


def _check_constant_curvature_equivalences(ctx):
    g, n = ctx.g, ctx.n
    gm = g.matrix
    gg = _wedge(gm, gm)
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
        2.0 * tau[..., None, None] * _wedge(gm, gm)
        - _wedge_r(gm, ric, n - 1)
        - _wedge_r(star, gm, n - 1)
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


def _check_singer_thorpe(ctx):
    g, n = ctx.g, ctx.n
    gm = g.matrix
    gg = _wedge(gm, gm)
    res = singer_thorpe(ctx.stack("a"), g)
    u, z, w = res.components
    # u is a multiple of g^g
    c = (tensor_pairing(u, gg, g) / tensor_pairing(gg, gg, g))[:, None, None, None, None]
    yield from (res.completeness_residual, u - c * gg)
    # z is recovered from its own traceless symmetric Ricci source
    xi = ricci(z, g) / (n - 2)
    yield z + _wedge_r(xi, gm, 1)
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


_completeness = lambda p: [np.sum(p[1:], axis=0) - p[0]]  # B's blocks, then the family's
_idempotence = lambda p: [p @ p - p]


def _orthogonality(p):
    # P_i P_j for i != j, and P - P^T: the pairing is 2η_c times the identity on class c,
    # so a self-adjoint map has symmetric class blocks
    yield from ((p[i] @ p)[np.arange(8) != i] for i in range(8))
    yield p - np.swapaxes(p, -1, -2)


def _coincidences(p):  # the W family's blocks, then the A family's
    w, a = p[:8], p[8:]
    yield w[[0, 5, 6, 7]] - a[[0, 5, 6, 7]]
    yield from (w[1] + w[4] - a[1] - a[2], w[2] + w[3] - a[3] - a[4])


def _on_blocks(verdict, *names):
    """A check that reads the point's class blocks (`sampling._blocks`) and no sample: the
    guard residual of B and the named maps, then verdict's terms on each class size's
    stack of the maps' blocks, (len(names), G, s, s)."""
    def check(ctx):
        blocks, guard = ctx.blocks
        yield max(guard[name] for name in ("r", *names))
        for p in map(np.stack, zip(*(blocks[name] for name in names))):
            yield from verdict(p)

    return _first_block(check)


def _check_dimension_consistency(ctx):
    # the point's `dims` reports of r, a, f, p and the W and A blocks, off its class blocks:
    # each projector's trace is its table dimension, and the guard holds
    yield all(rep.empirical_dim == rep.formula_dim and not rep.inconclusive
              for rep in sampling._reports(ctx.n, *ctx.blocks).values())


def _check_ricci_image_dimensions(ctx):
    # Ric maps r(V) onto the n(n - 1)/2 alternating and the n(n + 1)/2 symmetric forms: exact
    # identities on sigma's basis lifts, judged at MEMBERSHIP_TOL whatever the tolerance
    defect, rows = ctx.sigma_basis
    yield from (rows <= MEMBERSHIP_TOL, _row_maxnorm(defect, 1) <= MEMBERSHIP_TOL)


def _check_membership_tower(ctx):
    g, n = ctx.g, ctx.n
    gg = _wedge(g.matrix, g.matrix)
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
    "w_completeness": _on_blocks(_completeness, "r", *_W),
    "a_completeness": _on_blocks(_completeness, "r", *_A),
    "w_idempotence": _on_blocks(_idempotence, *_W),
    "a_idempotence": _on_blocks(_idempotence, *_A),
    "w_orthogonality": _on_blocks(_orthogonality, *_W),
    "a_orthogonality": _on_blocks(_orthogonality, *_A),
    "gram_positivity": _first_block(_check_gram_positivity),
    "wa_map_coincidences": _on_blocks(_coincidences, *_W, *_A),
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
    "trace_reconstruction": _first_block(lambda ctx: ctx.sigma_basis),
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
    Raises CurvdecError for a config that is not a SuiteConfig, UnknownCheck when `only` is
    a string, no collection or holds an entry that is not a name in CHECKS, EmptyRun for an
    empty `only`, a sample count that is not an integer >= 1 or an empty grid,
    DimensionTooSmall for a dimension below 3, DimensionMismatch for one past
    sampling.MAX_DIM, dims or signatures that are not a collection, a signature that is not
    a pair or a dimension or signature entry that is not an integer or negative,
    NonFiniteInput for a tolerance that is not a finite real number >= 0, and
    NegativeStreamKey for a seed that is negative or not an integer, before any check runs.
    """
    if not isinstance(config, (SuiteConfig, type(None))):  # 5 or [1] has no grid
        raise CurvdecError(f"config must be a SuiteConfig, got {config!r}")
    cfg = config or SuiteConfig()
    if isinstance(only, str):  # a str is a collection of letters
        raise UnknownCheck(f"only must be a collection of check names, got the string {only!r}")
    try:
        wanted = set(CHECKS) if only is None else set(only)
    except TypeError:  # a number is no collection, and a list in one no name
        raise UnknownCheck(f"only must be a collection of check names, got {only!r}") from None
    if not wanted:
        raise EmptyRun("a run needs at least one check")
    unknown = sorted(wanted - set(CHECKS), key=repr)  # an entry need not be a str
    if unknown:
        raise UnknownCheck(f"unknown check names {unknown}; known: {', '.join(CHECKS)}")
    if _integer(cfg.samples, EmptyRun, "samples") < 1:
        raise EmptyRun(f"samples must be at least 1, got {cfg.samples}")
    try:
        for sig in cfg.signatures or ():
            if np.shape(sig) != (2,):
                raise DimensionMismatch(f"a signature must be a pair (p, q), got {sig!r}")
            if min(_integer(x, DimensionMismatch, "a signature entry") for x in sig) < 0:
                raise DimensionMismatch(f"signatures {cfg.signatures} hold a negative count")
        for n in cfg.dims:
            sampling.formula_dim("co", n)  # refuses n < 3, n > MAX_DIM and a non-integer
    except (TypeError, ValueError):  # a number where a collection belongs, or a ragged pair
        raise DimensionMismatch(f"dims {cfg.dims!r} and signatures {cfg.signatures!r} must be"
                                " collections of integers and of pairs (p, q)") from None
    tol = cfg.tolerance  # a bool is a Real, but no tolerance
    if not isinstance(tol, Real) or isinstance(tol, bool) or not 0 <= tol < math.inf:
        raise NonFiniteInput(f"tolerance must be a finite real number >= 0, got {tol!r}")
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
