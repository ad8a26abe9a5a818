"""Runnable invariant suite: every structural law as a named, seeded check.

The suite walks the configured (dimension, signature) grid and, at each point,
the sample indices in blocks of CHUNK.  A check reads rows of the package's
one sample sequence: row i of a block's stack of a space is `sample(space, n,
sig, seed, index=lo + i)`.  Each block draws or projects every stack it needs
once, computes the W and A components of a stack once, and shares them
read-only with all checks.  Every map runs once on a stack, and a check's
worst residual is the largest over its stacks and over the blocks.  The checks
in FIRST_BLOCK read only a point's first few rows or its `dimension_reports`,
and run on block 0 alone.  Verdict-style assertions (two quantities must
vanish together, engineered negatives must stay distinctly nonzero) hold
sample by sample and contribute 1.0 to the residual when one sample violates
them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sampling
from .decomp import (
    a_projections,
    b_forms,
    equiaffine_einstein_check,
    projective_part,
    sigma_split,
    singer_thorpe,
    traceless_core,
    w_projections,
)
from .errors import EmptyRun, EmptySpace, UnknownCheck
from .linalg import _maxnorm, antisym, standard_scalar_product, sym, tensor_pairing
from .sampling import (
    CHUNK,
    EMPTY_NORM,
    _noise,
    _normalize,
    _project,
    _stack,
    dimension_reports,
    numerical_rank,
    rng_stream,
)
from .spaces import (
    SPACE_TAGS,
    _membership_rows,
    _row_maxnorm,
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
            "signatures": None
            if self.signatures is None
            else [list(s) for s in self.signatures],
            "samples": self.samples,
            "seed": self.seed,
            "tolerance": self.tolerance,
        }


class _Ctx:
    """One block of a (dimension, signature) point: the k sample indices from lo.

    Every stack and every stack's W and A components are computed once, at
    k rows or, for the missing rows only, at the most rows a check asks for,
    and kept read-only.  One W pass of 'r' also serves 'f' and 'f_pair'.
    """

    def __init__(self, n: int, sig, cfg: SuiteConfig, lo: int):
        self.n = n
        self.sig = sig
        self.g = standard_scalar_product(*sig)
        self.lo = lo
        self.k = min(CHUNK, cfg.samples - lo)
        self.tol = cfg.tolerance
        self.seed = cfg.seed
        self._rows = {}  # space -> its rows drawn so far
        self._comps = {}  # (space, projector) -> the components of those rows

    def stack(self, space: str, count: int) -> np.ndarray:
        """The samples of indices lo .. lo+count-1, stacked and read-only."""
        rows = self._rows.get(space)
        have = 0 if rows is None else len(rows)
        if have < count:  # draw only the missing indices: each has its own stream
            drawn = max(count, self.k)
            if space in ("r", "co"):
                more = _stack(space, self.g, self.seed, range(self.lo + have, self.lo + drawn))
            else:  # 'f' and 'f_pair' are sums of the W components of their 'r' rows
                base = self.stack("r", drawn)[have:]
                w = self.comps("r", w_projections, drawn)[:, have:] if space[0] == "f" else None
                more = _normalize(_project(space, base, self.g, w), EMPTY_NORM)
            if len(more) < drawn - have:  # a dropped row would misalign the stack with its indices
                raise EmptySpace(f"a projected {space!r} sample is below max-norm {EMPTY_NORM:.0e}")
            self._rows[space] = rows = more if rows is None else np.concatenate((rows, more))
            rows.flags.writeable = False
        return rows[:count]

    def comps(self, space: str, proj, count: int) -> np.ndarray:
        """proj's eight components of stack(space, count), one read-only (8, count, ...) stack."""
        comps = self._comps.get((space, proj))
        have = 0 if comps is None else comps.shape[1]
        if have < count:  # project only the missing rows
            more = np.stack(proj(self.stack(space, max(count, self.k))[have:], self.g))
            comps = more if comps is None else np.concatenate((comps, more), axis=1)
            comps.flags.writeable = False
            self._comps[(space, proj)] = comps
        return comps[:, :count]


def _verdict(ok: bool) -> float:
    return 0.0 if ok else 1.0


# ---------------------------------------------------------------------------
# check implementations; each returns its worst residual for one context


def _check_w_completeness(ctx):
    return _maxnorm(np.sum(ctx.comps("r", w_projections, ctx.k), axis=0) - ctx.stack("r", ctx.k))


def _check_a_completeness(ctx):
    return _maxnorm(np.sum(ctx.comps("r", a_projections, ctx.k), axis=0) - ctx.stack("r", ctx.k))


def _projector_checks(ctx, proj):
    # again[i, j] = P_i(P_j r), which is P_j r for i = j and zero otherwise
    comps = ctx.comps("r", proj, min(ctx.k, 4))
    again = np.stack(proj(comps, ctx.g))
    again[range(8), range(8)] -= comps
    scale = np.maximum(1.0, _row_maxnorm(comps, 2))
    return float(np.max(_row_maxnorm(again, 3) / scale))


def _check_w_idempotence(ctx):
    return _projector_checks(ctx, w_projections)


def _check_a_idempotence(ctx):
    return _projector_checks(ctx, a_projections)


def _orthogonality(ctx, proj):
    # pair[a, b, i] pairs component a of sample 2i with component b of sample 2i + 1
    comps = ctx.comps("r", proj, 2 * min(ctx.k, 6))
    pair = np.abs(tensor_pairing(comps[:, None, 0::2], comps[None, :, 1::2], ctx.g))
    norm = np.sqrt(np.sum(np.square(comps), axis=(-4, -3, -2, -1)))
    n1, n2 = norm[:, None, 0::2], norm[None, :, 1::2]
    keep = (n1 >= 1e-10) & (n2 >= 1e-10) & ~np.eye(8, dtype=bool)[..., None]
    return float(np.max(pair[keep] / (n1 * n2)[keep], initial=0.0))


def _check_w_orthogonality(ctx):
    return _orthogonality(ctx, w_projections)


def _check_a_orthogonality(ctx):
    return _orthogonality(ctx, a_projections)


def _check_gram_positivity(ctx):
    # full positive definiteness asserted only for definite signature
    if ctx.sig[1] != 0:
        return 0.0
    m = min(ctx.k, 6)
    comps = np.concatenate([ctx.comps("r", w_projections, m), ctx.comps("r", a_projections, m)])
    nonzero = _row_maxnorm(comps, 2) > 1e-8
    return _verdict(np.all(tensor_pairing(comps, comps, ctx.g)[nonzero] > 0.0))


def _check_wa_map_coincidences(ctx):
    w, a = ctx.comps("r", w_projections, ctx.k), ctx.comps("r", a_projections, ctx.k)
    same = [w[j] - a[j] for j in (0, 5, 6, 7)]
    return max(map(_maxnorm, same + [w[1] + w[4] - a[1] - a[2], w[2] + w[3] - a[3] - a[4]]))


def _check_w_trace_formulas(ctx):
    g, n = ctx.g, ctx.n
    gm = g.matrix
    r = ctx.stack("r", ctx.k)
    ric, star, tau = _traces(r, g)
    parts = _traces(ctx.comps("r", w_projections, ctx.k), g)
    exp_ric = [
        (tau / n) * gm,
        -(tau / n) * gm + sym(ric),
        antisym(ric),
    ] + [0.0] * 5
    exp_star = [
        (tau / n) * gm,
        ((tau / n) * gm - sym(ric)) / (n - 1),
        (-3.0 / (n + 1)) * antisym(ric),
        antisym(star + (3.0 / (n + 1)) * ric),
        -(tau / (n - 1)) * gm + sym(ric / (n - 1) + star),
    ] + [0.0] * 3
    worst = 0.0
    for j, (ric_j, star_j, tau_j) in enumerate(zip(*parts)):
        worst = max(worst, _maxnorm(ric_j - exp_ric[j]), _maxnorm(star_j - exp_star[j]))
        if j >= 1:
            worst = max(worst, _maxnorm(tau_j))
    return worst


def _check_a_trace_formulas(ctx):
    g, n = ctx.g, ctx.n
    gm = g.matrix
    star_factor = [1.0, 1.0, -1.0, -1.0, 3.0, 0.0, 0.0, 0.0]
    r = ctx.stack("r", ctx.k)
    ric, star, tau = _traces(r, g)
    parts = _traces(ctx.comps("r", a_projections, ctx.k), g)
    exp_ric = [
        (tau / n) * gm,
        -(tau / n) * gm + 0.5 * sym(ric + star),
        0.5 * sym(ric - star),
        0.25 * antisym(3.0 * ric - star),
        0.25 * antisym(ric + star),
    ] + [0.0] * 3
    worst = 0.0
    for j, (ric_j, star_j, tau_j) in enumerate(zip(*parts)):
        worst = max(worst, _maxnorm(ric_j - exp_ric[j]))
        worst = max(worst, _maxnorm(star_j - star_factor[j] * ric_j))
        if j >= 1:
            worst = max(worst, _maxnorm(tau_j))
    return worst


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


def _vanishing(ctx, proj, conditions):
    g, n = ctx.g, ctx.n
    r = ctx.stack("r", min(ctx.k, 8))
    comps = ctx.comps("r", proj, len(r))
    conds = conditions(*_traces(r, g), g.matrix, n)
    worst = 0.0
    for j in range(5):
        # forward: removing the component enforces its trace condition
        stripped = r - comps[j]
        cond = conditions(*_traces(stripped, g), g.matrix, n)[j]
        worst = max(worst, _maxnorm(cond), _maxnorm(proj(stripped, g)[j]))
        # converse: each distinctly nonzero component needs a nonzero condition
        nonzero = _row_maxnorm(comps[j], 1) > MARGIN
        worst = max(worst, _verdict(np.all(_row_maxnorm(conds[j], 1)[nonzero] > 10 * ctx.tol)))
    return worst


def _check_w_vanishing_criteria(ctx):
    return _vanishing(ctx, w_projections, _w_conditions)


def _check_a_vanishing_criteria(ctx):
    return _vanishing(ctx, a_projections, _a_conditions)


def _check_conjugate_closure(ctx):
    # membership of the conjugate in r(V), the component criterion, and the
    # complement all vanish together
    g = ctx.g
    r = ctx.stack("r", ctx.k)
    s = ctx.stack("a_plus_s", ctx.k)
    comps = ctx.comps("a_plus_s", a_projections, ctx.k)
    worst = max(membership_residual(conjugate(s), g, "r"), _maxnorm(comps[4]), _maxnorm(comps[7]))
    c = _normalize(r - psi(r) - mu(r), 1e-8)
    worst = max(worst, _verdict(np.all(_membership_rows(conjugate(c), g, "r") > 1e-3)))
    comps_c = a_projections(c, g)
    off = np.maximum(_row_maxnorm(comps_c[4], 1), _row_maxnorm(comps_c[7], 1))
    return max(worst, _verdict(np.all(off > 1e-3)))


def _check_conjugate_split(ctx):
    s = ctx.stack("a_plus_s", ctx.k)
    cs = conjugate(s)
    return max(_maxnorm(psi(s) - 0.5 * (s + cs)), _maxnorm(mu(s) - 0.5 * (s - cs)))


def _check_a_conjugation_signs(ctx):
    g = ctx.g
    signs = {0: 1.0, 1: 1.0, 2: -1.0, 3: -1.0, 5: 1.0, 6: -1.0}
    s = ctx.stack("a_plus_s", ctx.k)
    comps = ctx.comps("a_plus_s", a_projections, ctx.k)
    comps_star = a_projections(conjugate(s), g)
    worst = max(_maxnorm(comps_star[j] - sign * comps[j]) for j, sign in signs.items())
    # components of the conjugate coincide with conjugated components
    for j in (0, 1, 2, 5):
        worst = max(worst, _maxnorm(comps_star[j] - conjugate(comps[j])))
    worst = max(worst, _maxnorm(comps_star[4]), _maxnorm(comps_star[7]))
    return max(worst, _maxnorm(comps[4]), _maxnorm(comps[7]))


def _check_equiaffine_pair_projections(ctx):
    g, n = ctx.g, ctx.n
    gm = g.matrix
    s = ctx.stack("f_pair", ctx.k)
    cs = conjugate(s)
    w = ctx.comps("f_pair", w_projections, ctx.k)
    ws = w_projections(cs, g)
    ric, star, tau = _traces(s, g)
    worst = membership_residual(cs, g, "r")
    worst = max(worst, _maxnorm(w[2]), _maxnorm(w[3]), _maxnorm(w[7]))
    worst = max(worst, _maxnorm(ws[2]), _maxnorm(ws[3]), _maxnorm(ws[7]))
    worst = max(worst, _maxnorm(ws[0] - w[0]), _maxnorm(ws[5] - w[5]), _maxnorm(ws[6] + w[6]))
    worst = max(worst, _maxnorm(w[1] - wedge((tau / n) * gm - ric, gm) / (n - 1)))
    expected5 = (
        tau[..., None, None] * wedge(gm, gm) - wedge_r(ric + (n - 1) * star, gm, n - 1) / n
    ) / ((n - 1) * (n - 2))
    worst = max(worst, _maxnorm(w[4] - expected5))
    return max(worst, _maxnorm(projective_part(s, g) - w[4] - w[5] - w[6]))


def _check_ricci_symmetry_equivalence(ctx):
    g = ctx.g
    s = ctx.stack("a_plus_s", ctx.k)
    cs = conjugate(s)
    w7 = ctx.comps("a_plus_s", w_projections, ctx.k)[7]
    worst = max(_maxnorm(w7), _maxnorm(w_projections(cs, g)[7]))
    lr = antisym(ricci(s, g))
    lrs = antisym(ricci(cs, g))
    worst = max(worst, _maxnorm(lr + lrs))
    sym_s = _row_maxnorm(lr, 1) <= 100 * ctx.tol
    sym_cs = _row_maxnorm(lrs, 1) <= 100 * ctx.tol
    worst = max(worst, _verdict(np.array_equal(sym_s, sym_cs)))
    p = ctx.stack("f_pair", ctx.k)
    return max(worst, _maxnorm(antisym(ricci(p, g))), _maxnorm(antisym(ricci(conjugate(p), g))))


def _check_conjugate_pair_reduction(ctx):
    # the five-component reduction needs the Ricci-symmetric conjugate-pair
    # class; on all of a+s the antisymmetric-Ricci components survive
    s = ctx.stack("f_pair", ctx.k)
    w = ctx.comps("f_pair", w_projections, ctx.k)
    worst = _maxnorm(s - w[0] - w[1] - w[4] - w[5] - w[6])
    return max(worst, _maxnorm(w[2]), _maxnorm(w[3]), _maxnorm(w[7]))


def _check_complement_ricci_structure(ctx):
    g = ctx.g
    r = ctx.stack("r", ctx.k)
    c = _normalize(r - psi(r) - mu(r), 1e-8)
    ric = ricci(c, g)
    keep = _row_maxnorm(ric, 1) > 100 * ctx.tol
    c, ric = c[keep], ric[keep]
    return max(_maxnorm(sym(ric)), _maxnorm(ricci_star(c, g) - 3.0 * ric))


def _check_traceless_core(ctx):
    g = ctx.g
    r = ctx.stack("r", ctx.k)
    core = traceless_core(r, g)
    w = ctx.comps("r", w_projections, ctx.k)
    worst = max(_maxnorm(ricci(core, g)), _maxnorm(ricci_star(core, g)))
    worst = max(worst, _maxnorm(core - (r - w[0] - w[1] - w[2] - w[3] - w[4])))
    ps, m = psi(core), mu(core)
    worst = max(worst, _maxnorm(w[5] - ps), _maxnorm(w[6] - m))
    worst = max(worst, _maxnorm(w[7] - (core - ps - m)))
    t = ctx.stack("t", ctx.k)
    return max(worst, _maxnorm(traceless_core(t, g) - t))


def _check_projective_part(ctx):
    g, n = ctx.g, ctx.n
    worst = _maxnorm(projective_part(wedge(g.matrix, g.matrix), g))
    r = ctx.stack("r", ctx.k)
    f = ctx.stack("f", ctx.k)
    worst = max(worst, _maxnorm(projective_part(f, g) - (f + wedge(ricci(f, g), g.matrix) / (n - 1))))
    t = ctx.stack("t", ctx.k)
    worst = max(worst, _maxnorm(projective_part(t, g) - t))
    w = ctx.comps("r", w_projections, ctx.k)
    return max(worst, _maxnorm(projective_part(r, g) - (w[3] + w[4] + w[5] + w[6] + w[7])))


def _check_projective_flat_bilinear_form(ctx):
    g = ctx.g
    gg = wedge(g.matrix, g.matrix)
    b_star, b = b_forms(gg, g)
    worst = max(_maxnorm(b_star), _maxnorm(b))
    w = ctx.comps("r", w_projections, ctx.k)
    paired = conjugate(_normalize(w[0] + w[1], 1e-8))
    b_star, _ = b_forms(paired, g)
    return max(worst, _maxnorm(b_star))


def _check_einstein_projector_criterion(ctx):
    g, n = ctx.g, ctx.n
    gm = g.matrix
    worst = _verdict(equiaffine_einstein_check(wedge(gm, gm), g))
    worst = max(worst, _verdict(equiaffine_einstein_check(np.zeros((n,) * 4), g)))
    r = ctx.stack("r", ctx.k)
    w = ctx.comps("r", w_projections, ctx.k)
    pos = r - w[1] - w[2]
    ric, _, tau = _traces(pos, g)
    worst = max(worst, _maxnorm(ric - (tau / n) * gm))
    # the converse, for each sample with a distinctly nonzero W2 or W3
    neg = np.maximum(_row_maxnorm(w[1], 1), _row_maxnorm(w[2], 1)) > MARGIN
    ric, _, tau = _traces(r, g)
    gap = _row_maxnorm(ric - (tau / n) * gm, 1)
    worst = max(worst, _verdict(np.all(gap[neg] > 10 * ctx.tol)))
    worst = max(worst, _verdict(np.all(equiaffine_einstein_check(pos, g))))
    return max(worst, _verdict(not np.any(equiaffine_einstein_check(r, g)[neg])))


def _check_constant_curvature_equivalences(ctx):
    g, n = ctx.g, ctx.n
    gm = g.matrix
    gg = wedge(gm, gm)
    w = ctx.comps("r", w_projections, ctx.k)
    flat = w[0] + w[1]
    w_flat = w_projections(flat, g)
    pos = flat - w_flat[1]  # flat-type, then drop 2
    ric, _, tau = _traces(pos, g)
    worst = _maxnorm(w_projections(pos, g)[1])
    worst = max(worst, _maxnorm(ric - (tau / n) * gm))
    worst = max(worst, _maxnorm(pos + (tau[..., None, None] / (n * (n - 1))) * gg))
    # each sample with a distinctly nonzero W2 must fail all three
    neg = _row_maxnorm(w[1], 1) > MARGIN
    ric, _, tau = _traces(flat, g)
    for gap in (w_flat[1], ric - (tau / n) * gm, flat + (tau[..., None, None] / (n * (n - 1))) * gg):
        worst = max(worst, _verdict(np.all(_row_maxnorm(gap, 1)[neg] > 10 * ctx.tol)))
    return worst


def _check_ricci_block_closed_form(ctx):
    g, n = ctx.g, ctx.n
    gm = g.matrix
    s = ctx.stack("f_pair", ctx.k)
    w, a = ctx.comps("f_pair", w_projections, ctx.k), ctx.comps("f_pair", a_projections, ctx.k)
    ric, star, tau = _traces(s, g)
    rhs = (
        2.0 * tau[..., None, None] * wedge(gm, gm)
        - wedge_r(gm, ric, n - 1)
        - wedge_r(star, gm, n - 1)
    ) / (n * (n - 2))
    return max(_maxnorm(w[1] + w[4] - rhs), _maxnorm(a[1] + a[2] - rhs))


def _check_equiaffine_projector_agreement(ctx):
    g = ctx.g
    s = ctx.stack("f_pair", ctx.k)
    w, a = ctx.comps("f_pair", w_projections, ctx.k), ctx.comps("f_pair", a_projections, ctx.k)
    via_w = s - w[2]
    via_a = s - a[3] - a[4]
    return max(_maxnorm(via_w - via_a), _maxnorm(via_w - s))


def _check_projective_conjugate_equivalence(ctx):
    # the Ricci-free parts of a tensor and its conjugate coincide exactly
    # when the two coincide, i.e. when the tensor is of metric type
    g = ctx.g
    k = min(ctx.k, 8)
    a = ctx.stack("a", k)
    worst = _maxnorm(projective_part(conjugate(a), g) - projective_part(a, g))
    p = ctx.stack("f_pair", k)
    cp = conjugate(p)
    off = _row_maxnorm(p - cp, 1) > MARGIN
    pdiff = _row_maxnorm(projective_part(p, g) - projective_part(cp, g), 1)
    worst = max(worst, _verdict(np.all(pdiff[off] > 10 * ctx.tol)))
    return max(worst, _verdict(np.all(_membership_rows(p, g, "a")[off] > 10 * ctx.tol)))


def _check_trace_reconstruction(ctx):
    g, n = ctx.g, ctx.n
    # each index's stream draws omega's noise, then theta's
    noise = _noise((2, n, n), ctx.seed, range(min(ctx.k, 8)))
    omega, theta = antisym(noise[:, 0]), sym(noise[:, 1])
    built = sigma_split(omega, theta, g)
    worst = max(_maxnorm(ricci(built, g) - omega - theta), membership_residual(built, g, "r"))
    only_omega = sigma_split(omega, np.zeros((n, n)), g)
    worst = max(worst, _maxnorm(ricci(only_omega, g) - omega))
    only_theta = sigma_split(np.zeros((n, n)), theta, g)
    return max(worst, _maxnorm(ricci(only_theta, g) - theta))


def _check_singer_thorpe(ctx):
    g, n = ctx.g, ctx.n
    gm = g.matrix
    gg = wedge(gm, gm)
    res = singer_thorpe(ctx.stack("a", ctx.k), g)
    u, z, w = res.components
    # u is a multiple of g^g
    c = (tensor_pairing(u, gg, g) / tensor_pairing(gg, gg, g))[:, None, None, None, None]
    worst = max(_maxnorm(res.completeness_residual), _maxnorm(u - c * gg))
    # z is recovered from its own traceless symmetric Ricci source
    xi = ricci(z, g) / (n - 2)
    worst = max(worst, _maxnorm(z + wedge_r(xi, gm, 1)))
    worst = max(worst, _maxnorm(antisym(xi)), _maxnorm(np.sum(g.inverse * xi, axis=(-2, -1))))
    worst = max(worst, _maxnorm(ricci(w, g)), _maxnorm(ricci_star(w, g)))
    for part in (u, z, w):
        worst = max(worst, membership_residual(part[_row_maxnorm(part, 1) > 1e-10], g, "a"))
    return worst


def _check_rescale_invariance(ctx):
    g = ctx.g
    tol = max(ctx.tol, 1e-12)
    r = ctx.stack("r", min(ctx.k, 6))
    w1, a1 = ctx.comps("r", w_projections, len(r)), ctx.comps("r", a_projections, len(r))
    flags = np.array([_membership_rows(r, g, space) <= tol for space in SPACE_TAGS])
    p1 = tensor_pairing(r, r, g)
    worst = 0.0
    for c in (0.5, 3.75):
        gc = g.rescaled(c)
        w2, a2 = w_projections(r, gc), a_projections(r, gc)
        for j in range(8):
            worst = max(worst, _maxnorm(w1[j] - w2[j]), _maxnorm(a1[j] - a2[j]))
        flags_c = np.array([_membership_rows(r, gc, space) <= tol for space in SPACE_TAGS])
        worst = max(worst, _verdict(np.array_equal(flags, flags_c)))
        p2 = tensor_pairing(r, r, gc)
        worst = max(worst, float(np.max(np.abs(p2 - p1 / c**4) / np.maximum(1.0, np.abs(p1)))))
    return worst


def _check_dimension_consistency(ctx):
    # the point's `dims` reports of r, a, f, p and the W and A blocks: each has its table rank
    spaces = ("r", "a", "f", "p", *(f"{family}{j}" for family in "WA" for j in range(1, 9)))
    reports = dimension_reports(ctx.n, ctx.sig, seed=ctx.seed, spaces=spaces).values()
    ok = all(rep.empirical_dim == rep.formula_dim and not rep.inconclusive for rep in reports)
    return _verdict(ok)


def _check_ricci_image_dimensions(ctx):
    g, n = ctx.g, ctx.n
    ric = ricci(ctx.stack("r", 2 * n * (n + 1) + 8), g)
    worst = 0.0
    for part, expected in ((antisym(ric), n * (n - 1) // 2), (sym(ric), n * (n + 1) // 2)):
        rank, gap = numerical_rank(part.reshape(len(part), -1))
        ok = rank == expected and gap is not None and gap >= sampling.GAP_RATIO
        worst = max(worst, _verdict(ok))
    return worst


def _check_membership_tower(ctx):
    g, n = ctx.g, ctx.n
    tol = ctx.tol
    worst = 0.0
    gg = wedge(g.matrix, g.matrix)
    for space in ("a", "f", "r", "co"):
        flag, _ = membership(gg, g, space, tol=tol)
        worst = max(worst, _verdict(flag))
    flag_p, _ = membership(gg, g, "p", tol=tol)
    worst = max(worst, _verdict(not flag_p))
    zero = np.zeros((n,) * 4)
    for space in ("co", "r", "a", "s", "f", "p", "t"):
        flag, res = membership(zero, g, space, tol=tol)
        worst = max(worst, _verdict(flag), res)
    k = min(ctx.k, 8)
    r = ctx.stack("r", k)
    a, s, f, p, t = (ctx.stack(space, k) for space in ("a", "s", "f", "p", "t"))
    worst = max(worst, _maxnorm(conjugate(a) - a), _maxnorm(conjugate(s) + s))
    co = ctx.stack("co", k)
    worst = max(worst, membership_residual(co, g, "co"))
    worst = max(worst, _verdict(np.all(_membership_rows(co, g, "r") > 1e-3)))
    for space, stack in (("r", r), ("f", f), ("p", p), ("t", t)):
        worst = max(worst, membership_residual(stack, g, space))
    return worst


def _check_conjugation_involution(ctx):
    r = ctx.stack("r", min(ctx.k, 8))
    return _maxnorm(conjugate(conjugate(r)) - r)


def _check_ricci_conjugate_trace(ctx):
    g = ctx.g
    co = ctx.stack("co", ctx.k)
    rep = ricci_traces(co, g)
    worst = max(_maxnorm(rep.ric_star - ricci(conjugate(co), g)), _maxnorm(rep.rho23 + rep.rho13))
    worst = max(worst, _maxnorm(rep.rho24 + rep.rho14))
    worst = max(worst, _maxnorm(np.sum(g.inverse * rep.ric, axis=(-2, -1)) - rep.tau))
    return max(worst, _maxnorm(np.sum(g.inverse * rep.ric_star, axis=(-2, -1)) - rep.tau))


CHECKS = {
    "w_completeness": _check_w_completeness,
    "a_completeness": _check_a_completeness,
    "w_idempotence": _check_w_idempotence,
    "a_idempotence": _check_a_idempotence,
    "w_orthogonality": _check_w_orthogonality,
    "a_orthogonality": _check_a_orthogonality,
    "gram_positivity": _check_gram_positivity,
    "wa_map_coincidences": _check_wa_map_coincidences,
    "w_trace_formulas": _check_w_trace_formulas,
    "a_trace_formulas": _check_a_trace_formulas,
    "w_vanishing_criteria": _check_w_vanishing_criteria,
    "a_vanishing_criteria": _check_a_vanishing_criteria,
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
    "projective_conjugate_equivalence": _check_projective_conjugate_equivalence,
    "trace_reconstruction": _check_trace_reconstruction,
    "singer_thorpe": _check_singer_thorpe,
    "rescale_invariance": _check_rescale_invariance,
    "dimension_consistency": _check_dimension_consistency,
    "ricci_image_dimensions": _check_ricci_image_dimensions,
    "membership_tower": _check_membership_tower,
    "conjugation_involution": _check_conjugation_involution,
    "ricci_conjugate_trace": _check_ricci_conjugate_trace,
}

# these checks read only a point's first rows, or its `dimension_reports`:
# they run on the first block of each point alone
FIRST_BLOCK = frozenset({
    "w_idempotence", "a_idempotence", "w_orthogonality", "a_orthogonality",
    "gram_positivity", "w_vanishing_criteria", "a_vanishing_criteria",
    "projective_conjugate_equivalence", "trace_reconstruction", "rescale_invariance",
    "membership_tower", "conjugation_involution",
    "dimension_consistency", "ricci_image_dimensions",
})


def run_invariant_suite(config: SuiteConfig | None = None, only=None) -> dict:
    """Run the named checks over the configured grid.

    Returns the report as a map check-name -> {pass, worst_residual, config};
    a failure is data, not an exception.  `only` restricts to the given check
    names.  Each point is walked in blocks of CHUNK sample indices, and a
    check's worst residual is the largest over the blocks it runs on.
    Raises UnknownCheck when `only` holds a name that is not in CHECKS,
    EmptyRun for fewer than one sample or an empty grid, and
    NegativeStreamKey for a negative seed, before any check runs.
    """
    cfg = config or SuiteConfig()
    wanted = set(CHECKS) if only is None else set(only)
    unknown = sorted(wanted - set(CHECKS))
    if unknown:
        raise UnknownCheck(f"unknown check names {unknown}; known: {', '.join(CHECKS)}")
    if cfg.samples < 1:
        raise EmptyRun(f"samples must be at least 1, got {cfg.samples}")
    if not any(cfg.grid()):
        raise EmptyRun(f"no signature in {cfg.signatures} fits a dimension in {list(cfg.dims)}")
    rng_stream(cfg.seed, 0)  # the first stream a check may read: refuses a negative seed
    worst = {name: 0.0 for name in CHECKS if name in wanted}
    for n, sig in cfg.grid():
        for lo in range(0, cfg.samples, CHUNK):
            ctx = _Ctx(n, sig, cfg, lo)
            for name in worst:
                if lo == 0 or name not in FIRST_BLOCK:
                    worst[name] = max(worst[name], CHECKS[name](ctx))
    return {
        name: {"pass": bool(w <= cfg.tolerance), "worst_residual": w, "config": cfg.as_dict()}
        for name, w in worst.items()
    }
