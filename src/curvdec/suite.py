"""Runnable invariant suite: every structural law as a named, seeded check.

Each check walks the configured (dimension, signature) grid, draws its own
deterministic samples (stream key = crc32 of the check name plus the sample
index), and reports the worst residual it saw.  Verdict-style assertions
(two quantities must vanish together, engineered negatives must stay
distinctly nonzero) contribute 1.0 to the residual when violated.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

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
from .errors import EmptyRun
from .linalg import _maxnorm, antisym, standard_scalar_product, sym, tensor_pairing
from .sampling import _stack, dim_a, dim_f, dim_p, dim_r, numerical_rank, rng_stream, sample
from .spaces import (
    conjugate,
    membership,
    membership_residual,
    mu,
    psi,
    ricci,
    ricci_star,
    ricci_traces,
    scalar_curvature,
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
    """Per-(check, dimension, signature) sampling context."""

    def __init__(self, check: str, n: int, sig, cfg: SuiteConfig):
        self.n = n
        self.sig = sig
        self.g = standard_scalar_product(*sig)
        self.k = cfg.samples
        self.tol = cfg.tolerance
        self.seed = cfg.seed
        self.key = zlib.crc32(check.encode())

    def sample(self, space: str, index: int) -> np.ndarray:
        return sample(space, self.n, self.sig, seed=self.seed, index=(self.key, index))

    def stack(self, space: str, count: int) -> np.ndarray:
        """The samples of indices 0 .. count-1, stacked."""
        return _stack(space, self.g, self.seed, [(self.key, i) for i in range(count)])

    def rng(self, index: int) -> np.random.Generator:
        return rng_stream(self.seed, (self.key, index))


def _l2(t):
    return float(np.sqrt(np.sum(np.square(t))))


def _rows(stack):
    """A stack as a row matrix, one flattened entry per row."""
    return stack.reshape(len(stack), -1)


def _verdict(ok: bool) -> float:
    return 0.0 if ok else 1.0


# ---------------------------------------------------------------------------
# check implementations; each returns its worst residual for one context


def _check_w_completeness(ctx):
    worst = 0.0
    for i in range(ctx.k):
        r = ctx.sample("r", i)
        worst = max(worst, _maxnorm(np.sum(w_projections(r, ctx.g), axis=0) - r))
    return worst


def _check_a_completeness(ctx):
    worst = 0.0
    for i in range(ctx.k):
        r = ctx.sample("r", i)
        worst = max(worst, _maxnorm(np.sum(a_projections(r, ctx.g), axis=0) - r))
    return worst


def _projector_checks(ctx, proj):
    worst = 0.0
    for i in range(min(ctx.k, 4)):
        comps = proj(ctx.sample("r", i), ctx.g)
        for j, c in enumerate(comps):
            again = proj(c, ctx.g)
            scale = max(1.0, _maxnorm(c))
            worst = max(worst, _maxnorm(again[j] - c) / scale)
            for m in range(8):
                if m != j:
                    worst = max(worst, _maxnorm(again[m]) / scale)
    return worst


def _check_w_idempotence(ctx):
    return _projector_checks(ctx, w_projections)


def _check_a_idempotence(ctx):
    return _projector_checks(ctx, a_projections)


def _orthogonality(ctx, proj):
    worst = 0.0
    for i in range(min(ctx.k, 6)):
        c1 = proj(ctx.sample("r", 2 * i), ctx.g)
        c2 = proj(ctx.sample("r", 2 * i + 1), ctx.g)
        for a in range(8):
            for b in range(8):
                na, nb = _l2(c1[a]), _l2(c2[b])
                if a == b or na < 1e-10 or nb < 1e-10:
                    continue
                worst = max(worst, abs(tensor_pairing(c1[a], c2[b], ctx.g)) / (na * nb))
    return worst


def _check_w_orthogonality(ctx):
    return _orthogonality(ctx, w_projections)


def _check_a_orthogonality(ctx):
    return _orthogonality(ctx, a_projections)


def _check_gram_positivity(ctx):
    # full positive definiteness asserted only for definite signature
    if ctx.sig[1] != 0:
        return 0.0
    worst = 0.0
    for i in range(min(ctx.k, 6)):
        r = ctx.sample("r", i)
        for comps in (w_projections(r, ctx.g), a_projections(r, ctx.g)):
            for c in comps:
                if _maxnorm(c) > 1e-8:
                    worst = max(worst, _verdict(tensor_pairing(c, c, ctx.g) > 0.0))
    return worst


def _check_wa_map_coincidences(ctx):
    worst = 0.0
    for i in range(ctx.k):
        r = ctx.sample("r", i)
        w = w_projections(r, ctx.g)
        a = a_projections(r, ctx.g)
        worst = max(
            worst,
            _maxnorm(w[0] - a[0]),
            _maxnorm(w[5] - a[5]),
            _maxnorm(w[6] - a[6]),
            _maxnorm(w[7] - a[7]),
            _maxnorm(w[1] + w[4] - a[1] - a[2]),
            _maxnorm(w[2] + w[3] - a[3] - a[4]),
        )
    return worst


def _check_w_trace_formulas(ctx):
    g, n = ctx.g, ctx.n
    gm = g.matrix
    worst = 0.0
    for i in range(ctx.k):
        r = ctx.sample("r", i)
        ric, star = ricci(r, g), ricci_star(r, g)
        tau = scalar_curvature(r, g)
        w = w_projections(r, g)
        exp_ric = [
            (tau / n) * gm,
            -(tau / n) * gm + sym(ric),
            antisym(ric),
        ] + [np.zeros((n, n))] * 5
        exp_star = [
            (tau / n) * gm,
            ((tau / n) * gm - sym(ric)) / (n - 1),
            (-3.0 / (n + 1)) * antisym(ric),
            antisym(star + (3.0 / (n + 1)) * ric),
            -(tau / (n - 1)) * gm + sym(ric / (n - 1) + star),
        ] + [np.zeros((n, n))] * 3
        for j in range(8):
            worst = max(worst, _maxnorm(ricci(w[j], g) - exp_ric[j]))
            worst = max(worst, _maxnorm(ricci_star(w[j], g) - exp_star[j]))
            if j >= 1:
                worst = max(worst, abs(scalar_curvature(w[j], g)))
    return worst


def _check_a_trace_formulas(ctx):
    g, n = ctx.g, ctx.n
    gm = g.matrix
    worst = 0.0
    star_factor = [1.0, 1.0, -1.0, -1.0, 3.0, 0.0, 0.0, 0.0]
    for i in range(ctx.k):
        r = ctx.sample("r", i)
        ric, star = ricci(r, g), ricci_star(r, g)
        tau = scalar_curvature(r, g)
        a = a_projections(r, g)
        exp_ric = [
            (tau / n) * gm,
            -(tau / n) * gm + 0.5 * sym(ric + star),
            0.5 * sym(ric - star),
            0.25 * antisym(3.0 * ric - star),
            0.25 * antisym(ric + star),
        ] + [np.zeros((n, n))] * 3
        for j in range(8):
            rj = ricci(a[j], g)
            worst = max(worst, _maxnorm(rj - exp_ric[j]))
            worst = max(worst, _maxnorm(ricci_star(a[j], g) - star_factor[j] * rj))
            if j >= 1:
                worst = max(worst, abs(scalar_curvature(a[j], g)))
    return worst


def _w_conditions(ric, star, tau, g, n):
    return [
        abs(tau),
        _maxnorm(sym(ric) - (tau / n) * g.matrix),
        _maxnorm(antisym(ric)),
        _maxnorm(antisym(star + (3.0 / (n + 1)) * ric)),
        _maxnorm(sym(ric / (n - 1) + star) - (tau / (n - 1)) * g.matrix),
    ]


def _a_conditions(ric, star, tau, g, n):
    # the second criterion carries a symmetrization: the projector formula
    # only sees sym(ric + star), so only that part can be forced to vanish
    return [
        abs(tau),
        _maxnorm(sym(ric + star) - (2.0 * tau / n) * g.matrix),
        _maxnorm(sym(ric - star)),
        _maxnorm(antisym(3.0 * ric - star)),
        _maxnorm(antisym(ric + star)),
    ]


def _vanishing(ctx, proj, conditions):
    g, n = ctx.g, ctx.n
    worst = 0.0
    for i in range(min(ctx.k, 8)):
        r = ctx.sample("r", i)
        comps = proj(r, g)
        conds = conditions(ricci(r, g), ricci_star(r, g), scalar_curvature(r, g), g, n)
        for j in range(5):
            # forward: removing the component enforces its trace condition
            stripped = r - comps[j]
            tr = ricci_traces(stripped, g)
            cond = conditions(tr.ric, tr.ric_star, tr.tau, g, n)[j]
            worst = max(worst, cond, _maxnorm(proj(stripped, g)[j]))
            # converse: a distinctly nonzero component needs a nonzero condition
            if _maxnorm(comps[j]) > MARGIN:
                worst = max(worst, _verdict(conds[j] > 10 * ctx.tol))
    return worst


def _check_w_vanishing_criteria(ctx):
    return _vanishing(ctx, w_projections, _w_conditions)


def _check_a_vanishing_criteria(ctx):
    return _vanishing(ctx, a_projections, _a_conditions)


def _check_conjugate_closure(ctx):
    # membership of the conjugate in r(V), the component criterion, and the
    # complement all vanish together
    g = ctx.g
    worst = 0.0
    for i in range(ctx.k):
        s = ctx.sample("a_plus_s", i)
        worst = max(worst, membership_residual(conjugate(s), g, "r"))
        comps = a_projections(s, g)
        worst = max(worst, _maxnorm(comps[4]), _maxnorm(comps[7]))
        r = ctx.sample("r", i)
        c = r - psi(r) - mu(r)
        m = _maxnorm(c)
        if m > 1e-8:
            c = c / m
            worst = max(worst, _verdict(membership_residual(conjugate(c), g, "r") > 1e-3))
            comps_c = a_projections(c, g)
            worst = max(worst, _verdict(max(_maxnorm(comps_c[4]), _maxnorm(comps_c[7])) > 1e-3))
    return worst


def _check_conjugate_split(ctx):
    worst = 0.0
    for i in range(ctx.k):
        s = ctx.sample("a_plus_s", i)
        cs = conjugate(s)
        worst = max(worst, _maxnorm(psi(s) - 0.5 * (s + cs)), _maxnorm(mu(s) - 0.5 * (s - cs)))
    return worst


def _check_a_conjugation_signs(ctx):
    g = ctx.g
    signs = {0: 1.0, 1: 1.0, 2: -1.0, 3: -1.0, 5: 1.0, 6: -1.0}
    worst = 0.0
    for i in range(ctx.k):
        s = ctx.sample("a_plus_s", i)
        comps = a_projections(s, g)
        comps_star = a_projections(conjugate(s), g)
        for j, sign in signs.items():
            worst = max(worst, _maxnorm(comps_star[j] - sign * comps[j]))
        # components of the conjugate coincide with conjugated components
        for j in (0, 1, 2, 5):
            worst = max(worst, _maxnorm(comps_star[j] - conjugate(comps[j])))
        worst = max(worst, _maxnorm(comps_star[4]), _maxnorm(comps_star[7]))
        worst = max(worst, _maxnorm(comps[4]), _maxnorm(comps[7]))
    return worst


def _check_equiaffine_pair_projections(ctx):
    g, n = ctx.g, ctx.n
    gm = g.matrix
    worst = 0.0
    for i in range(ctx.k):
        s = ctx.sample("f_pair", i)
        cs = conjugate(s)
        w = w_projections(s, g)
        ws = w_projections(cs, g)
        ric = ricci(s, g)
        star = ricci_star(s, g)
        tau = scalar_curvature(s, g)
        worst = max(worst, membership_residual(cs, g, "r"))
        worst = max(worst, _maxnorm(w[2]), _maxnorm(w[3]), _maxnorm(w[7]))
        worst = max(worst, _maxnorm(ws[2]), _maxnorm(ws[3]), _maxnorm(ws[7]))
        worst = max(worst, _maxnorm(ws[0] - w[0]), _maxnorm(ws[5] - w[5]), _maxnorm(ws[6] + w[6]))
        worst = max(worst, _maxnorm(w[1] - wedge((tau / n) * gm - ric, gm) / (n - 1)))
        expected5 = (
            tau * wedge(gm, gm) - wedge_r(ric + (n - 1) * star, gm, n - 1) / n
        ) / ((n - 1) * (n - 2))
        worst = max(worst, _maxnorm(w[4] - expected5))
        worst = max(worst, _maxnorm(projective_part(s, g) - w[4] - w[5] - w[6]))
    return worst


def _check_ricci_symmetry_equivalence(ctx):
    g = ctx.g
    worst = 0.0
    for i in range(ctx.k):
        s = ctx.sample("a_plus_s", i)
        cs = conjugate(s)
        worst = max(worst, _maxnorm(w_projections(s, g)[7]), _maxnorm(w_projections(cs, g)[7]))
        lr = antisym(ricci(s, g))
        lrs = antisym(ricci(cs, g))
        worst = max(worst, _maxnorm(lr + lrs))
        sym_s = _maxnorm(lr) <= 100 * ctx.tol
        sym_cs = _maxnorm(lrs) <= 100 * ctx.tol
        worst = max(worst, _verdict(sym_s == sym_cs))
        p = ctx.sample("f_pair", i)
        worst = max(
            worst, _maxnorm(antisym(ricci(p, g))), _maxnorm(antisym(ricci(conjugate(p), g)))
        )
    return worst


def _check_conjugate_pair_reduction(ctx):
    # the five-component reduction needs the Ricci-symmetric conjugate-pair
    # class; on all of a+s the antisymmetric-Ricci components survive
    g = ctx.g
    worst = 0.0
    for i in range(ctx.k):
        s = ctx.sample("f_pair", i)
        w = w_projections(s, g)
        worst = max(worst, _maxnorm(s - w[0] - w[1] - w[4] - w[5] - w[6]))
        worst = max(worst, _maxnorm(w[2]), _maxnorm(w[3]), _maxnorm(w[7]))
    return worst


def _check_complement_ricci_structure(ctx):
    g = ctx.g
    worst = 0.0
    for i in range(ctx.k):
        r = ctx.sample("r", i)
        c = r - psi(r) - mu(r)
        m = _maxnorm(c)
        if m <= 1e-8:
            continue
        c = c / m
        ric = ricci(c, g)
        if _maxnorm(ric) <= 100 * ctx.tol:
            continue
        worst = max(worst, _maxnorm(sym(ric)), _maxnorm(ricci_star(c, g) - 3.0 * ric))
    return worst


def _check_traceless_core(ctx):
    g = ctx.g
    worst = 0.0
    for i in range(ctx.k):
        r = ctx.sample("r", i)
        core = traceless_core(r, g)
        w = w_projections(r, g)
        worst = max(worst, _maxnorm(ricci(core, g)), _maxnorm(ricci_star(core, g)))
        worst = max(worst, _maxnorm(core - (r - w[0] - w[1] - w[2] - w[3] - w[4])))
        ps, m = psi(core), mu(core)
        worst = max(worst, _maxnorm(w[5] - ps), _maxnorm(w[6] - m))
        worst = max(worst, _maxnorm(w[7] - (core - ps - m)))
        t = ctx.sample("t", i)
        worst = max(worst, _maxnorm(traceless_core(t, g) - t))
    return worst


def _check_projective_part(ctx):
    g, n = ctx.g, ctx.n
    worst = 0.0
    gg = wedge(g.matrix, g.matrix)
    worst = max(worst, _maxnorm(projective_part(gg, g)))
    for i in range(ctx.k):
        f = ctx.sample("f", i)
        direct = projective_part(f, g)
        worst = max(worst, _maxnorm(direct - (f + wedge(ricci(f, g), g.matrix) / (n - 1))))
        t = ctx.sample("t", i)
        worst = max(worst, _maxnorm(projective_part(t, g) - t))
        r = ctx.sample("r", i)
        w = w_projections(r, g)
        worst = max(worst, _maxnorm(projective_part(r, g) - (w[3] + w[4] + w[5] + w[6] + w[7])))
    return worst


def _check_projective_flat_bilinear_form(ctx):
    g = ctx.g
    gg = wedge(g.matrix, g.matrix)
    b_star, b = b_forms(gg, g)
    worst = max(_maxnorm(b_star), _maxnorm(b))
    for i in range(ctx.k):
        r = ctx.sample("r", i)
        w = w_projections(r, g)
        flat_type = w[0] + w[1]
        m = _maxnorm(flat_type)
        if m <= 1e-8:
            continue
        paired = conjugate(flat_type / m)
        b_star, _ = b_forms(paired, g)
        worst = max(worst, _maxnorm(b_star))
    return worst


def _check_einstein_projector_criterion(ctx):
    g, n = ctx.g, ctx.n
    worst = 0.0
    gg = wedge(g.matrix, g.matrix)
    worst = max(worst, _verdict(equiaffine_einstein_check(gg, g)))
    worst = max(worst, _verdict(equiaffine_einstein_check(np.zeros((n,) * 4), g)))
    for i in range(ctx.k):
        r = ctx.sample("r", i)
        w = w_projections(r, g)
        pos = r - w[1] - w[2]
        tr = ricci_traces(pos, g)
        worst = max(worst, _maxnorm(tr.ric - (tr.tau / n) * g.matrix))
        worst = max(worst, _verdict(equiaffine_einstein_check(pos, g)))
        if max(_maxnorm(w[1]), _maxnorm(w[2])) > MARGIN:
            tr = ricci_traces(r, g)
            worst = max(worst, _verdict(not equiaffine_einstein_check(r, g)))
            worst = max(
                worst, _verdict(_maxnorm(tr.ric - (tr.tau / n) * g.matrix) > 10 * ctx.tol)
            )
    return worst


def _check_constant_curvature_equivalences(ctx):
    g, n = ctx.g, ctx.n
    gg = wedge(g.matrix, g.matrix)
    worst = 0.0
    for i in range(ctx.k):
        r = ctx.sample("r", i)
        w = w_projections(r, g)
        pos = w[0] + w[1] - w_projections(w[0] + w[1], g)[1]  # flat-type, then drop 2
        tau = scalar_curvature(pos, g)
        worst = max(worst, _maxnorm(w_projections(pos, g)[1]))
        worst = max(worst, _maxnorm(ricci(pos, g) - (tau / n) * g.matrix))
        worst = max(worst, _maxnorm(pos + (tau / (n * (n - 1))) * gg))
        neg = w[0] + w[1]
        if _maxnorm(w[1]) > MARGIN:
            tau_n = scalar_curvature(neg, g)
            worst = max(worst, _verdict(_maxnorm(w_projections(neg, g)[1]) > 10 * ctx.tol))
            worst = max(
                worst,
                _verdict(_maxnorm(ricci(neg, g) - (tau_n / n) * g.matrix) > 10 * ctx.tol),
            )
            worst = max(
                worst,
                _verdict(_maxnorm(neg + (tau_n / (n * (n - 1))) * gg) > 10 * ctx.tol),
            )
    return worst


def _check_ricci_block_closed_form(ctx):
    g, n = ctx.g, ctx.n
    gm = g.matrix
    worst = 0.0
    for i in range(ctx.k):
        s = ctx.sample("f_pair", i)
        w = w_projections(s, g)
        a = a_projections(s, g)
        ric = ricci(s, g)
        star = ricci_star(s, g)
        tau = scalar_curvature(s, g)
        rhs = (
            2.0 * tau * wedge(gm, gm)
            - wedge_r(gm, ric, n - 1)
            - wedge_r(star, gm, n - 1)
        ) / (n * (n - 2))
        worst = max(worst, _maxnorm(w[1] + w[4] - rhs), _maxnorm(a[1] + a[2] - rhs))
    return worst


def _check_equiaffine_projector_agreement(ctx):
    g = ctx.g
    worst = 0.0
    for i in range(ctx.k):
        s = ctx.sample("f_pair", i)
        w = w_projections(s, g)
        a = a_projections(s, g)
        via_w = s - w[2]
        via_a = s - a[3] - a[4]
        worst = max(worst, _maxnorm(via_w - via_a), _maxnorm(via_w - s))
    return worst


def _check_projective_conjugate_equivalence(ctx):
    # the Ricci-free parts of a tensor and its conjugate coincide exactly
    # when the two coincide, i.e. when the tensor is of metric type
    g = ctx.g
    worst = 0.0
    for i in range(min(ctx.k, 8)):
        a = ctx.sample("a", i)
        worst = max(worst, _maxnorm(projective_part(conjugate(a), g) - projective_part(a, g)))
        p = ctx.sample("f_pair", i)
        cp = conjugate(p)
        if _maxnorm(p - cp) > MARGIN:
            pdiff = _maxnorm(projective_part(p, g) - projective_part(cp, g))
            worst = max(worst, _verdict(pdiff > 10 * ctx.tol))
            worst = max(worst, _verdict(membership_residual(p, g, "a") > 10 * ctx.tol))
    return worst


def _check_trace_reconstruction(ctx):
    g, n = ctx.g, ctx.n
    worst = 0.0
    for i in range(min(ctx.k, 8)):
        rng = ctx.rng(512 + i)
        omega = antisym(rng.uniform(-1, 1, (n, n)))
        theta = sym(rng.uniform(-1, 1, (n, n)))
        built = sigma_split(omega, theta, g)
        worst = max(worst, _maxnorm(ricci(built, g) - omega - theta))
        worst = max(worst, membership_residual(built, g, "r"))
        only_omega = sigma_split(omega, np.zeros((n, n)), g)
        worst = max(worst, _maxnorm(ricci(only_omega, g) - omega))
        only_theta = sigma_split(np.zeros((n, n)), theta, g)
        worst = max(worst, _maxnorm(ricci(only_theta, g) - theta))
    return worst


def _check_singer_thorpe(ctx):
    g, n = ctx.g, ctx.n
    gm = g.matrix
    gg = wedge(gm, gm)
    worst = 0.0
    for i in range(ctx.k):
        a = ctx.sample("a", i)
        res = singer_thorpe(a, g)
        u, z, w = res.components
        worst = max(worst, res.completeness_residual)
        # u is a multiple of g^g
        c = tensor_pairing(u, gg, g) / tensor_pairing(gg, gg, g)
        worst = max(worst, _maxnorm(u - c * gg))
        # z is recovered from its own traceless symmetric Ricci source
        xi = ricci(z, g) / (n - 2)
        worst = max(worst, _maxnorm(z + wedge_r(xi, gm, 1)))
        worst = max(worst, _maxnorm(antisym(xi)), abs(float(np.sum(g.inverse * xi))))
        worst = max(worst, _maxnorm(ricci(w, g)), _maxnorm(ricci_star(w, g)))
        for part in (u, z, w):
            if _maxnorm(part) > 1e-10:
                worst = max(worst, membership_residual(part, g, "a"))
    return worst


def _check_rescale_invariance(ctx):
    g = ctx.g
    worst = 0.0
    for c in (0.5, 3.75):
        gc = g.rescaled(c)
        for i in range(min(ctx.k, 6)):
            r = ctx.sample("r", i)
            w1, w2 = w_projections(r, g), w_projections(r, gc)
            a1, a2 = a_projections(r, g), a_projections(r, gc)
            for j in range(8):
                worst = max(worst, _maxnorm(w1[j] - w2[j]), _maxnorm(a1[j] - a2[j]))
            for space in ("co", "r", "a", "s", "f", "p", "t"):
                f1, _ = membership(r, g, space, tol=max(ctx.tol, 1e-12))
                f2, _ = membership(r, gc, space, tol=max(ctx.tol, 1e-12))
                worst = max(worst, _verdict(f1 == f2))
            p1 = tensor_pairing(r, r, g)
            p2 = tensor_pairing(r, r, gc)
            worst = max(worst, abs(p2 - p1 / c**4) / max(1.0, abs(p1)))
    return worst


def _check_dimension_consistency(ctx):
    g, n = ctx.g, ctx.n
    r = ctx.stack("r", 2 * dim_r(n))
    w = w_projections(r, g)
    a = a_projections(r, g)
    worst = 0.0
    for stack, expected in (
        (r, dim_r(n)),
        (psi(r), dim_a(n)),
        (r - w[2], dim_f(n)),
        (r - w[0] - w[1] - w[2], dim_p(n)),
    ):
        rank, gap = numerical_rank(_rows(stack), floor=1e-10)
        worst = max(worst, _verdict(rank == expected))
        worst = max(worst, _verdict(gap is not None and gap >= 1e6))
    wdims, adims = [], []
    for j in range(8):
        rank_w, gap_w = numerical_rank(_rows(w[j]), floor=1e-10)
        rank_a, gap_a = numerical_rank(_rows(a[j]), floor=1e-10)
        for rank, gap in ((rank_w, gap_w), (rank_a, gap_a)):
            if rank > 0:
                worst = max(worst, _verdict(gap is not None and gap >= 1e6))
        wdims.append(rank_w)
        adims.append(rank_a)
    worst = max(worst, _verdict(sum(wdims) == dim_r(n)))
    worst = max(worst, _verdict(sum(adims) == dim_r(n)))
    # multiplicity-two blocks share their dimension across the two families
    worst = max(worst, _verdict(wdims[1] == wdims[4] == adims[1] == adims[2]))
    worst = max(worst, _verdict(wdims[2] == wdims[3] == adims[3] == adims[4]))
    worst = max(worst, _verdict(wdims[0] == adims[0] == 1))
    return worst


def _check_ricci_image_dimensions(ctx):
    g, n = ctx.g, ctx.n
    ric = ricci(ctx.stack("r", 2 * n * (n + 1) + 8), g)
    rank_l, gap_l = numerical_rank(_rows(antisym(ric)))
    rank_s, gap_s = numerical_rank(_rows(sym(ric)))
    worst = _verdict(rank_l == n * (n - 1) // 2)
    worst = max(worst, _verdict(rank_s == n * (n + 1) // 2))
    worst = max(worst, _verdict(gap_l is not None and gap_l >= 1e6))
    worst = max(worst, _verdict(gap_s is not None and gap_s >= 1e6))
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
    for i in range(min(ctx.k, 8)):
        a = ctx.sample("a", i)
        worst = max(worst, _maxnorm(conjugate(a) - a))
        s = ctx.sample("s", i)
        worst = max(worst, _maxnorm(conjugate(s) + s))
        co = ctx.sample("co", i)
        worst = max(worst, membership_residual(co, g, "co"))
        worst = max(worst, _verdict(membership_residual(co, g, "r") > 1e-3))
        for space, src in (("r", "r"), ("f", "f"), ("p", "p"), ("t", "t")):
            worst = max(worst, membership_residual(ctx.sample(src, i), g, space))
    return worst


def _check_conjugation_involution(ctx):
    worst = 0.0
    for i in range(min(ctx.k, 8)):
        r = ctx.sample("r", i)
        worst = max(worst, _maxnorm(conjugate(conjugate(r)) - r))
    return worst


def _check_ricci_conjugate_trace(ctx):
    g = ctx.g
    worst = 0.0
    for i in range(ctx.k):
        t = ctx.sample("co", i)
        rep = ricci_traces(t, g)
        worst = max(worst, _maxnorm(rep.ric_star - ricci(conjugate(t), g)))
        worst = max(worst, _maxnorm(rep.rho23 + rep.rho13))
        worst = max(worst, _maxnorm(rep.rho24 + rep.rho14))
        worst = max(worst, abs(float(np.sum(g.inverse * rep.ric)) - rep.tau))
        worst = max(worst, abs(float(np.sum(g.inverse * rep.ric_star)) - rep.tau))
    return worst


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


def run_invariant_suite(config: SuiteConfig | None = None, only=None) -> dict:
    """Run the named checks over the configured grid.

    Returns the report as a map check-name -> {pass, worst_residual, config};
    a failure is data, not an exception.  `only` restricts to the given check
    names.  Raises EmptyRun for fewer than one sample or an empty grid.
    """
    cfg = config or SuiteConfig()
    if cfg.samples < 1:
        raise EmptyRun(f"samples must be at least 1, got {cfg.samples}")
    if not any(cfg.grid()):
        raise EmptyRun(f"no signature in {cfg.signatures} fits a dimension in {list(cfg.dims)}")
    names = list(CHECKS) if only is None else [n for n in CHECKS if n in set(only)]
    report = {}
    for name in names:
        worst = 0.0
        for n, sig in cfg.grid():
            worst = max(worst, CHECKS[name](_Ctx(name, n, sig, cfg)))
        report[name] = {
            "pass": bool(worst <= cfg.tolerance),
            "worst_residual": worst,
            "config": cfg.as_dict(),
        }
    return report
