"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible with pytest -s or on failure);
tolerances are pinned here and nowhere else.
"""
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
from chart_helpers import fd_curvature, random_chart

from curvdec.charts import PolyChart, conjugate_triple_report, curvature_at
from curvdec.decomp import (
    a_projections,
    b_forms,
    equiaffine_einstein_check,
    projective_part,
    singer_thorpe,
    w_projections,
)
from curvdec.linalg import antisym, standard_scalar_product, sym, tensor_pairing
from curvdec.poly import Poly
from curvdec.sampling import dimension_reports, sample
from curvdec.spaces import (
    conjugate,
    membership_residual,
    mu,
    psi,
    ricci,
    ricci_star,
    scalar_curvature,
    wedge,
    wedge_r,
)

GRID = [(n, sig) for n in (3, 4, 5) for sig in ((n, 0), (n - 1, 1))]


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:2d} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {num:2d} ({name}): PASS")


def mx(t):
    return float(np.max(np.abs(t)))


def l2(t):
    return float(np.sqrt(np.sum(np.square(t))))


def test_criterion_01_dimension_reproduction():
    expected = {3: {"r": 24, "a": 6, "f": 21, "p": 15},
                4: {"r": 80, "a": 20, "f": 74, "p": 64}}
    with criterion(1, "dimension reproduction"):
        for n, table in expected.items():
            reports = dimension_reports(n, (n, 0), spaces=tuple(table))
            for space, dim in table.items():
                rep = reports[space]
                assert rep.empirical_dim == dim, (space, n, rep.empirical_dim)
                assert rep.formula_dim == dim
                assert not rep.inconclusive


def test_criterion_02_completeness_both_families():
    with criterion(2, "W- and A-completeness"):
        for n, sig in GRID:
            g = standard_scalar_product(*sig)
            for i in range(64):
                r = sample("r", n, sig, seed=0, index=i)
                for proj in (w_projections, a_projections):
                    total = np.sum(proj(r, g), axis=0)
                    assert mx(total - r) / mx(r) <= 1e-9


def test_criterion_03_orthogonality_and_idempotence():
    with criterion(3, "orthogonality and idempotence"):
        for n, sig in GRID:
            g = standard_scalar_product(*sig)
            for i in range(4):
                r1 = sample("r", n, sig, seed=1, index=2 * i)
                r2 = sample("r", n, sig, seed=1, index=2 * i + 1)
                for proj in (w_projections, a_projections):
                    c1, c2 = proj(r1, g), proj(r2, g)
                    for a in range(8):
                        again = proj(c1[a], g)
                        assert mx(again[a] - c1[a]) / max(1.0, mx(c1[a])) <= 1e-9
                        for b in range(8):
                            na, nb = l2(c1[a]), l2(c2[b])
                            if a == b or na < 1e-10 or nb < 1e-10:
                                continue
                            pairing = tensor_pairing(c1[a], c2[b], g)
                            assert abs(pairing) / (na * nb) <= 1e-8
                    if sig[1] == 0:
                        for a in range(8):
                            if l2(c1[a]) > 1e-8:
                                assert tensor_pairing(c1[a], c1[a], g) > 0.0


def test_criterion_04_map_identities():
    with criterion(4, "W/A map identities"):
        for n, sig in GRID:
            g = standard_scalar_product(*sig)
            for i in range(32):
                r = sample("r", n, sig, seed=2, index=i)
                w = w_projections(r, g)
                a = a_projections(r, g)
                assert mx(w[0] - a[0]) <= 1e-9
                assert mx(w[5] - a[5]) <= 1e-9
                assert mx(w[6] - a[6]) <= 1e-9
                assert mx(w[7] - a[7]) <= 1e-9
                assert mx(w[1] + w[4] - a[1] - a[2]) <= 1e-9
                assert mx(w[2] + w[3] - a[3] - a[4]) <= 1e-9


def test_criterion_05_component_trace_formulas():
    with criterion(5, "component trace formulas"):
        for n, sig in [(3, (3, 0)), (3, (2, 1)), (4, (4, 0)), (4, (3, 1))]:
            g = standard_scalar_product(*sig)
            gm = g.matrix
            for i in range(8):
                r = sample("r", n, sig, seed=3, index=i)
                ric, star = ricci(r, g), ricci_star(r, g)
                tau = scalar_curvature(r, g)
                w = w_projections(r, g)
                a = a_projections(r, g)
                zero = np.zeros((n, n))
                w_ric = [(tau / n) * gm, -(tau / n) * gm + sym(ric), antisym(ric),
                         zero, zero, zero, zero, zero]
                w_star = [(tau / n) * gm, ((tau / n) * gm - sym(ric)) / (n - 1),
                          (-3.0 / (n + 1)) * antisym(ric),
                          antisym(star + (3.0 / (n + 1)) * ric),
                          -(tau / (n - 1)) * gm + sym(ric / (n - 1) + star),
                          zero, zero, zero]
                a_ric = [(tau / n) * gm, -(tau / n) * gm + 0.5 * sym(ric + star),
                         0.5 * sym(ric - star), 0.25 * antisym(3 * ric - star),
                         0.25 * antisym(ric + star), zero, zero, zero]
                a_star_factor = [1.0, 1.0, -1.0, -1.0, 3.0, 0.0, 0.0, 0.0]
                for j in range(8):
                    assert mx(ricci(w[j], g) - w_ric[j]) <= 1e-9
                    assert mx(ricci_star(w[j], g) - w_star[j]) <= 1e-9
                    aj_ric = ricci(a[j], g)
                    assert mx(aj_ric - a_ric[j]) <= 1e-9
                    assert mx(ricci_star(a[j], g) - a_star_factor[j] * aj_ric) <= 1e-9
                    if j >= 1:
                        assert abs(scalar_curvature(w[j], g)) <= 1e-9
                        assert abs(scalar_curvature(a[j], g)) <= 1e-9


def test_criterion_06_conjugation_laws():
    with criterion(6, "conjugation laws"):
        for n, sig in [(3, (3, 0)), (3, (2, 1)), (4, (4, 0)), (4, (3, 1))]:
            g = standard_scalar_product(*sig)
            for i in range(16):
                s = sample("a_plus_s", n, sig, seed=4, index=i)
                cs = conjugate(s)
                # closure: conjugate of an a+s element is generalized again
                assert membership_residual(cs, g, "r") <= 1e-9
                # closure, converse direction: a distinctly non-a+s element
                # has a conjugate violating the closure residually
                r = sample("r", n, sig, seed=4, index=i)
                comp = r - psi(r) - mu(r)
                if mx(comp) > 1e-6:
                    comp /= mx(comp)
                    assert membership_residual(conjugate(comp), g, "r") > 1e-3
                # idempotent averages are the conjugate half-sums here
                assert mx(psi(s) - 0.5 * (s + cs)) <= 1e-9
                assert mx(mu(s) - 0.5 * (s - cs)) <= 1e-9
                # component-wise conjugation signs
                ca, cb = a_projections(s, g), a_projections(cs, g)
                for j, sign in ((0, 1), (1, 1), (2, -1), (3, -1), (5, 1), (6, -1)):
                    assert mx(cb[j] - sign * ca[j]) <= 1e-9
                assert mx(ca[4]) <= 1e-9 and mx(ca[7]) <= 1e-9
                assert mx(cb[4]) <= 1e-9 and mx(cb[7]) <= 1e-9
                # Ricci symmetry equivalence through conjugation
                lr, lrs = antisym(ricci(s, g)), antisym(ricci(cs, g))
                assert mx(lr + lrs) <= 1e-9
                # equiaffine conjugate pairs: vanishing and sign pattern of
                # the W-components
                p = sample("f_pair", n, sig, seed=5, index=i)
                cp = conjugate(p)
                wp, wcp = w_projections(p, g), w_projections(cp, g)
                assert mx(wp[2]) <= 1e-9 and mx(wp[3]) <= 1e-9 and mx(wp[7]) <= 1e-9
                assert mx(wcp[2]) <= 1e-9 and mx(wcp[3]) <= 1e-9 and mx(wcp[7]) <= 1e-9
                assert mx(wcp[0] - wp[0]) <= 1e-9
                assert mx(wcp[5] - wp[5]) <= 1e-9
                assert mx(wcp[6] + wp[6]) <= 1e-9
                assert mx(antisym(ricci(p, g))) <= 1e-9
                assert mx(antisym(ricci(cp, g))) <= 1e-9


def test_criterion_07_singer_thorpe():
    with criterion(7, "Singer-Thorpe consistency"):
        for n, sig in [(3, (3, 0)), (3, (2, 1)), (4, (4, 0)), (4, (3, 1))]:
            g = standard_scalar_product(*sig)
            gm = g.matrix
            gg = wedge(gm, gm)
            for i in range(32):
                a = sample("a", n, sig, seed=6, index=i)
                res = singer_thorpe(a, g)
                u, z, w = res.components
                assert mx(u + z + w - a) / mx(a) <= 1e-9
                coeff = tensor_pairing(u, gg, g) / tensor_pairing(gg, gg, g)
                assert mx(u - coeff * gg) <= 1e-9
                xi = ricci(z, g) / (n - 2)
                assert mx(z + wedge_r(xi, gm, 1)) <= 1e-9
                assert mx(antisym(xi)) <= 1e-9
                assert abs(float(np.sum(g.inverse * xi))) <= 1e-9
                assert mx(ricci(w, g)) <= 1e-9
        rep = dimension_reports(3, (3, 0), spaces=("W6",))["W6"]
        assert rep.empirical_dim == 0 and not rep.inconclusive


def test_criterion_08_projective_and_equiaffine():
    with criterion(8, "projective/equiaffine characterizations"):
        for n, sig in [(3, (3, 0)), (3, (2, 1)), (4, (4, 0)), (4, (3, 1))]:
            g = standard_scalar_product(*sig)
            gm = g.matrix
            gg = wedge(gm, gm)
            b_star, b = b_forms(gg, g)
            assert mx(b_star) <= 1e-9 and mx(b) <= 1e-9
            for i in range(32):
                # dual formula for the Ricci-free part on equiaffine tensors
                f = sample("f", n, sig, seed=7, index=i)
                direct = projective_part(f, g)
                closed = f + wedge(ricci(f, g), gm) / (n - 1)
                assert mx(direct - closed) <= 1e-9
                # projectively-flat-type conjugates have vanishing b_star
                r = sample("r", n, sig, seed=7, index=i)
                w = w_projections(r, g)
                flat_type = w[0] + w[1]
                flat_type /= mx(flat_type)
                bs, _ = b_forms(conjugate(flat_type), g)
                assert mx(bs) <= 1e-9
                # Einstein criterion: engineered positives and negatives agree
                # with the direct trace condition
                pos = r - w[1] - w[2]
                assert equiaffine_einstein_check(pos, g)
                ric = ricci(pos, g)
                tau = scalar_curvature(pos, g)
                assert mx(ric - (tau / n) * gm) <= 1e-9
                assert max(mx(w[1]), mx(w[2])) > 1e-4  # generic negative
                assert not equiaffine_einstein_check(r, g)
                ric = ricci(r, g)
                tau = scalar_curvature(r, g)
                assert mx(ric - (tau / n) * gm) > 1e-8


N3 = 3
ONE = Poly.constant(1.0, N3)
ZERO = Poly(N3)


def test_criterion_09_chart_identities():
    with criterion(9, "chart identities"):
        rng = np.random.default_rng(1000)
        structure_keys = [
            "curvature_vs_difference_tensor",
            "conjugate_curvature_vs_difference_tensor",
            "curvature_skew_difference",
            "curvature_sum_square_term",
            "parallel_cubic_symmetry",
        ]
        for _ in range(16):
            chart = random_chart(rng)
            for point in rng.uniform(-0.4, 0.4, (4, N3)):
                rep = conjugate_triple_report(chart, point)
                for key in structure_keys:
                    assert rep.identity_residuals[key] <= 1e-8, key
                assert rep.identity_residuals["scalar_deviation"] <= 1e-9
                assert rep.identity_residuals["conjugacy"] <= 1e-8
                assert rep.identity_residuals["curvature_sum_algebraic"] <= 1e-8
                assert rep.identity_residuals["cubic_trace_free"] <= 1e-8
        # flat metric with constant cubic: curvature is the pure square term
        cub = [[[ZERO] * N3 for _ in range(N3)] for _ in range(N3)]
        for idx in {(0, 0, 1), (0, 1, 0), (1, 0, 0)}:
            cub[idx[0]][idx[1]][idx[2]] = Poly.constant(1.0, N3)
        flat = [[ONE if i == j else ZERO for j in range(N3)] for i in range(N3)]
        chart = PolyChart(N3, flat, cub)
        point = [0.0, 0.0, 0.0]
        r = curvature_at(chart, point, "nabla")
        c = np.zeros((N3, N3, N3))
        for idx in {(0, 0, 1), (0, 1, 0), (1, 0, 0)}:
            c[idx] = 1.0
        sq = np.einsum("hjl,ihk->jkli", c, c) - np.einsum("hjk,ihl->jkli", c, c)
        expected = np.einsum("cabm,md->abcd", sq, np.eye(N3))
        assert mx(r - expected) <= 1e-12
        assert mx(curvature_at(chart, point, "levi_civita")) <= 1e-12
        # exact polynomial curvature against the finite-difference oracle
        chart = random_chart(np.random.default_rng(2000))
        point = [0.11, -0.23, 0.31]
        for which in ("levi_civita", "nabla", "nabla_star"):
            exact = curvature_at(chart, point, which)
            assert mx(exact - fd_curvature(chart, point, which)) <= 1e-7


def test_criterion_10_verify_determinism():
    with criterion(10, "verify determinism"):
        cmd = [
            sys.executable, "-m", "curvdec.cli", "verify",
            "--dim", "3", "--signature", "3,0",
            "--samples", "32", "--seed", "0", "--tol", "1e-9",
        ]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == 0, first.stderr.decode()
        assert second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"\n")
