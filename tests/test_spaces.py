from functools import partial

import numpy as np
import pytest

import curvdec.decomp as decomp
import curvdec.linalg as linalg
import curvdec.spaces as spaces
from curvdec.decomp import sigma_split, w_projections
from curvdec.errors import DimensionMismatch, NonFiniteInput, UnknownSpace
from curvdec.linalg import standard_scalar_product
from curvdec.spaces import (
    bianchi_project,
    conjugate,
    dot_product,
    membership,
    membership_residual,
    mu,
    psi,
    ricci_traces,
    wedge,
    wedge_r,
)


def wedge_oracle(h, k, r):
    """Direct loop evaluation of the product formula."""
    n = h.shape[0]
    out = np.zeros((n,) * 4)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    out[a, b, c, d] = (
                        h[a, c] * k[b, d]
                        - h[b, c] * k[a, d]
                        - r * (h[a, d] * k[b, c] - h[b, d] * k[a, c])
                    )
    return out


def rsample(n, seed):
    rng = np.random.default_rng(seed)
    t = bianchi_project(rng.uniform(-1, 1, (n,) * 4))
    return t / np.max(np.abs(t))


def test_wedge_one_is_twice_plain_wedge_on_g():
    g = np.eye(3)
    assert np.array_equal(wedge_r(g, g, 1), 2 * wedge_r(g, g, 0))
    # derived termwise via the oracle
    assert np.array_equal(wedge_oracle(g, g, 1), 2 * wedge_oracle(g, g, 0))


def test_wedge_zero_input():
    z = np.zeros((3, 3))
    assert np.array_equal(wedge_r(z, z, 0), np.zeros((3,) * 4))


def test_wedge_entry_value():
    g = np.eye(3)
    w = wedge_r(g, g, 0)
    assert w[0, 1, 0, 1] == 1.0  # g00*g11 - g10*g01
    assert np.array_equal(w, wedge_oracle(g, g, 0))


def test_wedge_matches_oracle_random():
    rng = np.random.default_rng(2)
    h = rng.uniform(-1, 1, (3, 3))
    k = rng.uniform(-1, 1, (3, 3))
    for r in (-1.0, 0.0, 1.0, 3.0, 2.0):
        assert np.allclose(wedge_r(h, k, r), wedge_oracle(h, k, r), atol=1e-15)


def test_dot_product_values():
    g = np.eye(3)
    d = dot_product(g, g)
    assert d[0, 0, 1, 1] == 1.0
    assert d[0, 1, 0, 1] == 0.0
    assert np.array_equal(dot_product(np.zeros((3, 3)), g), np.zeros((3,) * 4))


def test_dot_product_not_commutative():
    rng = np.random.default_rng(3)
    for _ in range(5):
        h = rng.uniform(-1, 1, (3, 3))
        k = rng.uniform(-1, 1, (3, 3))
        if np.max(np.abs(dot_product(h, k) - dot_product(k, h))) > 1e-6:
            return
    raise AssertionError("no counterexample found for dot-product asymmetry")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_products_refuse_non_finite_forms(monkeypatch):
    # a NaN or infinite entry of either form, or a non-finite r, is refused before any
    # product is taken: no warning, and no tensor of NaN
    eye = np.eye(3)
    for bad in (np.nan, np.inf, -np.inf):
        form = np.full((3, 3), bad)
        for product in (wedge, dot_product, lambda h, k: wedge_r(h, k, 1.0)):
            for h, k in ((form, eye), (eye, form)):
                with pytest.raises(NonFiniteInput):
                    product(h, k)
        with pytest.raises(NonFiniteInput):
            wedge_r(eye, eye, bad)
    # the package's own products call the kernels, which take no finiteness pass
    calls = []
    monkeypatch.setattr(spaces, "_finite", lambda *x: calls.append(x))
    w_projections(rsample(3, 1), standard_scalar_product(2, 1))
    assert calls == []


def test_forms_from_outside_pass_one_gate(monkeypatch):
    # the package's own products build their forms from one g and check no shape; the
    # public products and sigma_split pass their forms through `_finite`, which refuses
    # forms of two n and names the operand that is not finite
    calls, real = [], linalg.check_same_dim
    for module in (linalg, spaces, decomp):
        monkeypatch.setattr(module, "check_same_dim", lambda *x: calls.append(x) or real(*x),
                            raising=False)
    g = standard_scalar_product(2, 1)
    w_projections(rsample(3, 1), g)
    assert calls == []
    zero, bad = np.zeros((3, 3)), np.full((3, 3), np.nan)
    for product, (first, second) in ((wedge, "hk"), (dot_product, "hk"),
                                     (partial(wedge_r, r=1.0), "hk"),
                                     (partial(sigma_split, g=g), ("omega", "theta"))):
        with pytest.raises(DimensionMismatch):
            product(zero, np.zeros((4, 4)))
        with pytest.raises(NonFiniteInput, match=f"^{first} has"):
            product(bad, zero)
        with pytest.raises(NonFiniteInput, match=f"^{second} has"):
            product(zero, bad)
    assert len(calls) == 12  # every form from outside passed the one check


def test_conjugate_fixes_algebraic_and_negates_symmetric():
    g = standard_scalar_product(3, 0)
    a = psi(rsample(3, 1))
    assert np.allclose(conjugate(a), a, atol=1e-15)
    s = mu(rsample(3, 2))
    assert np.allclose(conjugate(s), -s, atol=1e-15)
    assert np.array_equal(conjugate(np.zeros((3,) * 4)), np.zeros((3,) * 4))


def test_conjugate_is_exact_involution():
    t = rsample(4, 3)
    assert np.array_equal(conjugate(conjugate(t)), t)


def ricci_oracle(t, ginv):
    n = t.shape[0]
    ric = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            for i in range(n):
                for j in range(n):
                    ric[a, b] += ginv[i, j] * t[i, a, b, j]
    return ric


def test_ricci_of_wedge_square():
    # brute-force contraction: ric = ric* = (1-n) g, tau = -n(n-1)
    g = standard_scalar_product(3, 0)
    gg = wedge(g.matrix, g.matrix)
    rep = ricci_traces(gg, g)
    assert np.allclose(ricci_oracle(gg, g.inverse), -2.0 * g.matrix, atol=1e-15)
    assert np.allclose(rep.ric, -2.0 * g.matrix, atol=1e-15)
    assert np.allclose(rep.ric_star, -2.0 * g.matrix, atol=1e-15)
    assert rep.tau == pytest.approx(-6.0, abs=1e-12)


def test_ricci_traces_zero():
    g = standard_scalar_product(3, 0)
    rep = ricci_traces(np.zeros((3,) * 4), g)
    for field in (rep.rho13, rep.rho14, rep.rho23, rep.rho24, rep.rho34):
        assert np.array_equal(field, np.zeros((3, 3)))
    assert rep.tau == 0.0


def test_trace_identities_on_generalized_tensors():
    for sig in ((3, 0), (2, 1)):
        g = standard_scalar_product(*sig)
        t = rsample(3, 17)
        rep = ricci_traces(t, g)
        assert np.allclose(rep.rho24, -rep.rho14, atol=1e-14)
        assert np.allclose(rep.rho23, -rep.rho13, atol=1e-14)
        assert float(np.sum(g.inverse * rep.ric)) == pytest.approx(rep.tau, rel=1e-12)
        assert float(np.sum(g.inverse * rep.ric_star)) == pytest.approx(rep.tau, rel=1e-12)


def test_membership_of_wedge_square():
    g = standard_scalar_product(3, 0)
    gg = wedge(g.matrix, g.matrix)
    for space in ("a", "f", "r", "co"):
        flag, res = membership(gg, g, space)
        assert flag and res <= 1e-12
    flag, _ = membership(gg, g, "p")
    assert not flag


def test_membership_zero_everywhere():
    g = standard_scalar_product(2, 1)
    zero = np.zeros((3,) * 4)
    for space in ("co", "r", "a", "s", "f", "p", "t"):
        flag, res = membership(zero, g, space)
        assert flag and res == 0.0


def test_membership_unknown_space():
    g = standard_scalar_product(3, 0)
    with pytest.raises(UnknownSpace):
        membership(np.zeros((3,) * 4), g, "q")
    with pytest.raises(UnknownSpace):
        membership_residual(np.zeros((3,) * 4), g, "bogus")


def test_psi_mu_idempotent_and_typed():
    g = standard_scalar_product(3, 0)
    r = rsample(3, 5)
    p, m = psi(r), mu(r)
    assert membership_residual(p, g, "a") <= 1e-14
    assert membership_residual(m, g, "s") <= 1e-14
    assert np.allclose(psi(p), p, atol=1e-14)
    assert np.allclose(mu(m), m, atol=1e-14)
    a = psi(r)
    assert np.allclose(psi(a), a, atol=1e-14)
    assert np.max(np.abs(mu(a))) <= 1e-14


def test_psi_mu_conjugate_halves():
    r = rsample(4, 6)
    s = psi(r) + mu(r)
    cs = conjugate(s)
    assert np.allclose(psi(s), 0.5 * (s + cs), atol=1e-14)
    assert np.allclose(mu(s), 0.5 * (s - cs), atol=1e-14)


def bianchi_oracle(t):
    n = t.shape[0]
    out = np.zeros_like(t)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    out[i, j, k, l] = t[i, j, k, l] + t[j, k, i, l] + t[k, i, j, l]
    return out


def test_bianchi_project_fixes_generalized_tensors():
    r = rsample(3, 7)
    assert np.allclose(bianchi_project(r), r, atol=1e-14)


def test_bianchi_project_kills_first_pair_symmetric():
    rng = np.random.default_rng(8)
    t = rng.uniform(-1, 1, (3,) * 4)
    sym_first = 0.5 * (t + np.swapaxes(t, 0, 1))
    assert np.max(np.abs(bianchi_project(sym_first))) <= 1e-15


def test_bianchi_project_output_satisfies_identities():
    rng = np.random.default_rng(9)
    t = rng.uniform(-1, 1, (3,) * 4)
    out = bianchi_project(t)
    assert np.max(np.abs(bianchi_oracle(out))) <= 1e-12
    assert np.max(np.abs(out + np.swapaxes(out, 0, 1))) <= 1e-12
    assert np.allclose(bianchi_project(out), out, atol=1e-14)


def test_membership_residual_scales_out():
    g = standard_scalar_product(3, 0)
    r = rsample(3, 10)
    assert membership_residual(1e6 * r, g, "r") == pytest.approx(
        membership_residual(r, g, "r"), rel=1e-6
    )
