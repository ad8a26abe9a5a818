from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvdec.decomp as decomp
import curvdec.spaces as spaces
from curvdec.decomp import (
    _Parts,
    a_decompose,
    a_projections,
    b_forms,
    equiaffine_einstein_check,
    projective_part,
    sigma_split,
    singer_thorpe,
    traceless_core,
    w_decompose,
    w_projections,
)
from curvdec.errors import (
    FormSymmetryViolation,
    NonFiniteInput,
    NotAlgebraic,
    NotGeneralizedCurvature,
)
from curvdec.linalg import (
    antisym,
    build_scalar_product,
    standard_scalar_product,
    sym,
    tensor_pairing,
)
from curvdec.spaces import (
    bianchi_project,
    conjugate,
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

GRID = [(3, (3, 0)), (3, (2, 1)), (4, (4, 0)), (4, (3, 1))]


def rsample(n, seed):
    rng = np.random.default_rng(seed)
    t = bianchi_project(rng.uniform(-1, 1, (n,) * 4))
    return t / np.max(np.abs(t))


@pytest.mark.parametrize("mode", ["w", "a"])
def test_wedge_square_concentrates_in_first_component(mode):
    g = standard_scalar_product(3, 0)
    gg = wedge(g.matrix, g.matrix)
    decompose = w_decompose if mode == "w" else a_decompose
    res = decompose(gg, g)
    assert np.allclose(res.components[0], gg, atol=1e-12)
    for c in res.components[1:]:
        assert np.max(np.abs(c)) <= 1e-12
    assert res.completeness_residual <= 1e-12


def test_zero_tensor_decomposes_to_zero():
    g = standard_scalar_product(3, 0)
    res = w_decompose(np.zeros((3,) * 4), g)
    assert all(np.max(np.abs(c)) == 0.0 for c in res.components)
    assert res.completeness_residual == 0.0


@pytest.mark.parametrize("n,sig", GRID)
def test_completeness_both_families(n, sig):
    g = standard_scalar_product(*sig)
    for seed in range(4):
        r = rsample(n, seed)
        for res in (w_decompose(r, g), a_decompose(r, g)):
            assert res.completeness_residual <= 1e-9
            total = np.sum(res.components, axis=0)
            assert np.allclose(total, r, atol=1e-12)


@pytest.mark.parametrize("n,sig", GRID)
def test_result_orthogonality_matrix(n, sig):
    g = standard_scalar_product(*sig)
    r = rsample(n, 13)
    for res in (w_decompose(r, g), a_decompose(r, g)):
        gram = res.orthogonality_matrix
        diag = np.abs(np.diag(gram))
        live = diag > 1e-12
        if live.sum() > 1:
            scale = np.exp(np.mean(np.log(diag[live])))
            off = gram - np.diag(np.diag(gram))
            assert np.max(np.abs(off)) <= 1e-8 * scale


def test_rejects_non_generalized_input():
    g = standard_scalar_product(3, 0)
    rng = np.random.default_rng(1)
    with pytest.raises(NotGeneralizedCurvature):
        w_decompose(rng.uniform(-1, 1, (3,) * 4), g)
    with pytest.raises(NotGeneralizedCurvature):
        a_decompose(rng.uniform(-1, 1, (3,) * 4), g)


def test_rejects_non_finite_input():
    # a NaN must be refused as such, not end in NaN components or a misleading
    # membership verdict
    g = standard_scalar_product(3, 0)
    for bad in (np.nan, np.inf, -np.inf):
        t = rsample(3, 2)
        t[0, 1, 0, 1] = bad
        for f in (w_decompose, singer_thorpe, w_projections, a_projections, traceless_core):
            with pytest.raises(NonFiniteInput, match=r"\(0, 1, 0, 1\)"):
                f(t, g)
        stack = np.stack([rsample(3, 1), t])
        with pytest.raises(NonFiniteInput, match=r"\(1, 0, 1, 0, 1\)"):
            w_projections(stack, g)
    with pytest.raises(NonFiniteInput):
        w_projections(np.full((3,) * 4, np.nan), g)


def test_alpha2_characterizes_traceless_ricci_block():
    # -Xi ^_1 g for traceless symmetric Xi lands entirely in the second
    # A-component
    g = standard_scalar_product(3, 0)
    rng = np.random.default_rng(21)
    xi = sym(rng.uniform(-1, 1, (3, 3)))
    xi -= (np.trace(xi) / 3.0) * np.eye(3)
    t = -wedge_r(xi, g.matrix, 1)
    res = a_decompose(t, g)
    assert np.allclose(res.components[1], t, atol=1e-12)
    for j, c in enumerate(res.components):
        if j != 1:
            assert np.max(np.abs(c)) <= 1e-12


def test_singer_thorpe_constant_curvature():
    g = standard_scalar_product(3, 0)
    gg = wedge(g.matrix, g.matrix)
    res = singer_thorpe(-2.5 * gg, g)
    u, z, w = res.components
    assert np.allclose(u, -2.5 * gg, atol=1e-12)
    assert np.max(np.abs(z)) <= 1e-12 and np.max(np.abs(w)) <= 1e-12


def test_singer_thorpe_ricci_flat_block_n4():
    g = standard_scalar_product(4, 0)
    a = psi(rsample(4, 2))
    weyl = w_projections(a, g)[5]
    assert np.max(np.abs(ricci(weyl, g))) <= 1e-12  # sampled Ricci-flat
    res = singer_thorpe(weyl, g)
    u, z, w = res.components
    assert np.max(np.abs(u)) <= 1e-12 and np.max(np.abs(z)) <= 1e-12
    assert np.allclose(w, weyl, atol=1e-12)


def test_singer_thorpe_zero_and_errors():
    g = standard_scalar_product(3, 0)
    res = singer_thorpe(np.zeros((3,) * 4), g)
    assert all(np.max(np.abs(c)) == 0.0 for c in res.components)
    with pytest.raises(NotAlgebraic):
        singer_thorpe(mu(rsample(3, 3)), g)


def test_projective_part_examples():
    g = standard_scalar_product(3, 0)
    gg = wedge(g.matrix, g.matrix)
    assert np.max(np.abs(projective_part(gg, g))) <= 1e-12
    t = traceless_core(rsample(3, 4), g)
    assert np.allclose(projective_part(t, g), t, atol=1e-12)


@pytest.mark.parametrize("n,sig", GRID)
def test_projective_part_dual_formula(n, sig):
    g = standard_scalar_product(*sig)
    r = rsample(n, 5)
    f = r - w_projections(r, g)[2]  # symmetric-Ricci representative
    direct = projective_part(f, g)
    closed = f + wedge(ricci(f, g), g.matrix) / (n - 1)
    assert np.max(np.abs(direct - closed)) <= 1e-9


def test_traceless_core_properties():
    g = standard_scalar_product(3, 0)
    gg = wedge(g.matrix, g.matrix)
    assert np.max(np.abs(traceless_core(gg, g))) <= 1e-12
    r = rsample(3, 6)
    core = traceless_core(r, g)
    assert np.max(np.abs(ricci(core, g))) <= 1e-9
    assert np.max(np.abs(ricci_star(core, g))) <= 1e-9
    w = w_projections(r, g)
    assert np.allclose(core, r - sum(w[:5]), atol=1e-9)
    assert np.allclose(w[5], psi(core), atol=1e-9)
    assert np.allclose(w[6], mu(core), atol=1e-9)
    assert np.allclose(w[7], core - psi(core) - mu(core), atol=1e-9)


def test_b_forms_on_wedge_square_and_zero():
    g = standard_scalar_product(3, 0)
    gg = wedge(g.matrix, g.matrix)
    b_star, b = b_forms(gg, g)
    assert np.max(np.abs(b_star)) <= 1e-12
    assert np.max(np.abs(b)) <= 1e-12
    b_star, b = b_forms(np.zeros((3,) * 4), g)
    assert np.max(np.abs(b_star)) == 0.0 and np.max(np.abs(b)) == 0.0


@pytest.mark.parametrize("n,sig", GRID)
def test_b_star_vanishes_on_projectively_flat_conjugates(n, sig):
    g = standard_scalar_product(*sig)
    r = rsample(n, 7)
    w = w_projections(r, g)
    flat_type = w[0] + w[1]
    flat_type /= np.max(np.abs(flat_type))
    paired = conjugate(flat_type)
    b_star, _ = b_forms(paired, g)
    assert np.max(np.abs(b_star)) <= 1e-9


def test_sigma_split_trace_recovery():
    rng = np.random.default_rng(8)
    for sig in ((3, 0), (2, 1)):
        g = standard_scalar_product(*sig)
        omega = antisym(rng.uniform(-1, 1, (3, 3)))
        theta = sym(rng.uniform(-1, 1, (3, 3)))
        built = sigma_split(omega, theta, g)
        assert np.max(np.abs(ricci(built, g) - omega - theta)) <= 1e-10
        assert membership_residual(built, g, "r") <= 1e-10
        only_theta = sigma_split(np.zeros((3, 3)), theta, g)
        assert np.max(np.abs(ricci(only_theta, g) - theta)) <= 1e-10
        only_omega = sigma_split(omega, np.zeros((3, 3)), g)
        assert np.max(np.abs(ricci(only_omega, g) - omega)) <= 1e-10
    assert np.max(np.abs(sigma_split(np.zeros((3, 3)), np.zeros((3, 3)), g))) == 0.0


def test_sigma_split_symmetry_validation():
    g = standard_scalar_product(3, 0)
    rng = np.random.default_rng(9)
    bad = rng.uniform(-1, 1, (3, 3))
    with pytest.raises(FormSymmetryViolation):
        sigma_split(bad, np.zeros((3, 3)), g)
    with pytest.raises(FormSymmetryViolation):
        sigma_split(np.zeros((3, 3)), antisym(bad) + 1e-6 * np.eye(3) @ bad, g)


def test_einstein_check_examples():
    g = standard_scalar_product(3, 0)
    gg = wedge(g.matrix, g.matrix)
    assert equiaffine_einstein_check(gg, g)
    assert equiaffine_einstein_check(np.zeros((3,) * 4), g)
    rng = np.random.default_rng(10)
    xi = sym(rng.uniform(-1, 1, (3, 3)))
    xi -= (np.trace(xi) / 3.0) * np.eye(3)
    assert not equiaffine_einstein_check(-wedge_r(xi, g.matrix, 1), g)


def test_einstein_check_cross_checked_against_trace_condition():
    g = standard_scalar_product(3, 0)
    for seed in range(4):
        r = rsample(3, 40 + seed)
        w = w_projections(r, g)
        pos = r - w[1] - w[2]
        rep = ricci_traces(pos, g)
        assert equiaffine_einstein_check(pos, g)
        assert np.max(np.abs(rep.ric - (rep.tau / 3.0) * g.matrix)) <= 1e-12
        rep = ricci_traces(r, g)
        assert not equiaffine_einstein_check(r, g)
        assert np.max(np.abs(rep.ric - (rep.tau / 3.0) * g.matrix)) > 1e-4


def test_scalar_curvature_of_components_vanishes_beyond_first():
    g = standard_scalar_product(4, 0)
    r = rsample(4, 12)
    for comps in (w_projections(r, g), a_projections(r, g)):
        for c in comps[1:]:
            assert abs(scalar_curvature(c, g)) <= 1e-10


def _pull(t, a):
    """t with every argument composed with a: t(a x, a y, ...)."""
    if t.ndim == 2:
        return a.T @ t @ a
    return np.einsum("abcd,ai,bj,ck,dl->ijkl", t, a, a, a, a, optimize=True)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 6), data=st.data())
def test_maps_equivariant_under_non_diagonal_metrics(n, data):
    # g = A^T eta A is non-diagonal, so g and g^-1 differ; every map must
    # commute with the pull-back R -> R o A
    p = data.draw(st.integers(0, n), label="p")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    eta = standard_scalar_product(p, n - p)
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = q1 @ np.diag(rng.uniform(0.5, 2.0, n)) @ q2
    g = build_scalar_product(a.T @ eta.matrix @ a)
    assert g.signature == eta.signature
    r = rsample(n, seed)
    w = w_projections(r, eta)
    einstein = r - w[1] - w[2]
    r_a = _pull(r, a)
    scale = np.max(np.abs(r_a))
    pairs = list(zip(w_projections(r_a, g), w))
    pairs += zip(a_projections(r_a, g), a_projections(r, eta))
    pairs += zip(b_forms(r_a, g), b_forms(r, eta))
    pairs.append((traceless_core(r_a, g), traceless_core(r, eta)))
    pairs.append((projective_part(r_a, g), projective_part(r, eta)))
    for got, want in pairs:
        assert np.max(np.abs(got - _pull(want, a))) <= 1e-10 * scale
    assert not equiaffine_einstein_check(r, eta)
    assert not equiaffine_einstein_check(r_a, g)
    assert equiaffine_einstein_check(einstein, eta)
    assert equiaffine_einstein_check(_pull(einstein, a), g)


@pytest.mark.parametrize("n", range(3, 9))
def test_stack_equals_one_tensor_at_a_time(n):
    # a leading batch axis must give bit for bit the per-tensor results
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    g = build_scalar_product(a.T @ standard_scalar_product(n - 1, 1).matrix @ a)
    stack = np.stack([rsample(n, 100 * n + i) for i in range(5)])
    noise = rng.uniform(-1, 1, (5,) + (n,) * 4)
    w = w_projections(stack, g)
    mixed = np.concatenate([stack, stack - w[1] - w[2]])  # generic, then Einstein

    def parts(res):
        return [*res.components, res.completeness_residual, res.orthogonality_matrix]

    for f, x in (
        (w_projections, stack),
        (a_projections, stack),
        (lambda t, g: [traceless_core(t, g)], stack),
        (lambda t, g: [projective_part(t, g)], stack),
        (lambda t, g: [ricci(t, g)], stack),
        (lambda t, g: [bianchi_project(t)], noise),
        (lambda t, g: [scalar_curvature(t, g)], stack),
        (lambda t, g: list(vars(ricci_traces(t, g)).values()), stack),
        (lambda t, g: [equiaffine_einstein_check(t, g)], mixed),
        (lambda t, g: parts(w_decompose(t, g)), stack),
        (lambda t, g: parts(a_decompose(t, g)), stack),
        (lambda t, g: parts(singer_thorpe(t, g)), psi(stack)),
    ):
        batched = f(x, g)
        for i in range(len(x)):
            single = f(x[i], g)
            for j, part in enumerate(single):
                assert np.array_equal(batched[j][i], part)
    # the pairing broadcasts the batch axes of both arguments: (8, 1, m) x (1, 8, m)
    comps = np.stack(w)
    pairs = tensor_pairing(comps[:, None], comps[None, :], g)
    assert pairs.shape == (8, 8, len(stack))
    for a, b, i in np.ndindex(pairs.shape):
        assert pairs[a, b, i] == tensor_pairing(comps[a, i], comps[b, i], g)
    # one tensor gives Python scalars, which the JSON writers take as they are
    verdicts = equiaffine_einstein_check(mixed, g)
    assert verdicts.tolist() == [False] * len(stack) + [True] * len(stack)
    assert type(equiaffine_einstein_check(mixed[-1], g)) is bool
    assert type(tensor_pairing(stack[0], stack[1], g)) is float
    assert type(scalar_curvature(stack[0], g)) is float
    assert type(ricci_traces(stack[0], g).tau) is float
    assert type(w_decompose(stack[0], g).completeness_residual) is float
    # the gate refuses a stack when any one tensor is off the space
    bad = stack.copy()
    bad[3] = noise[3]
    with pytest.raises(NotGeneralizedCurvature):
        projective_part(bad, g)


def _reference_w(t, g):
    # the W closed forms written out, each operation in the order _Parts must keep
    n, gm = g.dim, g.matrix
    ric, star, tau = ricci(t, g), ricci_star(t, g), scalar_curvature(t, g)
    tau = np.reshape(tau, np.shape(tau) + (1, 1))
    tau4 = tau[..., None, None]
    lric, lstar, gg = antisym(ric), antisym(star), wedge(gm, gm)
    lift = lambda b, r: 2.0 * np.einsum("...ab,...cd->...abcd", b, gm) + wedge_r(b, gm, r)
    return [
        wedge((tau / n) * gm, gm) / (1 - n),
        wedge(sym(ric) - (tau / n) * gm, gm) / (1 - n),
        (-1.0 / (n + 1)) * lift(lric, 0.0),
        (-1.0 / (n * n - 4)) * lift(lstar + (3.0 / (n + 1)) * lric, n + 1),
        (tau4 * gg - wedge_r(sym(ric + (n - 1) * star), gm, n - 1) / n) / ((n - 1) * (n - 2)),
        psi(t) + wedge_r(sym(ric + star), gm, 1) / (2 * (n - 2))
        - (tau4 / ((n - 1) * (n - 2))) * gg,
        mu(t) + wedge_r(sym(ric - star), gm, -1) / (2 * n)
        + lift(antisym(3.0 * ric - star), -1) / (4 * (n + 2)),
        t - psi(t) - mu(t) + lift(lric + lstar, 3) / (4 * (n - 2)),
    ]


def _reference_a(t, g):
    n, gm = g.dim, g.matrix
    ric, star, tau = ricci(t, g), ricci_star(t, g), scalar_curvature(t, g)
    tau4 = np.reshape(tau, np.shape(tau) + (1, 1, 1, 1))
    gg = wedge(gm, gm)
    lift = lambda b, r: 2.0 * np.einsum("...ab,...cd->...abcd", b, gm) + wedge_r(b, gm, r)
    a1 = (-tau4 / (n * (n - 1))) * gg
    a2 = (2 * tau4 / (n * (n - 2))) * gg - wedge_r(sym(ric + star), gm, 1) / (2 * (n - 2))
    a3 = -wedge_r(sym(ric - star), gm, -1) / (2 * n)
    a4 = (-1.0 / (4 * (n + 2))) * lift(antisym(3.0 * ric - star), -1)
    a5 = (-1.0 / (4 * (n - 2))) * lift(antisym(ric + star), 3)
    return [a1, a2, a3, a4, a5, psi(t) - a1 - a2, mu(t) - a3 - a4, t - mu(t) - psi(t) - a5]


def _same_bits(x, y):
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


@pytest.mark.parametrize("n", range(3, 9))
def test_components_on_demand_equal_the_full_family_bit_for_bit(n):
    # a component built alone, or with any other set, has the bits, signs of zero
    # included, of the full family and of the closed forms written out
    rng = np.random.default_rng(n)
    a = np.eye(n) + np.triu(rng.integers(-1, 2, (n, n)), 1)
    eta = standard_scalar_product(n - 1, 1)
    stack = np.stack([rsample(n, 7 * n + i) for i in range(3)])
    for g in (eta, build_scalar_product(a.T @ eta.matrix @ a)):
        for t in (stack[0], stack):
            for family, full, reference in (("w", w_projections, _reference_w),
                                            ("a", a_projections, _reference_a)):
                want = reference(t, g)
                assert all(_same_bits(x, y) for x, y in zip(full(t, g), want, strict=True))
                for keep in [(j,) for j in range(8)] + [(7, 4), (5, 2, 6), (1, 2), (3, 4)]:
                    got = getattr(_Parts(t, g), family)(keep)
                    assert all(_same_bits(x, want[j]) for x, j in zip(got, keep, strict=True))
            parts = singer_thorpe(psi(t), g).components
            want = a_projections(psi(t), g)
            assert all(_same_bits(x, want[j]) for x, j in zip(parts, (0, 1, 5), strict=True))


def test_projections_make_no_more_kernel_calls(monkeypatch):
    # one family call makes no more calls of the trace and product kernels than the
    # closed forms written out one family at a time did
    calls = Counter()
    for module, name in ((decomp, "sym"), (decomp, "antisym"), (decomp, "wedge_r"),
                         (spaces, "wedge_r"), (decomp, "psi"), (decomp, "mu"), (spaces, "ricci")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name:
                            calls.update([name]) or real(*a))
    g, t = standard_scalar_product(3, 1), rsample(4, 1)
    for proj, most in (
        (w_projections, {"sym": 4, "antisym": 3, "wedge_r": 10, "psi": 1, "mu": 1, "ricci": 1}),
        (a_projections, {"sym": 2, "antisym": 2, "wedge_r": 5, "psi": 1, "mu": 1, "ricci": 1}),
    ):
        calls.clear()
        proj(t, g)
        assert calls <= Counter(most), proj.__name__
