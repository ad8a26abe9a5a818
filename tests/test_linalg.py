import re

import numpy as np
import pytest

from curvdec.decomp import equiaffine_einstein_check, sigma_split, w_decompose
from curvdec.errors import (
    CurvdecError,
    DegenerateMetric,
    DimensionMismatch,
    DimensionTooSmall,
    NonFiniteInput,
    NonPositiveFactor,
    NotSymmetric,
)
from curvdec.linalg import (
    antisym,
    build_scalar_product,
    check_tensor,
    standard_scalar_product,
    sym,
    tensor_pairing,
)
from curvdec.spaces import (
    bianchi_project,
    conjugate,
    dot_product,
    membership_residual,
    mu,
    psi,
    ricci,
    ricci_traces,
    scalar_curvature,
    wedge,
    wedge_r,
)


def pairing_oracle(t1, t2, ginv):
    """Quadruple contraction written as explicit loops."""
    n = ginv.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    for a in range(n):
                        for b in range(n):
                            for c in range(n):
                                for d in range(n):
                                    total += (
                                        ginv[i, a] * ginv[j, b] * ginv[k, c] * ginv[l, d]
                                        * t1[i, j, k, l] * t2[a, b, c, d]
                                    )
    return total


def test_identity_scalar_product():
    g = build_scalar_product(np.eye(3))
    assert g.signature == (3, 0)
    assert np.array_equal(g.inverse, np.eye(3))


def test_lorentz_diagonal_self_inverse():
    m = np.diag([1.0, 1.0, 1.0, -1.0])
    g = build_scalar_product(m)
    assert g.signature == (3, 1)
    assert np.array_equal(g.inverse, m)


def test_inverse_against_direct_inversion():
    m = np.diag([2.0, 1.0, 1.0])
    g = build_scalar_product(m)
    assert np.allclose(g.inverse, np.diag([0.5, 1.0, 1.0]), atol=1e-15)
    assert np.allclose(g.matrix @ g.inverse, np.eye(3), atol=1e-10)


def test_generic_inverse_product_identity():
    rng = np.random.default_rng(3)
    for n in (3, 4, 5):
        m = rng.uniform(-1, 1, (n, n))
        m = 0.5 * (m + m.T) + n * np.eye(n)
        g = build_scalar_product(m)
        assert np.allclose(m, g.matrix, atol=1e-15)
        assert np.allclose(g.matrix @ g.inverse, np.eye(n), atol=1e-10)
        assert np.allclose(g.inverse, np.linalg.inv(m), atol=1e-12)


def test_degenerate_rejected():
    m = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(DegenerateMetric):
        build_scalar_product(m)
    with pytest.raises(DegenerateMetric):
        build_scalar_product(np.diag([1.0, 1.0, 1e-12]))


def test_asymmetric_rejected():
    m = np.eye(3)
    m[0, 1] = 1e-9
    with pytest.raises(NotSymmetric):
        build_scalar_product(m)


def test_dimension_too_small():
    with pytest.raises(DimensionTooSmall):
        build_scalar_product(np.eye(2))
    with pytest.raises(DimensionTooSmall):
        standard_scalar_product(1, 1)


def test_negative_signature_count_refused():
    # -1 + 4 is a valid dimension; the count itself is not
    with pytest.raises(DimensionMismatch, match="negative"):
        standard_scalar_product(-1, 4)
    # nor may a count be fractional: 2.5 + 0.5 is a valid dimension too
    with pytest.raises(DimensionMismatch, match="integer"):
        standard_scalar_product(2.5, 0.5)
    # nor a bool: True is not the count 1
    with pytest.raises(DimensionMismatch, match="integer"):
        standard_scalar_product(True, 2)


def test_split_symmetric_fixed_point():
    b = np.array([[1.0, 2.0, 0.5], [2.0, -1.0, 3.0], [0.5, 3.0, 0.0]])
    s, l = sym(b), antisym(b)
    assert np.array_equal(s, b)
    assert np.array_equal(l, np.zeros((3, 3)))


def test_split_antisymmetric_fixed_point():
    b = np.array([[0.0, 2.0, -0.5], [-2.0, 0.0, 3.0], [0.5, -3.0, 0.0]])
    s, l = sym(b), antisym(b)
    assert np.array_equal(s, np.zeros((3, 3)))
    assert np.array_equal(l, b)


def test_split_single_offdiagonal_entry():
    b = np.zeros((3, 3))
    b[0, 1] = 1.0
    s, l = sym(b), antisym(b)
    assert s[0, 1] == 0.5 and s[1, 0] == 0.5
    assert l[0, 1] == 0.5 and l[1, 0] == -0.5
    assert np.array_equal(s + l, b)


def test_split_direct_sum_property():
    rng = np.random.default_rng(11)
    b = rng.uniform(-1, 1, (4, 4))
    s, l = sym(b), antisym(b)
    assert np.array_equal(s, s.T)
    assert np.allclose(l, -l.T, atol=1e-16)
    assert np.allclose(s + l, b, rtol=0, atol=1e-15)
    s2, l2 = sym(s), antisym(s)
    assert np.array_equal(s2, s)
    assert np.array_equal(l2, np.zeros_like(s))


def test_pairing_zero_argument():
    g = standard_scalar_product(3, 0)
    t = np.ones((3, 3, 3, 3))
    assert tensor_pairing(t, np.zeros((3, 3, 3, 3)), g) == 0.0


def test_pairing_wedge_square_value():
    # frozen from the loop oracle: <g^g, g^g> = 2n(n-1) = 12 at n = 3
    g = standard_scalar_product(3, 0)
    gg = wedge(g.matrix, g.matrix)
    assert pairing_oracle(gg, gg, g.inverse) == pytest.approx(12.0)
    assert tensor_pairing(gg, gg, g) == pytest.approx(12.0, abs=1e-12)


def test_pairing_matches_oracle_indefinite():
    g = standard_scalar_product(2, 1)
    rng = np.random.default_rng(5)
    t1 = rng.uniform(-1, 1, (3, 3, 3, 3))
    t2 = rng.uniform(-1, 1, (3, 3, 3, 3))
    assert tensor_pairing(t1, t2, g) == pytest.approx(pairing_oracle(t1, t2, g.inverse), rel=1e-12)


def test_pairing_symmetric_and_bilinear():
    g = standard_scalar_product(2, 1)
    rng = np.random.default_rng(6)
    t1, t2, t3 = (rng.uniform(-1, 1, (3,) * 4) for _ in range(3))
    assert tensor_pairing(t1, t2, g) == pytest.approx(tensor_pairing(t2, t1, g), rel=1e-12)
    lhs = tensor_pairing(2.5 * t1 - t3, t2, g)
    rhs = 2.5 * tensor_pairing(t1, t2, g) - tensor_pairing(t3, t2, g)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_pairing_positive_definite_for_definite_signature():
    rng = np.random.default_rng(7)
    for n in (3, 4, 5):
        g = standard_scalar_product(n, 0)
        for _ in range(5):
            t = bianchi_project(rng.uniform(-1, 1, (n,) * 4))
            assert tensor_pairing(t, t, g) > 0.0


def test_pairing_dimension_mismatch():
    g = standard_scalar_product(3, 0)
    with pytest.raises(DimensionMismatch):
        tensor_pairing(np.zeros((4,) * 4), np.zeros((4,) * 4), g)


def pairing_moveaxis_reference(t1, t2, ginv):
    """The pairing as it was first written: one np.moveaxis per raised index."""
    raised = t1
    for _ in range(4):
        raised = np.moveaxis(raised, -4, -1) @ ginv
    return np.sum(raised * t2, axis=(-4, -3, -2, -1))


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_pairing_bit_identical_to_moveaxis_reference(n):
    # the kernel moves axes with one transpose; every matmul must see the same operands
    rng = np.random.default_rng(100 + n)
    a = np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n))
    g = build_scalar_product(a.T @ np.diag([1.0] * (n - 1) + [-1.0]) @ a)
    assert not np.array_equal(g.matrix, np.diag(np.diag(g.matrix)))
    cases = [
        ((n,) * 4, (n,) * 4),
        ((5,) + (n,) * 4, (5,) + (n,) * 4),
        ((2, 3) + (n,) * 4, (2, 3) + (n,) * 4),
        ((8, 1, 3) + (n,) * 4, (1, 8, 3) + (n,) * 4),  # the suite's orthogonality call
    ]
    for s1, s2 in cases:
        t1, t2 = rng.uniform(-1, 1, s1), rng.uniform(-1, 1, s2)
        got, want = tensor_pairing(t1, t2, g), pairing_moveaxis_reference(t1, t2, g.inverse)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
    assert type(tensor_pairing(t1[0, 0, 0], t2[0, 0, 0], g)) is float


def test_tensor_shape_and_rank_checked():
    # the trailing four axes must match g, and a tensor must have rank >= 4;
    # leading axes are a batch
    g = standard_scalar_product(3, 0)
    with pytest.raises(DimensionMismatch, match=r"\(3, 3, 3, 4\)"):
        membership_residual(np.ones((3, 3, 3, 4)), g, "r")
    with pytest.raises(DimensionMismatch, match=r"\(3, 3\)"):
        w_decompose(np.eye(3), g)
    with pytest.raises(DimensionMismatch, match=r"\(2, 4, 4, 4, 4\)"):
        ricci(np.zeros((2,) + (4,) * 4), g)
    assert ricci(np.zeros((2,) + (3,) * 4), g).shape == (2, 3, 3)
    # the maps that take no g check rank and equal trailing axes
    for f in (psi, mu, bianchi_project, conjugate):
        for bad in (np.eye(3), np.ones((3, 3, 3, 4)), np.zeros((2, 3, 3, 4, 3))):
            with pytest.raises(DimensionMismatch, match=re.escape(str(bad.shape))):
                f(bad)
        assert f(np.zeros((2, 5) + (3,) * 4)).shape == (2, 5) + (3,) * 4
    # the products take (stacks of) bilinear forms of one n
    for f in (lambda h, k: wedge_r(h, k, 1.0), wedge, dot_product):
        for bad in (np.zeros(3), np.zeros((3, 3, 4)), np.zeros((3, 4))):
            with pytest.raises(DimensionMismatch, match=re.escape(str(bad.shape))):
                f(bad, bad)
            with pytest.raises(DimensionMismatch, match=re.escape(str(bad.shape))):
                f(np.eye(3), bad)
        assert f(np.zeros((2, 3, 3)), np.eye(3)).shape == (2,) + (3,) * 4
    # the per-tensor maps take a stack and give one result per tensor; the trailing
    # axes must still match g, and the pairing's batch axes must broadcast
    stack, bad = np.zeros((2,) + (3,) * 4), np.zeros((2, 3, 3, 3, 4))
    for f in (
        scalar_curvature,
        equiaffine_einstein_check,
        lambda t, g: ricci_traces(t, g).tau,
        lambda t, g: w_decompose(t, g).completeness_residual,
        lambda t, g: tensor_pairing(t, t, g),
    ):
        assert np.shape(f(stack, g)) == (2,)
        with pytest.raises(DimensionMismatch, match=re.escape(str(bad.shape))):
            f(bad, g)
    assert tensor_pairing(stack[:, None], np.zeros((3,) + (3,) * 4), g).shape == (2, 3)
    with pytest.raises(DimensionMismatch, match=r"\(2, 3, 3, 3, 3\) and \(3, 3, 3, 3, 3\)"):
        tensor_pairing(stack, np.zeros((3,) + (3,) * 4), g)


def test_rescaled_refuses_bad_factors():
    # c * g must stay a finite form of the same signature
    g = standard_scalar_product(2, 1)
    for c in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteInput):
            g.rescaled(c)
    for c in (0.0, -1.0):
        with pytest.raises(NonPositiveFactor):
            g.rescaled(c)
    assert issubclass(NonPositiveFactor, CurvdecError)
    h = g.rescaled(3.75)
    assert np.array_equal(h.matrix, 3.75 * g.matrix) and h.signature == g.signature


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_complex_input_refused():
    # a cast to float drops the imaginary part with only a ComplexWarning (a RuntimeWarning);
    # each gate refuses a complex dtype, a zero imaginary part too, before it casts
    g, eye, t = standard_scalar_product(3, 0), np.eye(3), np.ones((3,) * 4)
    for call in (
        lambda: build_scalar_product(eye * (1 + 1j)),
        lambda: check_tensor(t * (1 + 2j)),
        lambda: ricci(t + 0j, g),
        lambda: wedge(eye * 1j, eye),
        lambda: dot_product(eye, eye + 0j),
        lambda: wedge_r(eye, eye, 1j),
        lambda: sigma_split(np.zeros((3, 3)), eye + 0j, g),
        lambda: g.rescaled(1j),
    ):
        with pytest.raises(NonFiniteInput, match="not real"):
            call()


@pytest.mark.parametrize("call", [
    lambda: wedge_r(np.eye(3), np.eye(3), "x"),
    lambda: standard_scalar_product(3, 0).rescaled("x"),
    lambda: build_scalar_product([["a"] * 3] * 3),
    lambda: check_tensor([["a"]]),
], ids=["wedge_r", "rescaled", "build_scalar_product", "check_tensor"])
def test_non_numeric_input_refused(call):
    # a cast that fails on a string is a typed refusal, not numpy's bare ValueError
    with pytest.raises(NonFiniteInput, match="is not a real number"):
        call()


def test_non_finite_metric_names_entries():
    m = np.eye(3)
    m[0, 2] = m[2, 0] = np.nan
    with pytest.raises(NonFiniteInput, match=r"\(0, 2\), \(2, 0\)"):
        build_scalar_product(m)
    m[0, 2] = m[2, 0] = 0.0
    m[1, 1] = np.inf
    with pytest.raises(NonFiniteInput, match=r"\(1, 1\)"):
        build_scalar_product(m)


def test_eigen_solve_scaled_near_the_float_limit():
    # the unscaled solve overflowed: the first matrix read as signature (0, 0),
    # the second raised numpy's LinAlgError
    with pytest.raises(DegenerateMetric):
        build_scalar_product(np.diag([1e308, 1.0, 1.0]))
    g = build_scalar_product(1e308 * np.eye(3))
    assert g.signature == (3, 0)
    assert np.array_equal(g.matrix, 1e308 * np.eye(3))


def test_inverse_out_of_float_range_refused():
    # a subnormal metric's inverse overflowed to inf, and ricci(t, g) then gave all NaN
    with pytest.raises(NonFiniteInput, match="inverse"):
        build_scalar_product(1e-320 * np.eye(3))
