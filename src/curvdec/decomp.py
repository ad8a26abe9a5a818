"""The two eight-part orthogonal decompositions of r(V) and derived maps.

Every map here is linear in the trace data Ric, Ric*, tau, psi(R) and mu(R);
`spaces._traces` computes (Ric, Ric*, tau) once per tensor, with the one tau
formula that `scalar_curvature` and `ricci_traces` also use.  Every map takes a
stack (..., n, n, n, n) and broadcasts the trace data over it; the
decompositions and the Einstein check return one result per tensor.  The
Ricci part is sigma, the right inverse of the Ricci trace: W1, W2 and W3 are
sigma of (tau/n) g, Sym Ric - (tau/n) g and Alt Ric, so the projective part
is R - sigma(Alt Ric, Sym Ric).  An antisymmetric form b enters every map through
one lift, 2 b.g + b ^_r g.  The W-family isolates the projective part
(components 4..8 span the Ricci-flat tensors); the A-family isolates the
decomposition of a(V) and s(V).  Components 1, 6, 7, 8 coincide between the
families; the (2,5) vs (2,3) and (3,4) vs (4,5) blocks differ because those
module types occur with multiplicity two.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormSymmetryViolation, NonFiniteInput, NotAlgebraic, NotGeneralizedCurvature
from .linalg import (
    ScalarProduct,
    _per_tensor,
    _row_maxnorm,
    antisym,
    check_same_dim,
    check_tensor,
    sym,
    tensor_pairing,
)
from .spaces import (
    MEMBERSHIP_TOL,
    _relative,
    _traces,
    dot_product,
    membership_residual,
    mu,
    psi,
    ricci,
    wedge,
    wedge_r,
)

FORM_TOL = 1e-10


def _require_space(t, g, space) -> np.ndarray:
    """t as a float array, refused unless each tensor's residual in space is <= MEMBERSHIP_TOL."""
    t = np.asarray(t, dtype=float)
    res = membership_residual(t, g, space)
    if not res <= MEMBERSHIP_TOL:
        err = NotGeneralizedCurvature if space == "r" else NotAlgebraic
        raise err(f"membership residual {res:.3e} in {space!r} exceeds {MEMBERSHIP_TOL:.0e}")
    return t


def _lift(b, gm, r: float) -> np.ndarray:
    return 2.0 * dot_product(b, gm) + wedge_r(b, gm, r)


def _sigma_alt(omega, gm) -> np.ndarray:  # sigma(omega, 0)
    return (-1.0 / (len(gm) + 1)) * _lift(omega, gm, 0.0)


def _sigma_sym(theta, gm) -> np.ndarray:  # sigma(0, theta)
    return wedge(theta, gm) / (1 - len(gm))


def w_projections(t, g: ScalarProduct) -> list[np.ndarray]:
    """The eight W-components of t, in order, from the closed-form projectors."""
    t = check_tensor(t, g)
    n, gm = g.dim, g.matrix
    ric, star, tau = _traces(t, g)
    tau4 = tau[..., None, None]
    lric, lstar = antisym(ric), antisym(star)
    gg = wedge(gm, gm)
    ps, m = psi(t), mu(t)

    p1 = _sigma_sym((tau / n) * gm, gm)
    p2 = _sigma_sym(sym(ric) - (tau / n) * gm, gm)
    p3 = _sigma_alt(lric, gm)
    p4 = (-1.0 / (n * n - 4)) * _lift(lstar + (3.0 / (n + 1)) * lric, gm, n + 1)
    p5 = (tau4 * gg - wedge_r(sym(ric + (n - 1) * star), gm, n - 1) / n) / ((n - 1) * (n - 2))
    p6 = (
        ps
        + wedge_r(sym(ric + star), gm, 1) / (2 * (n - 2))
        - (tau4 / ((n - 1) * (n - 2))) * gg
    )
    p7 = (
        m
        + wedge_r(sym(ric - star), gm, -1) / (2 * n)
        + _lift(antisym(3.0 * ric - star), gm, -1) / (4 * (n + 2))
    )
    p8 = t - ps - m + _lift(lric + lstar, gm, 3) / (4 * (n - 2))
    return [p1, p2, p3, p4, p5, p6, p7, p8]


def a_projections(t, g: ScalarProduct) -> list[np.ndarray]:
    """The eight A-components of t, in order."""
    t = check_tensor(t, g)
    n, gm = g.dim, g.matrix
    ric, star, tau = _traces(t, g)
    tau4 = tau[..., None, None]
    gg = wedge(gm, gm)
    ps, m = psi(t), mu(t)

    a1 = (-tau4 / (n * (n - 1))) * gg
    a2 = (2 * tau4 / (n * (n - 2))) * gg - wedge_r(sym(ric + star), gm, 1) / (2 * (n - 2))
    a3 = -wedge_r(sym(ric - star), gm, -1) / (2 * n)
    a4 = (-1.0 / (4 * (n + 2))) * _lift(antisym(3.0 * ric - star), gm, -1)
    a5 = (-1.0 / (4 * (n - 2))) * _lift(antisym(ric + star), gm, 3)
    a6 = ps - a1 - a2
    a7 = m - a3 - a4
    a8 = t - m - ps - a5
    return [a1, a2, a3, a4, a5, a6, a7, a8]


@dataclass(frozen=True)
class DecompositionResult:
    """Components of one decomposition plus reconstruction diagnostics.

    components holds 8 tensors for modes 'W' and 'A', or 3 for mode 'ST'
    (constant-curvature, traceless-Ricci, Ricci-flat parts, in that order).
    completeness_residual is ||sum - input|| / ||input|| in max norm;
    orthogonality_matrix holds all pairwise tensor pairings.  For a stack the
    components are stacks, the residual has the batch shape, the matrix (..., k, k).
    """

    mode: str
    components: list[np.ndarray]
    completeness_residual: float | np.ndarray
    orthogonality_matrix: np.ndarray


def _result(mode, t, g, proj, keep=range(8)) -> DecompositionResult:
    # a component that overflows (g near the float limit) warns nowhere; the pairings refuse it
    with np.errstate(over="ignore", invalid="ignore"):
        comps = [c for i, c in enumerate(proj(t, g)) if i in keep]
        residual = _relative(t, np.sum(comps, axis=0) - t)
        k = len(comps)
        gram = np.empty(t.shape[:-4] + (k, k))
        try:
            for i in range(k):
                for j in range(i, k):
                    gram[..., i, j] = gram[..., j, i] = tensor_pairing(comps[i], comps[j], g)
        except NonFiniteInput:
            raise NonFiniteInput(f"a {mode} component went out of float range") from None
    return DecompositionResult(mode, comps, _per_tensor(residual), gram)


def w_decompose(t, g: ScalarProduct) -> DecompositionResult:
    """Split a generalized curvature tensor into its eight W-components."""
    return _result("W", _require_space(t, g, "r"), g, w_projections)


def a_decompose(t, g: ScalarProduct) -> DecompositionResult:
    """Split a generalized curvature tensor into its eight A-components."""
    return _result("A", _require_space(t, g, "r"), g, a_projections)


def singer_thorpe(t, g: ScalarProduct) -> DecompositionResult:
    """Three-way split of an algebraic curvature tensor.

    Delegates to the A-components: the constant-curvature part is component 1,
    the traceless-Ricci part component 2, and the Ricci-flat (Weyl-type) part
    component 6; on a(V) these three sum back to the input.
    """
    return _result("ST", _require_space(t, g, "a"), g, a_projections, (0, 1, 5))


def projective_part(t, g: ScalarProduct) -> np.ndarray:
    """The Ricci-free part of t: t - sigma(Alt Ric, Sym Ric).

    This is the input minus its first three W-components; on tensors with
    symmetric Ricci it equals t + wedge(Ric, g)/(n-1).
    """
    t = _require_space(t, g, "r")
    ric = ricci(t, g)
    return t - _sigma_alt(antisym(ric), g.matrix) - _sigma_sym(sym(ric), g.matrix)


def traceless_core(t, g: ScalarProduct) -> np.ndarray:
    """Projection onto the totally trace-free subspace (Ric = Ric* = 0).

    Computed by the closed five-term correction formula; agrees with
    subtracting the first five W-components.
    """
    t = _require_space(t, g, "r")
    n, gm = g.dim, g.matrix
    ric, star, tau = _traces(t, g)
    return (
        t
        + (2.0 / (n * n - 4)) * dot_product(antisym((n - 1) * ric + star), gm)
        + wedge((n - 1) * antisym(ric) + (n + 1) * sym(ric), gm) / (n * n - 1)
        + wedge_r(antisym(3.0 * ric + (n + 1) * star), gm, n + 1)
        / ((n * n - 4) * (n + 1))
        + wedge_r(sym(ric + (n - 1) * star), gm, n - 1) / (n * (n - 1) * (n - 2))
        - (tau[..., None, None] / ((n - 1) * (n - 2))) * wedge(gm, gm)
    )


def b_forms(t, g: ScalarProduct) -> tuple[np.ndarray, np.ndarray]:
    """The two projective-flatness indicator forms built from the trace data.

    Returns (b_star, b) with b_star = sym(Ric* + (n-1) Ric) - tau g and
    b = sym((n-1) Ric* + Ric) - tau g; b_star vanishes exactly when the
    conjugate tensor is of projectively flat type.
    """
    t = _require_space(t, g, "r")
    n = g.dim
    ric, star, tau = _traces(t, g)
    b_star = sym(star + (n - 1) * ric) - tau * g.matrix
    b = sym((n - 1) * star + ric) - tau * g.matrix
    return b_star, b


def sigma_split(omega, theta, g: ScalarProduct) -> np.ndarray:
    """Right inverse of the Ricci trace on the antisymmetric + symmetric data.

    Builds the canonical (1,3) operator with Ricci tensor omega + theta and
    lowers its last index with g.  omega must be antisymmetric and theta
    symmetric within 1e-10.
    """
    omega = np.asarray(omega, dtype=float)
    theta = np.asarray(theta, dtype=float)
    check_same_dim(omega, theta, g.matrix)
    norm = lambda x: _row_maxnorm(x, 0)
    if norm(omega + omega.swapaxes(-1, -2)) > FORM_TOL * max(1.0, norm(omega)):
        raise FormSymmetryViolation("omega is not antisymmetric")
    if norm(theta - theta.swapaxes(-1, -2)) > FORM_TOL * max(1.0, norm(theta)):
        raise FormSymmetryViolation("theta is not symmetric")
    return _sigma_alt(omega, g.matrix) + _sigma_sym(theta, g.matrix)


def equiaffine_einstein_check(t, g: ScalarProduct) -> bool | np.ndarray:
    """True when the trace-adjusting W-components 2 and 3 both vanish.

    W2 = sigma(0, Sym Ric - (tau/n) g) and W3 = sigma(Alt Ric, 0), so this is
    Ric = (tau/n) g, the Einstein condition for a Ricci symmetric
    torsion-free connection.  A bool for one tensor, a bool array of the
    batch shape for a stack.
    """
    t = _require_space(t, g, "r")
    ric, _, tau = _traces(t, g)
    w2 = _sigma_sym(sym(ric) - (tau / g.dim) * g.matrix, g.matrix)
    w3 = _sigma_alt(antisym(ric), g.matrix)
    return _per_tensor(_relative(t, w2, w3) <= MEMBERSHIP_TOL)
