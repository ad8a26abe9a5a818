"""The two eight-part orthogonal decompositions of r(V) and derived maps.

Every map here is linear in the trace data Ric, Ric*, tau, psi(R) and mu(R);
`spaces._traces` computes (Ric, Ric*, tau) once per tensor, with the one tau
formula that `scalar_curvature` and `ricci_traces` also use.  A `_Parts` holds
the trace data of one stack, each piece computed once, and reads every map off
it: the W and A components, each built only when asked, and the derived maps
(projective part, traceless core, b-forms, Einstein verdict).  Each public
derived map is a membership test and one `_Parts`; `sampling.Block` keeps one
per stack, so both families, the derived maps and every check share its data.
Every map takes a stack (..., n, n, n, n) and broadcasts the trace data over
it; the decompositions and the Einstein check return one result per tensor.  The
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
from functools import cached_property

import numpy as np

from .errors import FormSymmetryViolation, NonFiniteInput, NotAlgebraic, NotGeneralizedCurvature
from .linalg import ScalarProduct, _per_tensor, _row_maxnorm, antisym, sym, tensor_pairing
from .spaces import (MEMBERSHIP_TOL, _dot_product, _finite, _relative, _traces, _wedge, _wedge_r,
                     membership_residual, mu, psi)

FORM_TOL = 1e-10


def _require_space(t, g, space) -> np.ndarray:
    """t as a float array, refused unless each tensor's residual in space is <= MEMBERSHIP_TOL."""
    t = np.asarray(t, dtype=float)
    res = membership_residual(t, g, space)
    if not np.isfinite(res):  # a sum of entries near the float limit overflowed
        at = tuple(map(int, np.unravel_index(np.argmax(np.abs(t)), t.shape)))
        raise NonFiniteInput(f"entry {at} = {t[at]:g} overflows the membership test in {space!r}")
    if not res <= MEMBERSHIP_TOL:
        err = NotGeneralizedCurvature if space == "r" else NotAlgebraic
        raise err(f"membership residual {res:.3e} in {space!r} exceeds {MEMBERSHIP_TOL:.0e}")
    return t


def _lift(b, gm, r: float) -> np.ndarray:
    return 2.0 * _dot_product(b, gm) + _wedge_r(b, gm, r)


def _sigma_alt(omega, gm) -> np.ndarray:  # sigma(omega, 0)
    return (-1.0 / (len(gm) + 1)) * _lift(omega, gm, 0.0)


def _sigma_sym(theta, gm) -> np.ndarray:  # sigma(0, theta)
    return _wedge(theta, gm) / (1 - len(gm))


# the A-components that component j is built from, itself last: A6 = psi - A1 - A2, and so on
_A_FROM = ((0,), (1,), (2,), (3,), (4,), (0, 1, 5), (2, 3, 6), (4, 7))


class _Parts:
    """The trace data of a stack t under g, each piece computed once, on first use.

    traces holds (Ric, Ric*, tau), from `spaces._traces`, and the pieces of both
    families built from them: tau (..., 1, 1, 1, 1), g ^ g, sym(Ric + Ric*),
    sym(Ric - Ric*) and antisym(3 Ric - Ric*).  psi(t) and mu(t) are computed
    apart.  w and a build the components of either family from these, each only
    when asked for and each by the same operations in the same order, so a
    component built alone equals, bit for bit, the one `w_projections` or
    `a_projections` returns.  No component is kept.  The derived maps read traces,
    and the Einstein verdict W2 and W3 as w builds them.  psi and mu do not depend on
    g: shared, a dict, keeps them, read-only, for the parts of the same t under
    other metrics.
    """

    def __init__(self, t, g: ScalarProduct, shared: dict | None = None):
        # checked by the first kernel that reads it: `spaces.ricci`, psi or mu
        self.t, self.g, self.n, self.gm = np.asarray(t, dtype=float), g, g.dim, g.matrix
        self._shared = shared

    def _average(self, name: str, avg) -> np.ndarray:
        if self._shared is None:
            return avg(self.t)
        if name not in self._shared:
            self._shared[name] = avg(self.t)
            self._shared[name].flags.writeable = False  # other parts objects read it
        return self._shared[name]

    @cached_property
    def psi(self) -> np.ndarray:
        return self._average("psi", psi)

    @cached_property
    def mu(self) -> np.ndarray:
        return self._average("mu", mu)

    @cached_property
    def traces(self) -> tuple[np.ndarray, ...]:
        gm = self.gm
        ric, star, tau = _traces(self.t, self.g)
        return (ric, star, tau, tau[..., None, None], _wedge(gm, gm), sym(ric + star),
                sym(ric - star), antisym(3.0 * ric - star))

    def w(self, keep=range(8)) -> list[np.ndarray]:
        """The W-components j + 1 of t for j in keep, in keep's order."""
        n, gm = self.n, self.gm
        ric, star, tau, tau4, gg, sym_plus, sym_minus, alt_minus = self.traces
        tau_g, lric, lstar = (tau / n) * gm, antisym(ric), antisym(star)
        build = (
            lambda: _sigma_sym(tau_g, gm),
            lambda: _sigma_sym(sym(ric) - tau_g, gm),
            lambda: _sigma_alt(lric, gm),
            lambda: (-1.0 / (n * n - 4)) * _lift(lstar + (3.0 / (n + 1)) * lric, gm, n + 1),
            lambda: (tau4 * gg - _wedge_r(sym(ric + (n - 1) * star), gm, n - 1) / n)
            / ((n - 1) * (n - 2)),
            lambda: self.psi + _wedge_r(sym_plus, gm, 1) / (2 * (n - 2))
            - (tau4 / ((n - 1) * (n - 2))) * gg,
            lambda: self.mu + _wedge_r(sym_minus, gm, -1) / (2 * n)
            + _lift(alt_minus, gm, -1) / (4 * (n + 2)),
            lambda: self.t - self.psi - self.mu + _lift(lric + lstar, gm, 3) / (4 * (n - 2)),
        )
        return [build[j]() for j in keep]

    def a(self, keep=range(8)) -> list[np.ndarray]:
        """The A-components j + 1 of t for j in keep, in keep's order, each built once."""
        n, gm, c = self.n, self.gm, {}
        ric, star, tau, tau4, gg, sym_plus, sym_minus, alt_minus = self.traces
        build = (
            lambda: (-tau4 / (n * (n - 1))) * gg,
            lambda: (2 * tau4 / (n * (n - 2))) * gg - _wedge_r(sym_plus, gm, 1) / (2 * (n - 2)),
            lambda: -_wedge_r(sym_minus, gm, -1) / (2 * n),
            lambda: (-1.0 / (4 * (n + 2))) * _lift(alt_minus, gm, -1),
            lambda: (-1.0 / (4 * (n - 2))) * _lift(antisym(ric + star), gm, 3),
            lambda: self.psi - c[0] - c[1],
            lambda: self.mu - c[2] - c[3],
            lambda: self.t - self.mu - self.psi - c[4],
        )
        # a loop, not a closure that calls itself: that reference cycle would keep the
        # components alive until the garbage collector ran
        for j in keep:
            for i in _A_FROM[j]:
                if i not in c:
                    c[i] = build[i]()
        return [c[j] for j in keep]

    def projective_part(self) -> np.ndarray:
        """t - sigma(Alt Ric, Sym Ric), see `projective_part`."""
        ric, gm = self.traces[0], self.gm
        return self.t - _sigma_alt(antisym(ric), gm) - _sigma_sym(sym(ric), gm)

    def traceless_core(self) -> np.ndarray:
        """The projection of t onto the totally trace-free subspace (Ric = Ric* = 0), by the
        closed five-term correction; it agrees with t less its first five W-components."""
        n, gm = self.n, self.gm
        ric, star, tau, tau4, gg = self.traces[:5]
        return (
            self.t
            + (2.0 / (n * n - 4)) * _dot_product(antisym((n - 1) * ric + star), gm)
            + _wedge((n - 1) * antisym(ric) + (n + 1) * sym(ric), gm) / (n * n - 1)
            + _wedge_r(antisym(3.0 * ric + (n + 1) * star), gm, n + 1) / ((n * n - 4) * (n + 1))
            + _wedge_r(sym(ric + (n - 1) * star), gm, n - 1) / (n * (n - 1) * (n - 2))
            - (tau4 / ((n - 1) * (n - 2))) * gg
        )

    def b_forms(self) -> tuple[np.ndarray, np.ndarray]:
        """(b_star, b), see `b_forms`."""
        n, gm, (ric, star, tau) = self.n, self.gm, self.traces[:3]
        return sym(star + (n - 1) * ric) - tau * gm, sym((n - 1) * star + ric) - tau * gm

    def einstein(self) -> bool | np.ndarray:
        """Whether W2 and W3 of each tensor vanish, see `equiaffine_einstein_check`."""
        return _per_tensor(_relative(self.t, *self.w((1, 2))) <= MEMBERSHIP_TOL)


def w_projections(t, g: ScalarProduct) -> list[np.ndarray]:
    """The eight W-components of t, in order, from the closed-form projectors."""
    return _Parts(t, g).w()


def a_projections(t, g: ScalarProduct) -> list[np.ndarray]:
    """The eight A-components of t, in order."""
    return _Parts(t, g).a()


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


def _result(mode, t, g, proj) -> DecompositionResult:
    # a component that overflows (g near the float limit) warns nowhere; the pairings refuse it
    with np.errstate(over="ignore", invalid="ignore"):
        comps = proj(t, g)
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
    return _result("ST", _require_space(t, g, "a"), g, lambda t, g: _Parts(t, g).a((0, 1, 5)))


def projective_part(t, g: ScalarProduct) -> np.ndarray:
    """The Ricci-free part of t: t - sigma(Alt Ric, Sym Ric).

    This is the input minus its first three W-components; on tensors with
    symmetric Ricci it equals t + wedge(Ric, g)/(n-1).
    """
    return _Parts(_require_space(t, g, "r"), g).projective_part()


def b_forms(t, g: ScalarProduct) -> tuple[np.ndarray, np.ndarray]:
    """The two projective-flatness indicator forms built from the trace data.

    Returns (b_star, b) with b_star = sym(Ric* + (n-1) Ric) - tau g and
    b = sym((n-1) Ric* + Ric) - tau g; b_star vanishes exactly when the
    conjugate tensor is of projectively flat type.
    """
    return _Parts(_require_space(t, g, "r"), g).b_forms()


def sigma_split(omega, theta, g: ScalarProduct) -> np.ndarray:
    """Right inverse of the Ricci trace on the antisymmetric + symmetric data.

    Builds the canonical (1,3) operator with Ricci tensor omega + theta and
    lowers its last index with g.  omega must be antisymmetric and theta
    symmetric within 1e-10, and both real, finite and (..., n, n) for g's n.
    """
    omega, theta, _ = _finite(omega=omega, theta=theta, g=g.matrix)  # a nan passes the tests below
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
    return _Parts(_require_space(t, g, "r"), g).einstein()
