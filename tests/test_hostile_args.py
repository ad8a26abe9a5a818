"""Each public entry point refuses an argument of the wrong type, shape or range with a
CurvdecError, or returns: never a bare Python or numpy error, nor a warning.

One argument at a time is replaced by a hostile value; the others stay valid and cheap
(n = 3, one sample, one check).  `ScalarProduct` and `PolyChart` operands are the
package's own objects, made by its checked constructors, so they are not replaced.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvdec import (CurvdecError, Poly, PolyChart, SuiteConfig, a_projections,
                     build_scalar_product, conjugate_triple_report, curvature_at,
                     dimension_reports, dot_product, formula_dim, membership,
                     run_invariant_suite, sample, sigma_split, standard_scalar_product,
                     w_decompose, w_projections, wedge, wedge_r)
from curvdec.errors import NonFiniteInput, UnknownSpace

G, EYE = standard_scalar_product(3, 0), np.eye(3)
CHART = PolyChart(3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, Poly(3, {(1, 0, 0): 0.5})]])
HOSTILE = [[["x"]], [1.0], [], {}, {"a": 1}, {1, 2}, np.array(0.5), np.ones(2),
           np.ones((2, 3, 3)), (2, [1]), [[1.0], [1.0, 2.0]], "x", "", None, True, math.nan,
           math.inf, 1j, 10**400, -(10**400)]


def suite_run(dims=(3,), signatures=((3, 0),), samples=1, seed=0, tolerance=1e-9,
              only=("conjugation_involution",)):
    cfg = SuiteConfig(dims=dims, signatures=signatures, samples=samples, seed=seed,
                      tolerance=tolerance)
    return run_invariant_suite(cfg, only=only)


def poly_term(exps=(1, 0, 0), coeff=1.0):
    return Poly(3, {exps: coeff})


def chart_entry(entry=1.0):
    return PolyChart(3, [[entry, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


# each entry point with valid, cheap values of the arguments a hostile value replaces
ENTRY_POINTS = [
    (formula_dim, {"space": "r", "n": 3}),
    (sample, {"space": "r", "dim": 3, "signature": (2, 1), "seed": 0, "index": 0}),
    (dimension_reports, {"dim": 3, "signature": (2, 1)}),
    (suite_run, {"dims": (3,), "signatures": ((3, 0),), "samples": 1, "seed": 0,
                 "tolerance": 1e-9, "only": ("conjugation_involution",)}),
    (wedge_r, {"h": EYE, "k": EYE, "r": 1.0}),
    (wedge, {"h": EYE, "k": EYE}),
    (dot_product, {"h": EYE, "k": EYE}),
    (lambda omega, theta: sigma_split(omega, theta, G), {"omega": np.zeros((3, 3)), "theta": EYE}),
    (build_scalar_product, {"matrix": EYE}),
    (G.rescaled, {"c": 2.0}),
    (Poly, {"nvars": 3, "terms": {(1, 0, 0): 1.0}}),
    (poly_term, {"exps": (1, 0, 0), "coeff": 1.0}),
    (PolyChart, {"dim": 3, "metric": EYE.tolist(), "cubic": None}),
    (chart_entry, {"entry": 1.0}),
    (lambda point, which: curvature_at(CHART, point, which),
     {"point": [0.1, 0.2, 0.3], "which": "nabla"}),
    (lambda point: conjugate_triple_report(CHART, point), {"point": [0.1, 0.2, 0.3]}),
    (lambda config: run_invariant_suite(config, only=("conjugation_involution",)),
     {"config": SuiteConfig(dims=(3,), signatures=((3, 0),), samples=1)}),
    (lambda t: w_decompose(t, G), {"t": sample("r", 3)}),
    (lambda t: w_projections(t, G), {"t": sample("r", 3)}),
    (lambda t: a_projections(t, G), {"t": sample("r", 3)}),
    (lambda t, space, tol: membership(t, G, space, tol), {"t": sample("r", 3), "space": "r",
                                                          "tol": 1e-10}),
]
# a hostile value, or a short list of them: a ragged or mixed nest
VALUES = st.one_of(st.sampled_from(HOSTILE), st.lists(st.sampled_from(HOSTILE), max_size=3))


@st.composite
def hostile_call(draw):
    call, valid = draw(st.sampled_from(ENTRY_POINTS))
    name = draw(st.sampled_from(sorted(valid)))
    value = draw(VALUES)
    if name == "exps":
        try:  # a key of the terms dict
            hash(value)
        except TypeError:
            assume(False)
    # a sample count past the float range is valid, and would run as long as it asks
    assume(not (name == "samples" and isinstance(value, int) and value > 10**6))
    return call, {**valid, name: value}


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(case=hostile_call())
def test_public_entry_points_refuse_hostile_arguments(case):
    call, kwargs = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(**kwargs)
        except CurvdecError:
            pass


def test_typed_refusals_of_arguments_that_once_escaped():
    # an array as the space tag met numpy's ambiguous truth value, a config that is no
    # SuiteConfig an AttributeError, and w_projections read t without the tensor gate
    t = sample("r", 3)
    with pytest.raises(UnknownSpace):
        membership(t, G, np.ones(2))
    for config in (5, [1]):
        with pytest.raises(CurvdecError, match="config must be a SuiteConfig"):
            run_invariant_suite(config)
    for bad in ({}, [["x"]], 10**400):
        for project in (w_projections, a_projections):
            with pytest.raises(NonFiniteInput, match="^the tensor is not a real number"):
                project(bad, G)
