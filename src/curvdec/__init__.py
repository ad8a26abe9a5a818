"""Algebra of generalized and equiaffine curvature tensors.

Membership tests for the tensor tower a < f < r < co over pseudo-Euclidean
scalar products of arbitrary signature, Ricci-type traces and conjugation,
two eight-part orthogonal decompositions plus the classical three-part split
of algebraic tensors, reproducible subspace samplers, subspace dimensions
read off projector traces, and a polynomial chart lab that realizes conjugate
connection triples and verifies their curvature identities pointwise.
"""
from .charts import PolyChart, TripleReport, conjugate_triple_report, curvature_at
from .decomp import (
    DecompositionResult,
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
from .errors import (
    CurvdecError,
    DegenerateAtPoint,
    DegenerateMetric,
    DimensionMismatch,
    DimensionTooSmall,
    EmptyRun,
    EmptySpace,
    FormSymmetryViolation,
    LengthMismatch,
    NegativeStreamKey,
    NonFiniteInput,
    NonPositiveFactor,
    NotAlgebraic,
    NotGeneralizedCurvature,
    NotSymmetric,
    SchemaError,
    UnknownCheck,
    UnknownConnection,
    UnknownSpace,
)
from .linalg import (
    ScalarProduct,
    build_scalar_product,
    standard_scalar_product,
    tensor_pairing,
)
from .poly import Poly
from .sampling import (
    DimensionReport,
    dimension_reports,
    formula_dim,
    sample,
)
from .spaces import (
    RicciReport,
    bianchi_project,
    conjugate,
    dot_product,
    membership,
    mu,
    psi,
    ricci,
    ricci_star,
    ricci_traces,
    scalar_curvature,
    wedge,
    wedge_r,
)
from .suite import CHECKS, SuiteConfig, run_invariant_suite

__version__ = "0.1.0"
