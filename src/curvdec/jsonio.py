"""JSON documents: tensors, decompositions, dimension reports, charts.

All indices in documents are 0-based.  Rank-4 entries are stored flat in row-major
(i, j, k, l) order.  orjson reads every document and writes every one in one call:
sorted keys, compact separators, a trailing newline, and float text that reads back
bit for bit, -0.0 included.  The arrays a document builder hands it are C-contiguous
float64: each rank-4 entry 1-D, the metric and the Gram (orthogonality) matrix 2-D.
"""
from __future__ import annotations

import contextlib
import dataclasses
import math
from functools import partial
from itertools import permutations
from operator import mul

import numpy as np
import orjson

from .charts import PolyChart, TripleReport, _chart_dim
from .decomp import DecompositionResult
from .errors import LengthMismatch, NonFiniteInput, SchemaError
from .linalg import ScalarProduct, _integer, build_scalar_product, standard_scalar_product
from .poly import _MAX_EXPONENT
from .sampling import DimensionReport

_OPTIONS = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE


def dumps(obj) -> str:
    """Canonical JSON: sorted keys, trailing newline; else NonFiniteInput, as for NaN/Infinity."""
    if not _all_finite(obj):  # orjson would write null, which a report also holds for None
        raise NonFiniteInput("result is not finite")
    try:
        return orjson.dumps(obj, option=_OPTIONS).decode()
    except orjson.JSONEncodeError as exc:
        raise NonFiniteInput(f"result cannot be written: {exc}") from None


def _all_finite(obj) -> bool:
    """Whether every float and array entry in a document is finite."""
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, np.ndarray):
        return bool(np.isfinite(obj).all())
    if isinstance(obj, dict):
        return all(map(_all_finite, obj.values()))
    return not isinstance(obj, (list, tuple)) or all(map(_all_finite, obj))


def _loads(data):
    """A document from JSON text or bytes; a document already read is returned as it is."""
    if not isinstance(data, (str, bytes, bytearray)):
        return data
    try:  # orjson refuses NaN, Infinity, a number past the float range and bad UTF-8
        return orjson.loads(data)
    except orjson.JSONDecodeError as exc:  # nesting past 1,024 levels too
        raise SchemaError("$", f"invalid JSON: {exc}") from exc


def _require(doc, key):
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected an object")
    if key not in doc:
        raise SchemaError(f"$.{key}", "missing required field")
    return doc[key]


def _as_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path(), f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the double range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(path(), "expected a finite number")
    return number


def _as_numbers(values, path) -> np.ndarray:
    """values as a float array, as _as_number reads each; path(i) names entry i and is
    built only for the first entry refused."""
    if set(map(type, values)) <= {float, int}:  # not bool: np.array reads True as 1.0
        with contextlib.suppress(OverflowError):  # refused below, as by _as_number
            array = np.array(values, dtype=float)
            if np.isfinite(array).all():
                return array
    return np.array([_as_number(v, lambda i=i: path(i)) for i, v in enumerate(values)])


def parse_tensor(data) -> tuple[np.ndarray, ScalarProduct]:
    """Read a tensor document into (rank-4 array, scalar product).

    A missing "g" defaults to the diagonal form of the declared signature.
    """
    doc = _loads(data)
    n = _integer(_require(doc, "dim"), partial(SchemaError, "$.dim"), "dim")
    sig = _require(doc, "signature")
    if not isinstance(sig, list) or len(sig) != 2:
        raise SchemaError("$.signature", "expected [p, q]")
    p = _integer(sig[0], partial(SchemaError, "$.signature[0]"), "a signature entry")
    q = _integer(sig[1], partial(SchemaError, "$.signature[1]"), "a signature entry")
    if p < 0 or q < 0 or p + q != n:
        raise SchemaError("$.signature", f"signature ({p},{q}) inconsistent with dim {n}")
    flat = _require(doc, "R")
    if not isinstance(flat, (list, np.ndarray)):  # an array: tensor_document's own output
        raise SchemaError("$.R", "expected a flat array")
    if len(flat) != n**4:
        raise LengthMismatch("$.R", f"expected {n**4} entries, got {len(flat)}")
    tensor = _as_numbers(flat, lambda i: f"$.R[{i}]").reshape(n, n, n, n)
    if "g" in doc:
        gm = doc["g"].tolist() if isinstance(doc["g"], np.ndarray) else doc["g"]  # array: as R
        if (
            not isinstance(gm, list)
            or len(gm) != n
            or any(not isinstance(row, list) or len(row) != n for row in gm)
        ):
            raise SchemaError("$.g", f"expected an {n}x{n} matrix")
        matrix = [_as_numbers(row, lambda j, i=i: f"$.g[{i}][{j}]") for i, row in enumerate(gm)]
        g = build_scalar_product(matrix)
        if g.signature != (p, q):
            raise SchemaError(
                "$.signature", f"declared ({p},{q}) but g has signature {g.signature}"
            )
    else:
        g = standard_scalar_product(p, q)
    return tensor, g


def tensor_document(tensor, g: ScalarProduct, include_g: bool | None = None) -> dict:
    doc = {
        "dim": g.dim,
        "signature": list(g.signature),
        "R": np.asarray(tensor, dtype=float).ravel(),
    }
    if include_g is None:
        include_g = not np.array_equal(g.matrix, standard_scalar_product(*g.signature).matrix)
    if include_g:
        doc["g"] = np.ascontiguousarray(g.matrix, dtype=float)  # orjson refuses other orders
    return doc


def decomposition_document(
    result: DecompositionResult, g: ScalarProduct, include_g: bool | None = None
) -> dict:
    return {
        "mode": result.mode,
        "dim": g.dim,
        "signature": list(g.signature),
        "components": [tensor_document(c, g, include_g) for c in result.components],
        "completeness_residual": result.completeness_residual,
        "orthogonality_matrix": np.ascontiguousarray(result.orthogonality_matrix, dtype=float),
    }


def dimension_document(report: DimensionReport) -> dict:
    """The report's fields: integers and a verdict, no float."""
    return dataclasses.asdict(report)


def triple_report_document(rep: TripleReport) -> dict:
    return {
        "point": rep.point.tolist(),
        "R": rep.r.ravel(),
        "R_star": rep.r_star.ravel(),
        "R_g": rep.r_g.ravel(),
        "C": rep.c_op.ravel(),
        "C_tilde": rep.c_tilde.ravel(),
        "tchebychev_form": rep.tchebychev_form.tolist(),
        "tchebychev_vector": rep.tchebychev_vector.tolist(),
        "pick_invariant": rep.pick_invariant,
        "tau": rep.tau,
        "kappa": rep.kappa,
        "identity_residuals": dict(rep.identity_residuals),
    }


# -- charts -----------------------------------------------------------------


def _integers(key, sep, count, top, path, what):
    """The count sep-separated integers of a key, each in 0..top; else SchemaError at path."""
    with contextlib.suppress(ValueError):  # a part that is no integer, or no part at all
        ints = tuple(map(int, key.split(sep)))
        if len(ints) == count and 0 <= min(ints) and max(ints) <= top:
            return ints
    raise SchemaError(path, f"expected {count} {what}, got {key!r}")


def _parse_terms(entry, n, path, known):
    """A polynomial entry as a term dict, {exponents: coefficient}, summed in document order
    as `Poly` sums, a zero sum dropped; known maps the exponent keys read so far."""
    if not isinstance(entry, dict):
        raise SchemaError(path, "expected a map of exponent keys to coefficients")
    terms = {}
    for ekey, coeff in entry.items():
        if (exps := known.get(ekey)) is None:
            exps = known[ekey] = _integers(ekey, None, n, _MAX_EXPONENT, f"{path}[{ekey!r}]",
                                           f"space-separated exponents in 0..{_MAX_EXPONENT}")
        if coeff := _as_number(coeff, lambda: f"{path}[{ekey!r}]"):
            terms[exps] = terms.get(exps, 0.0) + coeff
    return {e: c for e, c in terms.items() if c}


def _read_field(entries, name, n, rank, columns, known):
    """Put each sorted-index entry's term dict in columns at every permutation's table
    column.  n is in 3..charts.MAX_DIM: parse_chart refuses any other dim first."""
    if not isinstance(entries, dict):
        raise SchemaError(f"$.{name}", "expected an object")
    first, strides = (rank - 2) * n * n, (n * n, n, 1)[-rank:]  # metric columns, then cubic
    for key, entry in entries.items():
        path = f"$.{name}[{key!r}]"
        idx = _integers(key, ",", rank, n - 1, path, f"comma-separated indices in 0..{n - 1}")
        if list(idx) != sorted(idx):
            raise SchemaError(path, f"indices must be sorted (upper-triangular), got {key!r}")
        cols = [first + sum(map(mul, perm, strides)) for perm in permutations(idx)]
        if cols[0] in columns:  # the column of idx itself, the first permutation
            raise SchemaError(path, f"index {idx} given twice")
        columns.update(dict.fromkeys(cols, _parse_terms(entry, n, path, known)))


def parse_chart(data) -> PolyChart:
    """Read a chart document straight into the chart's monomial table: symmetric entries
    stored with sorted indices only, each index once.  An optional "domain_note" must be
    a string and is not used."""
    doc = _loads(data)
    n = _chart_dim(_integer(_require(doc, "dim"), partial(SchemaError, "$.dim"), "dim"))
    columns, known = {}, {}
    _read_field(_require(doc, "metric"), "metric", n, 2, columns, known)
    if "cubic" in doc:
        _read_field(doc["cubic"], "cubic", n, 3, columns, known)
    if not isinstance(doc.get("domain_note", ""), str):
        raise SchemaError("$.domain_note", "expected a string")
    return PolyChart._from_columns(n, columns)
