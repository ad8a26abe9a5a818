"""JSON documents: tensors, decompositions, dimension reports, charts.

All indices in documents are 0-based.  Rank-4 entries are stored flat in row-major
(i, j, k, l) order, as 1-D float arrays that dumps writes byte for byte as json writes
their lists (floats round-trip bit-exactly): one orjson call writes all of a document's
arrays, and the entries where its text is not repr's, 1e-10 <= |x| < 1e-4 and |x| >= 1e16,
are refilled with repr's text, each distinct |x| formatted once.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import math
from functools import partial
from itertools import accumulate, chain, permutations
from operator import mul

import numpy as np
import orjson

from .charts import PolyChart, TripleReport, _chart_dim
from .decomp import DecompositionResult
from .errors import LengthMismatch, NonFiniteInput, SchemaError
from .linalg import ScalarProduct, _integer, build_scalar_product, standard_scalar_product
from .poly import _MAX_EXPONENT
from .sampling import DimensionReport


def dumps(obj) -> str:
    """Canonical JSON: sorted keys, trailing newline; NonFiniteInput for NaN/Infinity."""
    arrays = []

    def hold(value):  # json calls it for each array, in output order, and writes "\u0000"
        if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype == float:
            return arrays.append(value) or "\0"  # every array of a document shares one pass
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    try:
        text = json.dumps(obj, sort_keys=True, allow_nan=False, default=hold)
        if arrays:  # NaN or inf in an array, or "\u0000" in a string: json writes the lists
            text = _with_arrays(text.split('"\\u0000"'), arrays) or json.dumps(
                obj, sort_keys=True, allow_nan=False, default=np.ndarray.tolist)
        return text + "\n"
    except ValueError as exc:  # allow_nan=False refuses NaN and infinities
        raise NonFiniteInput(f"result is not finite: {exc}") from exc


def _with_arrays(parts, arrays) -> str | None:
    """parts joined by json's text of each array; None for NaN, inf or a stray slot."""
    work = np.concatenate(arrays)
    if len(parts) != len(arrays) + 1 or not np.isfinite(work).all():
        return None
    odd = ((mag := np.abs(work)) >= 1e16) | ((mag >= 1e-10) & (mag < 1e-4))  # not repr's layout
    distinct, rank = np.unique(mag[odd], return_inverse=True)
    reprs = list(map(float.__repr__, distinct.tolist()))
    table = np.array(reprs + ["-" + r for r in reprs], dtype=object)
    code = rank + len(reprs) * np.signbit(work[odd])  # "-" where the sign bit is set
    work[odd] = np.nan  # orjson writes null, refilled with repr's text
    pieces = np.split(work, list(accumulate(map(len, arrays[:-1]))))
    chunks = orjson.dumps(pieces, option=orjson.OPT_SERIALIZE_NUMPY).decode().split("null")
    text = "".join(chain(*zip(chunks, table[code].tolist()), chunks[-1:])).replace(",", ", ")
    out = ("[" + a + "]" for a in text[2:-2].split("], ["))  # each array's text, bracketed
    return "".join(chain(*zip(parts, out), parts[-1:]))


def _loads(data):
    def _reject(name):
        raise SchemaError("$", f"non-finite constant {name} not allowed")
    try:
        if isinstance(data, (bytes, bytearray)):
            data = data.decode("utf-8")
        if isinstance(data, str):
            return json.loads(data, parse_constant=_reject)
    except (ValueError, RecursionError) as exc:  # bad UTF-8/JSON, too deep, huge integer
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    return data


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
    if all(type(v) is float or type(v) is int for v in values):
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
        gm = doc["g"]
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
        doc["g"] = g.matrix.tolist()
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
        "orthogonality_matrix": result.orthogonality_matrix.tolist(),
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
