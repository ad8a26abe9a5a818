import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest
from chart_helpers import hessian_chart, random_factor, random_potential
from hypothesis import given, settings
from hypothesis import strategies as st

from curvdec.charts import MAX_DIM, PolyChart
from curvdec.cli import main
from curvdec.errors import (
    DegenerateMetric, DimensionMismatch, LengthMismatch, NonFiniteInput, SchemaError,
)
from curvdec.decomp import a_decompose, singer_thorpe, w_decompose
from curvdec.jsonio import (decomposition_document, dumps, parse_chart, parse_tensor,
                            tensor_document)
from curvdec.linalg import build_scalar_product, standard_scalar_product
from curvdec.poly import Poly
from curvdec.sampling import sample
from curvdec.spaces import wedge


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "curvdec.cli", *args], capture_output=True, text=True, **kwargs
    )


# -- tensor documents ---------------------------------------------------------


def test_minimal_zero_document():
    doc = {"dim": 3, "signature": [3, 0], "R": [0.0] * 81}
    tensor, g = parse_tensor(dumps(doc))
    assert np.array_equal(tensor, np.zeros((3, 3, 3, 3)))
    assert np.array_equal(g.matrix, np.eye(3))


def test_default_metric_from_signature():
    doc = {"dim": 3, "signature": [2, 1], "R": [0.0] * 81}
    _, g = parse_tensor(dumps(doc))
    assert np.array_equal(g.matrix, np.diag([1.0, 1.0, -1.0]))


def test_length_mismatch_names_expected_count():
    doc = {"dim": 3, "signature": [3, 0], "R": [0.0] * 80}
    with pytest.raises(LengthMismatch, match="81"):
        parse_tensor(dumps(doc))


def test_schema_errors_carry_paths():
    with pytest.raises(SchemaError, match=r"\$\.dim"):
        parse_tensor(dumps({"signature": [3, 0], "R": [0.0] * 81}))
    with pytest.raises(SchemaError, match=r"\$\.signature"):
        parse_tensor(dumps({"dim": 3, "signature": [3], "R": [0.0] * 81}))
    with pytest.raises(SchemaError, match=r"\$\.R\[0\]"):
        parse_tensor(dumps({"dim": 3, "signature": [3, 0], "R": ["x"] + [0.0] * 80}))
    with pytest.raises(SchemaError, match="signature"):
        parse_tensor(
            dumps({"dim": 3, "signature": [3, 0], "g": np.diag([1.0, 1.0, -1.0]).tolist(),
                   "R": [0.0] * 81})
        )


def test_non_finite_numbers_rejected():
    # 1e400 parses to inf and 10**400 has no double; neither may reach the gate
    doc = {"dim": 3, "signature": [3, 0], "R": [0.5] + [0.0] * 80}
    for bad in ("1e400", "-1e400", str(10**400)):
        with pytest.raises(SchemaError, match=r"\$\.R\[0\]"):
            parse_tensor(dumps(doc).replace("0.5", bad, 1))
    doc["g"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]]
    with pytest.raises(SchemaError, match=r"\$\.g\[2\]\[2\]"):
        parse_tensor(dumps(doc).replace("0.0, 0.5]", "0.0, 1e400]", 1))


def test_numbers_read_exactly_and_first_bad_entry_named():
    # ints, floats and integers past 2**63 read as float(v); the error names the first bad entry
    flat = [1, 0.5, 2**53 + 1, -(2**70) - 3, 2**64 - 1] + [0.25] * 76
    tensor, _ = parse_tensor(dumps({"dim": 3, "signature": [3, 0], "R": flat}))
    assert tensor.ravel().tolist() == [float(v) for v in flat]
    for bad, message in (("x", "expected a number, got 'x'"), (True, "expected a number, got True"),
                         (None, "expected a number, got None"), (10**400, "expected a finite number")):
        doc = {"dim": 3, "signature": [3, 0], "R": [0.0] * 81}
        doc["R"][7], doc["R"][30] = bad, "y"
        with pytest.raises(SchemaError, match=re.escape(f"$.R[7]: {message}")):
            parse_tensor(dumps(doc))
        doc["R"][7] = 0.0
        doc["g"] = [[1, 0, 0], [0, 1, bad], ["z", 0, 1]]
        with pytest.raises(SchemaError, match=re.escape("$.R[30]: expected a number, got 'y'")):
            parse_tensor(dumps(doc))
        doc["R"][30] = 0
        with pytest.raises(SchemaError, match=re.escape(f"$.g[1][2]: {message}")):
            parse_tensor(dumps(doc))


def test_degenerate_metric_in_document():
    doc = {
        "dim": 3,
        "signature": [3, 0],
        "g": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
        "R": [0.0] * 81,
    }
    with pytest.raises(DegenerateMetric):
        parse_tensor(dumps(doc))


def test_round_trip_bit_exact():
    g = standard_scalar_product(2, 1)
    t = sample("r", 3, (2, 1), seed=31)
    doc = tensor_document(t, g)
    text = dumps(doc)
    t2, g2 = parse_tensor(text)
    assert np.array_equal(t, t2)
    assert np.array_equal(g.matrix, g2.matrix)
    assert dumps(tensor_document(t2, g2)) == text
    t3, _ = parse_tensor(doc)  # the document itself, whose R is an array
    assert np.array_equal(t, t3)


def test_explicit_metric_round_trip():
    m = np.diag([2.0, 1.0, 1.0])
    g = build_scalar_product(m)
    t = wedge(g.matrix, g.matrix)
    doc = tensor_document(t, g)
    assert "g" in doc
    t2, g2 = parse_tensor(dumps(doc))
    assert np.array_equal(t, t2)
    assert np.array_equal(g2.matrix, m)


MAX = 1.7976931348623157e308
G31 = standard_scalar_product(3, 1)


def both(values, size=300):
    """values as a float array and, repeated up to size entries, as a longer one."""
    return [np.array(values, dtype=float), np.resize(np.array(values, dtype=float), size)]


def decomposition_documents(n):
    """The W, A and ST documents of an algebraic tensor under a non-diagonal metric: exact
    zeros, roundoff below 1e-10 and A1 entries in [1e-5, 1e-4)."""
    a = np.eye(n) + 0.05 * np.tri(n, k=-1)
    g = build_scalar_product(a.T @ standard_scalar_product(n - 1, 1).matrix @ a)
    t = np.einsum("pqrs,pi,qj,rk,sl->ijkl", sample("a", n, (n - 1, 1), seed=5), a, a, a, a)
    return [decomposition_document(f(t, g), g) for f in (w_decompose, a_decompose, singer_thorpe)]


WRITER_CASES = {
    "extremes": {"R": both([0.0, -0.0, 5e-324, -5e-324, MAX, -MAX])},
    "signed_repeats": {"R": both([0.1, -0.1, 0.1, 2.5, -2.5, -0.0, 0.0, 1 / 3, -1 / 3, -0.1])},
    "empty_and_one": {"a": np.array([]), "b": np.array([-7.25]), "c": both([-0.0])},
    "beside_floats_and_dicts": {
        "tau": -0.1,
        "x": {"R": both([0.1, -2.0]), "w": [np.array([2.0, 0.1]), 3.5, None], "m": "W"},
        "z": [[1.0, -0.0], {"C": both([5e-324, -0.1], 128)}],
    },
    "sampled_tensors": {
        "components": [tensor_document(sample(space, n, (n - 1, 1), seed=8),
                                       standard_scalar_product(n - 1, 1))
                       for n in (3, 4, 8) for space in ("r", "a", "co")],
    },
    "band_edges": {"R": both([x for v in (1e-4, np.nextafter(1e-4, 0), 1e-5, 1e-10,
                                          np.nextafter(1e-10, 0), 9999999999999998.0, 1e16,
                                          1e22) for x in (v, -v)] + [5e-324])},
    "decompositions": {"n4": decomposition_documents(4), "n8": decomposition_documents(8)},
    "batches": {"R": [np.random.default_rng(3).standard_normal(m).round(2)
                      for m in [300] * 20 + [5000, 130, 4096]]},
    "slot_text_in_a_string": {"note": "\0", "R": both([0.5, -0.5])},
}


def assert_dumps_as_json(doc):
    # names the first difference: pytest's own diff of a megabyte document takes minutes
    got, want = dumps(doc), json.dumps(doc, sort_keys=True, default=np.ndarray.tolist) + "\n"
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        pytest.fail(f"first difference at {at}: {got[at:at + 60]!r} != {want[at:at + 60]!r}")


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_dumps_writes_arrays_as_json_writes_lists(case):
    assert_dumps_as_json(WRITER_CASES[case])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40),
                max_size=4))
def test_dumps_writes_any_finite_arrays_as_json_writes_lists(lists):
    # 0-4 arrays, empty ones too, of doubles of every exponent, subnormals and both limits
    assert_dumps_as_json({"R": [np.array(values, dtype=float) for values in lists], "tau": 0.5})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dumps_refuses_non_finite_array_entries(bad):
    for size in (3, 300):
        values = np.resize([0.5, -0.5], size)
        values[size // 2] = bad
        for doc in ({"R": values}, {"x": [0.5, {"R": values, "C": np.ones(200)}]}):
            with pytest.raises(NonFiniteInput):
                dumps(doc)


def test_dumps_refuses_what_json_cannot_write():
    # a 2-D or integer array and a numpy integer are refused as json refuses them
    for value in (np.eye(2), np.arange(3), np.int64(3)):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            dumps({"R": value})


# -- chart documents ----------------------------------------------------------


def chart_doc():
    return {
        "dim": 3,
        "metric": {
            "0,0": {"0 0 0": 1.0, "2 0 0": 0.3},
            "0,1": {"1 0 0": 0.1},
            "1,1": {"0 0 0": 1.0},
            "2,2": {"0 0 0": 1.0},
        },
        "cubic": {"0,0,1": {"0 0 0": 0.25, "0 1 0": -0.1}},
        "domain_note": "nondegenerate near the origin",
    }


def test_chart_parse_and_symmetrize():
    # the sorted entries fill their permutations: equal columns of the chart's table
    chart = parse_chart(dumps(chart_doc()))
    _, coeffs = chart._table
    g, c = coeffs[:, :9].reshape(-1, 3, 3), coeffs[:, 9:].reshape(-1, 3, 3, 3)
    assert g[:, 0, 1].any() and np.array_equal(g[:, 1, 0], g[:, 0, 1])
    assert c[:, 0, 0, 1].any() and np.array_equal(c[:, 1, 0, 0], c[:, 0, 0, 1])
    assert chart.metric_at((0.0, 0.0, 0.0)).matrix[0, 0] == 1.0
    # the note is checked as a string and not kept
    with pytest.raises(SchemaError, match="domain_note"):
        parse_chart(dumps({**chart_doc(), "domain_note": 1}))


def test_chart_rejects_unsorted_or_bad_keys():
    doc = chart_doc()
    doc["metric"]["1,0"] = {"0 0 0": 1.0}
    with pytest.raises(SchemaError, match="sorted"):
        parse_chart(dumps(doc))
    doc = chart_doc()
    doc["metric"]["0,0"] = {"0 0": 1.0}
    with pytest.raises(SchemaError, match="exponents"):
        parse_chart(dumps(doc))
    doc = chart_doc()
    doc["cubic"]["0,3,0"] = {"0 0 0": 1.0}
    with pytest.raises(SchemaError):
        parse_chart(dumps(doc))


def test_chart_rejects_non_finite_coefficient():
    text = dumps(chart_doc()).replace("0.25", "1e400", 1)
    with pytest.raises(SchemaError, match="finite"):
        parse_chart(text)


def test_chart_dimension_bounded_before_allocation(tmp_path):
    # a dim past charts.MAX_DIM is refused before a field is allocated: at dim 100000
    # the metric field alone would take 74.5 GiB; a chart at the bound still parses
    doc = {"dim": 100_000, "metric": {}, "cubic": {}}
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatch, match=f"3..{MAX_DIM}, got 100000"):
            parse_chart(dumps(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    path = tmp_path / "huge.json"
    path.write_text(dumps(doc))
    r = run_cli("chart", "--input", str(path), "--point", "0,0,0")
    assert r.returncode == 1 and r.stdout == "" and "Traceback" not in r.stderr
    assert r.stderr.count("\n") == 1 and r.stderr.startswith("error: ")
    one = {" ".join(["0"] * MAX_DIM): 1.0}
    at_bound = {"dim": MAX_DIM, "metric": {f"{i},{i}": one for i in range(MAX_DIM)}, "cubic": {}}
    assert parse_chart(dumps(at_bound)).dim == MAX_DIM
    with pytest.raises(DimensionMismatch):
        parse_chart(dumps({**at_bound, "dim": MAX_DIM + 1}))


def test_chart_exponent_bounded(tmp_path):
    # an exponent above 2**31 - 1 is refused at its key: 10**20 overflowed the table's
    # int64 and 2**32 wrapped its second-derivative factor e(e - 1); the bound itself
    # reads, with its factor exact
    path, top = tmp_path / "chart.json", 2**31 - 1
    for e in (10**20, 2**32, top + 1):
        doc = chart_doc()
        doc["metric"]["0,1"] = {f"{e} 0 0": 0.5}
        path.write_text(dumps(doc))
        r = run_cli("chart", "--input", str(path), "--point", "1,0,0")
        assert r.returncode == 1 and r.stdout == "" and "Traceback" not in r.stderr
        assert r.stderr.startswith(f"error: $.metric['0,1']['{e} 0 0']: expected 3 ")
    doc["metric"]["0,1"] = {f"{top} 0 0": 0.5}
    path.write_text(dumps(doc))
    assert run_cli("chart", "--input", str(path), "--point", "1,0,0").returncode == 0
    d2g = parse_chart(dumps(doc))._point_data((1.0, 0.0, 0.0))["d2g"]
    assert d2g[0, 0, 0, 1] == pytest.approx(0.5 * top * (top - 1))


def nested_fields(doc):
    """A chart document's metric and cubic (None if absent) as the nested Poly arrays of
    the PolyChart constructor, each sorted entry set in all its permutations."""
    n = doc["dim"]

    def field(entries, rank):
        out = np.full((n,) * rank, Poly(n), dtype=object)
        for key, entry in entries.items():
            poly = Poly(n, {tuple(map(int, e.split())): c for e, c in entry.items()})
            for perm in permutations(map(int, key.split(","))):
                out[perm] = poly
        return out.tolist()

    return field(doc["metric"], 2), field(doc["cubic"], 3) if "cubic" in doc else None


def table_document(chart):
    """The chart document of a chart's table: each sorted index with its nonzero terms."""
    n, (exps, coeffs) = chart.dim, chart._table

    def field(rank):
        entries = {}
        for idx in combinations_with_replacement(range(n), rank):
            column = coeffs[:, (rank - 2) * n * n + np.ravel_multi_index(idx, (n,) * rank)]
            terms = {" ".join(map(str, e)): c for e, c in zip(exps.tolist(), column.tolist()) if c}
            entries[",".join(map(str, idx))] = terms
        return entries

    return {"dim": n, "metric": field(2), "cubic": field(3)}


def random_document(rng, n):
    """A dense chart document: every sorted index holds random terms of degree <= 2."""

    def terms(constant=0.0):
        out = {" ".join(["0"] * n): constant} if constant else {}
        for _ in range(3):
            e = np.zeros(n, dtype=int)
            np.add.at(e, rng.integers(0, n, rng.integers(0, 3)), 1)
            out[" ".join(map(str, e))] = 0.1 * rng.uniform(-1.0, 1.0)
        return out

    return {
        "dim": n,
        "metric": {f"{i},{j}": terms(1.0 if i == j else 0.0)
                   for i, j in combinations_with_replacement(range(n), 2)},
        "cubic": {",".join(map(str, idx)): terms()
                  for idx in combinations_with_replacement(range(n), 3)},
    }


def assert_same_table(a, b):
    for x, y in zip(a._table, b._table):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def test_document_table_equals_nested_constructor_table():
    # a document is read straight into the table the nested-array constructor builds
    rng = np.random.default_rng(5)
    no_cubic = {k: v for k, v in chart_doc().items() if k != "cubic"}
    docs = [chart_doc(), no_cubic] + [random_document(rng, n) for n in (3, 4, 5)]
    for doc in docs:
        assert_same_table(parse_chart(dumps(doc)), PolyChart(doc["dim"], *nested_fields(doc)))
    for n in range(3, 7):  # both oracle families of the chart tests
        phi = random_potential(rng, n)
        for chart in (hessian_chart(n, phi), hessian_chart(n, phi, random_factor(rng, n))):
            assert_same_table(parse_chart(dumps(table_document(chart))), chart)


def test_chart_entry_sums_equal_monomials():
    # "1 0 0" and "1  0 0" name one monomial: summed in document order, dropped at zero
    for extra, expected in ((0.25, {"1 0 0": 0.1 + 0.25}), (-0.1, {})):
        doc = chart_doc()
        doc["metric"]["0,1"] = {"1 0 0": 0.1, "1  0 0": extra}
        want = chart_doc()
        want["metric"]["0,1"] = expected
        assert_same_table(parse_chart(json.dumps(doc)), parse_chart(dumps(want)))
    exps, _ = parse_chart(json.dumps(doc))._table
    assert [1, 0, 0] not in exps.tolist()


def test_chart_refusals_name_their_entry():
    for field, value, path, message in (
        ("metric", [[1.0, 0.0], [0.0, 1.0]], "$.metric", "expected an object"),
        ("cubic", "0.25", "$.cubic", "expected an object"),
        ("cubic", {"0,0,1": [0.25]}, "$.cubic['0,0,1']", "expected a map of exponent keys"),
        ("cubic", {"0,0,1": {"0 0 0": True}}, "$.cubic['0,0,1']['0 0 0']",
         "expected a number, got True"),
        # an index given twice under two spellings: the later key is named
        ("metric", {"0,0": {"0 0 0": 1.0}, "0,1": {"1 0 0": 0.5}, "0, 1": {"0 1 0": 0.25}},
         "$.metric['0, 1']", "index (0, 1) given twice"),
        ("cubic", {"0,1,2": {"0 0 0": 1.0}, "0,1,02": {"0 0 0": 1.0}},
         "$.cubic['0,1,02']", "index (0, 1, 2) given twice"),
    ):
        with pytest.raises(SchemaError, match=re.escape(f"{path}: {message}")) as info:
            parse_chart(json.dumps({**chart_doc(), field: value}))
        assert info.value.path == path


# -- CLI ----------------------------------------------------------------------


def test_cli_decompose_wedge_square(tmp_path):
    g = standard_scalar_product(3, 0)
    gg = wedge(g.matrix, g.matrix)
    path = tmp_path / "gg.json"
    path.write_text(dumps(tensor_document(gg, g)))
    r = run_cli("decompose", "--mode", "w", "--input", str(path))
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["mode"] == "W"
    assert out["completeness_residual"] <= 1e-12
    first = np.array(out["components"][0]["R"])
    assert np.max(np.abs(first - gg.ravel())) <= 1e-12
    for comp in out["components"][1:]:
        assert max(abs(v) for v in comp["R"]) <= 1e-12


def test_cli_decompose_st_requires_algebraic(tmp_path):
    g = standard_scalar_product(3, 0)
    t = sample("s", 3, (3, 0), seed=2)
    path = tmp_path / "s.json"
    path.write_text(dumps(tensor_document(t, g)))
    r = run_cli("decompose", "--mode", "st", "--input", str(path))
    assert r.returncode == 1
    assert "residual" in r.stderr


def test_cli_sample_deterministic_and_output_file(tmp_path):
    out = tmp_path / "sample.json"
    r1 = run_cli("sample", "--space", "a", "--dim", "3", "--seed", "9",
                 "--output", str(out))
    assert r1.returncode == 0
    r2 = run_cli("sample", "--space", "a", "--dim", "3", "--seed", "9")
    assert out.read_text() == r2.stdout
    doc = json.loads(r2.stdout)
    assert doc["dim"] == 3 and len(doc["R"]) == 81


def test_cli_dims_formula_values():
    r = run_cli("dims", "--dim", "3", "--signature", "3,0")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert {k: d[k]["empirical_dim"] for k in ("r", "a", "f", "p")} == {
        "r": 24, "a": 6, "f": 21, "p": 15,
    }
    assert d["W6"]["empirical_dim"] == 0
    assert all(not d[k]["inconclusive"] for k in d)


def test_cli_dims_output_independent_of_blas_threads():
    # the reports hold integers and verdicts, no float whose last bits could follow the
    # BLAS kernel and its thread count
    outs = [run_cli("dims", "--dim", "5", env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            for threads in ("1", "2")]
    assert outs[0].returncode == outs[1].returncode == 0
    assert outs[0].stdout == outs[1].stdout
    values = [v for rep in json.loads(outs[0].stdout).values() for v in rep.values()]
    assert not any(isinstance(v, float) for v in values)


def test_cli_verify_single_check_and_exit_codes():
    r = run_cli("verify", "--suite", "wa_map_coincidences", "--dim", "3",
                "--signature", "3,0", "--samples", "4", "--seed", "0", "--tol", "1e-9")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert list(rep) == ["wa_map_coincidences"]
    assert rep["wa_map_coincidences"]["pass"] is True
    r = run_cli("verify", "--suite", "no_such_check")
    assert r.returncode == 2


def test_cli_verify_zero_tolerance_fails():
    r = run_cli("verify", "--dim", "3", "--signature", "3,0", "--samples", "2",
                "--seed", "0", "--tol", "0")
    assert r.returncode == 3
    rep = json.loads(r.stdout)
    fails = [k for k, v in rep.items() if not v["pass"]]
    assert "w_completeness" in fails and "a_completeness" in fails
    assert len(fails) >= len(rep) // 2


# stdout SHA-256 of `verify` and `dims` runs at one BLAS thread
OUTPUT_PINS = [
    (("verify",), "9cbcb9be0879e83206ad4b37cd83dd5c483830ee8ef7637a83e12d59189bc88d"),
    (("dims", "--dim", "5"), "6a193d41478bc4da68f55defec894880663a997fcce918cfab2880b741a7035b"),
    (
        ("verify", "--dim", "5", "--signature", "3,2", "--samples", "40"),
        "c57b9167b55802ecd2219d9e04220834ec0a6b977d9e41c1ece23119529db88b",
    ),
    # two blocks per point, the second of 8 rows
    (
        ("verify", "--samples", "40"),
        "c7631480af95c0190013769c182929b21b293fa236c150717fa66d7c0ece829a",
    ),
    # one block of 5 rows per point, fewer than a block's CHUNK: every check reads only these
    (
        ("verify", "--samples", "5"),
        "ebee89003b0d2b32826685497ef0b049eb1e1d107a48fb2591d5db6b6a31fd58",
    ),
    # one signature: nothing is shared across signatures
    (
        ("verify", "--dim", "4", "--signature", "3,1"),
        "a3a5beb9950369f485f614115efeab4b35671a54fe6e401328c35ceee918398b",
    ),
]
OUTPUT_IDS = [
    "verify", "dims5", "verify5_indefinite", "verify40", "verify5", "verify4_one_signature",
]


@pytest.mark.parametrize("args,digest", OUTPUT_PINS, ids=OUTPUT_IDS)
def test_cli_output_pinned(args, digest):
    """A speed-up must leave these reports byte-identical.

    A change that alters them on purpose updates the pin and says why in
    CHANGES.md.  They run at one BLAS thread, as the pins were taken with
    numpy's bundled OpenBLAS on x86-64.
    """
    r = run_cli(*args, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


def decompose_input(mode):
    """The pinned decompose inputs: mode w at n = 4 with a non-diagonal g, mode st at n = 8."""
    if mode == "w":
        a = np.eye(4) + 0.25 * np.tri(4, k=-1)
        g = a.T @ np.diag([1.0, 1.0, 1.0, -1.0]) @ a
        t = np.einsum("pqrs,pi,qj,rk,sl->ijkl", sample("r", 4, (3, 1), seed=5), a, a, a, a)
        return {"dim": 4, "signature": [3, 1], "g": g.tolist(), "R": t.ravel().tolist()}
    return {"dim": 8, "signature": [6, 2], "R": sample("a", 8, (6, 2), seed=5).ravel().tolist()}


# stdout SHA-256 of decompose on decompose_input(mode) at one BLAS thread
DECOMPOSE_PINS = {
    "w": "cf46e15666d1cdc58c81389a92af162ce3782c117a35bf0aac16e171210437c8",
    "st": "f6cb82ff89b6acc19b690320c4a39e7fc6c9273e0e767a4c532207f524c16e3e",
}


@pytest.mark.parametrize("mode", sorted(DECOMPOSE_PINS))
def test_cli_decompose_output_pinned(tmp_path, mode):
    """Decompose documents are byte-identical across refactors; see test_cli_output_pinned."""
    path = tmp_path / "t.json"
    path.write_text(json.dumps(decompose_input(mode)))
    r = run_cli("decompose", "--mode", mode, "--input", str(path),
                env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == DECOMPOSE_PINS[mode]


def test_cli_decompose_output_file_matches_stdout(tmp_path, capsys):
    path, out = tmp_path / "t.json", tmp_path / "out.json"
    path.write_text(json.dumps(decompose_input("w")))
    assert main(["decompose", "--mode", "w", "--input", str(path)]) == 0
    stdout = capsys.readouterr().out
    assert main(["decompose", "--mode", "w", "--input", str(path), "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == stdout and json.loads(stdout)["mode"] == "W"


# stdout SHA-256 of both chart reports on chart_doc() at one BLAS thread
CHART_PINS = {
    "curvature": "54fc7fe2af8e9770d286dc6833f0360b1ffcc6a31424784f89994d3c09b3093a",
    "triple": "455a034aa5dff9988dc0a89906b7a1592f5fed7d23e391cb427f0133a99ce0c2",
}


@pytest.mark.parametrize("report", sorted(CHART_PINS))
def test_cli_chart_output_pinned(tmp_path, report):
    """Chart reports are byte-identical across refactors; see test_cli_output_pinned."""
    path = tmp_path / "chart.json"
    path.write_text(dumps(chart_doc()))
    r = run_cli("chart", "--input", str(path), "--point", "0.1,0.0,-0.2", "--report", report,
                env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == CHART_PINS[report]


def test_cli_chart_reports(tmp_path):
    path = tmp_path / "chart.json"
    path.write_text(dumps(chart_doc()))
    r = run_cli("chart", "--input", str(path), "--point", "0.1,0.0,-0.2")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert set(doc["curvatures"]) == {"levi_civita", "nabla", "nabla_star"}
    r = run_cli("chart", "--input", str(path), "--point", "0.1,0.0,-0.2",
                "--report", "triple")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert max(rep["identity_residuals"].values()) <= 1e-8
    r = run_cli("chart", "--input", str(path), "--point", "0.1,0.0")
    assert r.returncode == 2


def test_cli_usage_and_data_errors(tmp_path):
    assert run_cli("decompose", "--mode", "x", "--input", "nope.json").returncode == 2
    assert run_cli("decompose", "--mode", "w", "--input", "nope.json").returncode == 1
    bad = tmp_path / "bad.json"
    bad.write_text(dumps({"dim": 3, "signature": [3, 0], "R": [0.0] * 80}))
    r = run_cli("decompose", "--mode", "w", "--input", str(bad))
    assert r.returncode == 1
    assert "expected 81" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--dim", "3", "--signature", "2,2"],
        ["verify", "--samples", "0"],
        ["verify", "--samples", "-1"],
        ["verify", "--dim", "3", "--signature=-1,4"],
        ["verify", "--tol", "nan"],
        ["verify", "--tol", "inf"],
        ["verify", "--tol=-1e-9"],
        ["dims", "--dim", "3", "--samples", "0"],
        ["dims", "--dim", "3", "--signature", "2,2"],
        ["sample", "--space", "r", "--dim", "3", "--signature=-1,4"],
        ["sample", "--space", "r", "--dim", "3", "--signature", "3,1"],
        ["sample", "--space", "r", "--dim", "3", "--seed", "-1"],
        ["dims", "--dim", "3", "--seed", "-1"],
        ["verify", "--seed", "-1"],
        ["verify", "--seed", "-1", "--suite", "gram_positivity", "--dim", "3", "--signature", "2,1"],
    ],
)
def test_cli_option_values_checked_before_running(capsys, argv):
    # each of these used to run nothing and report success, or die in numpy
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "Traceback" not in out.err
    assert len([line for line in out.err.splitlines() if "error:" in line]) == 1


def test_main_callable_directly(tmp_path, capsys):
    path = tmp_path / "gg.json"
    g = standard_scalar_product(3, 0)
    path.write_text(dumps(tensor_document(wedge(g.matrix, g.matrix), g)))
    rc = main(["decompose", "--mode", "a", "--input", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert json.loads(out)["mode"] == "A"


def test_main_calls_in_one_process_stay_independent(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process; each call must still behave like a fresh run
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    g = standard_scalar_product(2, 1)
    tensor = tmp_path / "gg.json"
    tensor.write_text(dumps(tensor_document(wedge(g.matrix, g.matrix), g)))
    chart = tmp_path / "chart.json"
    chart.write_text(dumps(chart_doc()))
    calls = [
        (["decompose", "--mode", "x", "--input", str(tensor)], 2),
        (["decompose", "--mode", "w", "--input", str(tmp_path / "nope.json")], 1),
        (["decompose", "--help"], 0),
        (["decompose", "--mode", "w", "--input", str(tensor)], 0),
        (["chart", "--input", str(chart), "--point", "-0.1,0.2,0.3"], 0),
    ]
    fresh = [run_cli(*argv) for argv, _ in calls]
    for _ in range(2):
        for (argv, code), ref in zip(calls, fresh):
            given = list(argv)
            assert main(given) == code == ref.returncode
            assert given == argv
            out = capsys.readouterr()
            assert (out.out, out.err) == (ref.stdout, ref.stderr)


def test_parser_is_built_on_first_call_not_at_import():
    code = (
        "import curvdec.cli as cli\n"
        "assert not hasattr(cli, 'build_parser')\n"
        "assert cli._parser.cache_info().currsize == 0\n"
        "assert cli.main(['verify', '--samples', '0']) == 2\n"
        "assert cli.main(['verify', '--tol', 'x']) == 2\n"
        "info = cli._parser.cache_info()\n"
        "assert (info.currsize, info.misses, info.hits) == (1, 1, 1), info\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_cli_chart_negative_first_coordinate(tmp_path, capsys):
    path = tmp_path / "chart.json"
    path.write_text(dumps(chart_doc()))
    for args in (["--point", "-0.1,0.2,0.3"], ["--point=-0.1,0.2,0.3"]):
        assert main(["chart", "--input", str(path), *args, "--report", "triple"]) == 0
        assert json.loads(capsys.readouterr().out)["point"] == [-0.1, 0.2, 0.3]
    # every --point is attached to its value, and the last one wins, as argparse has it
    points = ["--point", "-0.1,0.2,0.3", "--point", "-0.1,0.1,0.1"]
    assert main(["chart", "--input", str(path), *points, "--report", "triple"]) == 0
    assert json.loads(capsys.readouterr().out)["point"] == [-0.1, 0.1, 0.1]


def test_cli_non_finite_input_exit_codes(tmp_path, capsys):
    chart = tmp_path / "chart.json"
    chart.write_text(dumps(chart_doc()))
    for point in ("0.1,1e400,0.0", "nan,0.0,0.0", "-inf,0.0,0.0"):
        assert main(["chart", "--input", str(chart), "--point", point]) == 2
        assert "finite" in capsys.readouterr().err
    chart.write_text(dumps(chart_doc()).replace("0.25", "1e400", 1))
    assert main(["chart", "--input", str(chart), "--point", "0.1,0.0,-0.2"]) == 1
    tensor = tmp_path / "t.json"
    doc = {"dim": 3, "signature": [3, 0], "R": [0.5] + [0.0] * 80}
    tensor.write_text(dumps(doc).replace("0.5", "1e400", 1))
    assert main(["decompose", "--mode", "w", "--input", str(tensor)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "finite" in out.err


@pytest.mark.parametrize("case", ["not_utf8", "long_integer", "deeply_nested"])
@pytest.mark.parametrize("command", ["decompose", "chart"])
def test_cli_undecodable_input_is_schema_error(tmp_path, capsys, command, case):
    # bytes that are not UTF-8, an integer past Python's 4300-digit limit, and
    # nesting past the recursion limit
    if case == "not_utf8":
        data = b"\xff\xfe{}"
    elif case == "deeply_nested":
        data = b"[" * 100_000
    elif command == "decompose":
        doc = {"dim": 3, "signature": [3, 0], "R": [0.5] + [0.0] * 80}
        data = dumps(doc).replace("0.5", "1" * 5000, 1).encode()
    else:
        data = dumps(chart_doc()).replace("0.25", "1" * 5000, 1).encode()
    path = tmp_path / "in.json"
    path.write_bytes(data)
    args = ["--mode", "w"] if command == "decompose" else ["--point", "0.1,0.0,-0.2"]
    assert main([command, "--input", str(path), *args]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "error: $: invalid JSON" in out.err


def test_cli_chart_metric_at_the_float_limit(tmp_path, capsys):
    # g = diag(1e308, 1, 1) is degenerate to the 1e-10 ratio; the unscaled
    # eigen-solve read it as signature (0, 0) and the report died in json
    doc = chart_doc()
    doc["metric"] = {"0,0": {"0 0 0": 1e308}, "1,1": {"0 0 0": 1.0}, "2,2": {"0 0 0": 1.0}}
    path = tmp_path / "chart.json"
    path.write_text(dumps(doc))
    assert main(["chart", "--input", str(path), "--point", "0.1,0.0,-0.2"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "metric degenerate at" in out.err and "Traceback" not in out.err


def test_cli_result_out_of_float_range(tmp_path, capsys):
    # a valid r tensor whose Gram matrix overflows: one error line, no traceback
    # and no numpy warning
    g = standard_scalar_product(3, 0)
    path = tmp_path / "big.json"
    path.write_text(dumps(tensor_document(1e300 * sample("r", 3, (3, 0), seed=1), g)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["decompose", "--mode", "w", "--input", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("error:") == 1 and "not finite" in out.err
    assert not caught


@pytest.mark.parametrize("mode", ["w", "a", "st"])
def test_cli_component_out_of_float_range(tmp_path, capsys, mode):
    # g = 1e308 I is a valid metric, but g ^ g overflows inside the projectors:
    # the error names a component, not an input entry, and nothing warns
    doc = {"dim": 3, "signature": [3, 0], "g": (1e308 * np.eye(3)).tolist(), "R": [0.0] * 81}
    path = tmp_path / "huge_g.json"
    path.write_text(dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["decompose", "--mode", mode, "--input", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1 and out.err.startswith("error: ")
    assert "component went out of float range" in out.err and "(0, 0, 0, 0)" not in out.err
    assert not caught


def test_cli_membership_overflow_is_one_error_line(tmp_path, capsys):
    # R[0, 0, 0, 0] = 1e308 overflows the membership sums (t plus a swap of it): in every
    # mode the tensor is refused with one error line that names the entry, not a residual
    # of inf, and no RuntimeWarning, an error under this suite's warning filter, escapes main
    t = sample("a", 3, (3, 0), seed=1)
    t[0, 0, 0, 0] = 1e308
    path = tmp_path / "big.json"
    path.write_text(dumps(tensor_document(t, standard_scalar_product(3, 0))))
    for mode in ("w", "a", "st"):
        assert main(["decompose", "--mode", mode, "--input", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1 and out.err.startswith("error: ")
        assert "entry (0, 0, 0, 0) = 1e+308" in out.err and "inf" not in out.err


def test_cli_dimension_bounded_before_allocation(capsys):
    # sample, dims and verify refuse a dimension past sampling.MAX_DIM with one error line
    # and exit 1, before any n**4 array is allocated: at n = 1000 one takes 7.3 TiB
    for command in (["sample", "--space", "r"], ["dims"], ["verify"]):
        tracemalloc.start()
        try:
            assert main([*command, "--dim", "1000"]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith("error: dimension 1000 exceeds the largest supported")
        assert peak < 2**20, command


def test_cli_chart_point_overflow_is_one_error_line(tmp_path, capsys):
    # x = 1e308 overflows the metric's x² term: the point is refused with one error
    # line that names it, not the entries 0·inf made nan, and no RuntimeWarning escapes main
    path = tmp_path / "chart.json"
    path.write_text(dumps(chart_doc()))
    assert main(["chart", "--input", str(path), "--point", "1e308,0,0"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1 and out.err.startswith("error: ")
    assert "at [1e+308, 0.0, 0.0]" in out.err and "entries" not in out.err


def test_cli_directory_as_input_or_output(tmp_path, capsys):
    # IsADirectoryError is an OSError like a missing file: exit 1, one error line
    assert main(["decompose", "--mode", "w", "--input", str(tmp_path)]) == 1
    assert main(["sample", "--space", "r", "--dim", "3", "--output", str(tmp_path)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("error:") == 2 and "Traceback" not in out.err


# -- hostile input ------------------------------------------------------------

HOSTILE = [None, True, -1, 0, 2.5, 1e308, -1e308, math.nan, math.inf, 10**30, "x", "", [], {},
           [1.0]]
CHEAP_CHECKS = ["wa_map_coincidences", "trace_reconstruction", "ricci_image_dimensions",
                "membership_tower", "no_such_check"]
OPTIONS = {  # each command's options and the values drawn for them; --dim is drawn apart
    "decompose": {"--mode": ["w", "a", "st", "x"]},
    "sample": {"--space": ["r", "a", "W6", "A8", "q"], "--signature": ["2,1", "3,0", "-1,4", "a"],
               "--seed": ["0", "7", "-1", "x"]},
    "dims": {"--signature": ["2,1", "3,0", "3,1", "3"], "--samples": ["0", "3"],
             "--seed": ["-1", "2"]},
    "verify": {"--suite": CHEAP_CHECKS, "--signature": ["2,1", "3,0", "2,2", "4,0"],
               "--samples": ["-1", "0", "1", "2"], "--seed": ["-1", "0", "3", "1.5"],
               "--tol": ["0", "1e-9", "nan", "-1"]},
    "chart": {"--point": ["0.1,0,-0.2", "-0.1,0.2,0.3", "0,0,0", "1e308,0,0", "nan,0,0",
                          "0.1,0.2", "x"],
              "--report": ["curvature", "triple", "bogus"]},
}


def tensor_docs():
    return [tensor_document(sample("r", 3, (3, 0), seed=1), standard_scalar_product(3, 0)),
            tensor_document(sample("a", 4, (3, 1), seed=2), standard_scalar_product(3, 1),
                            include_g=True)]


@st.composite
def mutated_document(draw, docs):
    """A valid document at n <= 4 with a few keys or entries set, dropped or cut, as text."""
    doc = json.loads(dumps(draw(st.sampled_from(docs))))
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(doc) + ["extra"]))
        target = doc.get(key)
        if isinstance(target, list) and target and draw(st.booleans()):
            target[draw(st.integers(0, len(target) - 1))] = draw(st.sampled_from(HOSTILE))
        elif isinstance(target, dict) and target and draw(st.booleans()):
            entry = draw(st.sampled_from(sorted(target)))
            term = draw(st.sampled_from(["0 0 0", "2 0 0", "99999999999999999999 0 0", "1.5 0 0",
                                         "0 0", "a b c"]))
            target[entry] = {term: draw(st.sampled_from(HOSTILE))}
        elif draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(st.sampled_from(HOSTILE))
    text = json.dumps(doc)  # allow_nan: NaN and Infinity tokens too
    return text[: draw(st.integers(0, len(text)))] if draw(st.integers(0, 9)) == 0 else text


@st.composite
def hostile_argv(draw):
    """A command line of hostile option values, now and then with a word dropped."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for option, values in OPTIONS[command].items():
        if option in ("--mode", "--space", "--point", "--suite") or draw(st.booleans()):
            argv += [option, draw(st.sampled_from(values))]
    if command in ("sample", "dims") or command == "verify" and draw(st.booleans()):
        argv += ["--dim", str(draw(st.sampled_from([-1, 0, 2, 3, 4, 10**6, 2**63])))]
    docs = tensor_docs() if command == "decompose" else [chart_doc()] if command == "chart" else []
    text = draw(mutated_document(docs)) if docs else None
    if draw(st.integers(0, 9)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv, text


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=hostile_argv())
def test_cli_hostile_input_fails_cleanly(tmp_path_factory, case):
    # whatever the documents and the command line, main returns an exit code, and a data or
    # usage error writes one error line (argparse: its usage text); nothing escapes main,
    # not even a warning
    argv, text = case
    if text is not None:
        path = tmp_path_factory.mktemp("hostile") / "in.json"
        path.write_text(text)
        argv = [*argv, "--input", str(path)]
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    lines = err.getvalue().splitlines()
    if code in (1, 2) and not (code == 2 and lines and lines[0].startswith("usage:")):
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
