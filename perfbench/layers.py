"""Per-layer metrics from a traced run.

Each group below names the traced functions whose time it sums.  Which
end-to-end metric each group should move, and on which workload, is in
NOTES.md.  A function that a later change deletes or renames simply stops
contributing; the group then reads 0.
"""
from __future__ import annotations

import statistics

import numpy as np

from tracer import LAYERS

SIZES = (3, 4, 6, 8)
CHART_SIZES = (3, 4, 5, 6)
CHECK_NAMES = (
    "w_completeness", "a_completeness", "w_idempotence", "a_idempotence",
    "w_orthogonality", "a_orthogonality", "gram_positivity", "wa_map_coincidences",
    "w_trace_formulas", "a_trace_formulas", "w_vanishing_criteria",
    "a_vanishing_criteria", "conjugate_closure", "conjugate_split",
    "a_conjugation_signs", "equiaffine_pair_projections", "ricci_symmetry_equivalence",
    "conjugate_pair_reduction", "complement_ricci_structure", "traceless_core",
    "projective_part", "projective_flat_bilinear_form", "einstein_projector_criterion",
    "constant_curvature_equivalences", "ricci_block_closed_form",
    "equiaffine_projector_agreement", "projective_conjugate_equivalence",
    "trace_reconstruction", "singer_thorpe", "rescale_invariance",
    "dimension_consistency", "ricci_image_dimensions", "membership_tower",
    "conjugation_involution", "ricci_conjugate_trace",
)

GROUPS = {
    "jsonio.parse": ("jsonio.parse_tensor", "jsonio.parse_chart"),
    "jsonio.serialise": (
        "jsonio.dumps", "jsonio.tensor_document", "jsonio.decomposition_document",
        "jsonio.dimension_document", "jsonio.triple_report_document", "jsonio.chart_document",
    ),
    "linalg.tensor_pairing": ("linalg.tensor_pairing",),
    "linalg.build_scalar_product": ("linalg.build_scalar_product",),
    "spaces.membership_residual": ("spaces.membership_residual",),
    "spaces.traces": (
        "spaces.ricci", "spaces.ricci_star", "spaces.scalar_curvature", "spaces.ricci_traces",
    ),
    "spaces.products": ("spaces.wedge_r", "spaces.wedge", "spaces.dot_product"),
    "spaces.averages": (
        "spaces.psi", "spaces.mu", "spaces.psi_mu", "spaces.conjugate", "spaces.cyclic_sum",
        "spaces.bianchi_project", "spaces.reindex",
    ),
    "decomp.w_projections": ("decomp.w_projections",),
    "decomp.a_projections": ("decomp.a_projections",),
    "decomp.decompose": ("decomp.w_decompose", "decomp.a_decompose", "decomp.singer_thorpe"),
    "sampling.sample": ("sampling.sample",),
    "sampling.numerical_rank": ("sampling.numerical_rank",),
    "poly.det_adj": ("poly.poly_det", "poly.poly_adjugate"),
    "charts.prepare": ("charts.PolyChart._prepared",),
    "charts.point_data": ("charts.PolyChart._point_data",),
    "charts.report": ("charts.conjugate_triple_report", "charts.curvature_at", "charts.christoffel"),
}

# (metric, unit, better); the order is the order of BENCHMARK.json
PER_LAYER = (
    [("cli.verify.s", "s", "lower"), ("cli.dims.s", "s", "lower")]
    + [(f"cli.decompose.n{n}.p50_ms", "ms", "lower") for n in SIZES]
    + [(f"cli.chart.{r}.n{n}.p50_ms", "ms", "lower")
       for r in ("triple", "curvature") for n in CHART_SIZES]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{layer}.calls", "count", "lower") for layer in LAYERS]
    + [
        ("jsonio.parse.self_s", "s", "lower"),
        ("jsonio.serialise.self_s", "s", "lower"),
        ("jsonio.bytes_out", "bytes", "lower"),
        ("linalg.tensor_pairing.calls", "count", "lower"),
        ("linalg.tensor_pairing.self_s", "s", "lower"),
    ]
    + [(f"linalg.tensor_pairing.n{n}.us_per_call", "us", "lower") for n in SIZES]
    + [
        ("linalg.build_scalar_product.calls", "count", "lower"),
        ("spaces.membership_residual.self_s", "s", "lower"),
        ("spaces.traces.self_s", "s", "lower"),
        ("spaces.products.self_s", "s", "lower"),
        ("spaces.averages.self_s", "s", "lower"),
        ("decomp.w_projections.calls", "count", "lower"),
        ("decomp.w_projections.self_s", "s", "lower"),
    ]
    + [(f"decomp.w_projections.n{n}.us_per_call", "us", "lower") for n in SIZES]
    + [
        ("decomp.a_projections.calls", "count", "lower"),
        ("decomp.a_projections.self_s", "s", "lower"),
        ("decomp.decompose.self_s", "s", "lower"),
        ("sampling.sample.calls", "count", "lower"),
        ("sampling.sample.self_s", "s", "lower"),
        ("sampling.numerical_rank.self_s", "s", "lower"),
    ]
    + [(f"suite.check.{name}.s", "s", "lower") for name in CHECK_NAMES]
    + [
        ("poly.eval.calls", "count", "lower"),
        ("poly.eval.terms", "count", "lower"),
        ("poly.mul.calls", "count", "lower"),
        ("poly.det_adj.self_s", "s", "lower"),
        ("charts.prepare.self_s", "s", "lower"),
        ("charts.point_data.calls", "count", "lower"),
        ("charts.point_data.self_s", "s", "lower"),
        ("charts.report.self_s", "s", "lower"),
        ("trace.overhead_ratio", "1", "lower"),
        ("trace.uncovered_share", "1", "lower"),
    ]
)


def per_layer(tracer, requests, traced_wall):
    """Every PER_LAYER metric except trace.overhead_ratio, as {name: value}."""
    a = tracer.arrays()
    names = tracer.names
    ids = {name: i for i, name in enumerate(names)}
    self_by_id = np.bincount(a["name"], weights=a["self"], minlength=len(names))
    calls_by_id = np.bincount(a["name"], minlength=len(names))
    dur_by_id = np.bincount(a["name"], weights=a["dur"], minlength=len(names))

    def total(table, group):
        return float(sum(table[ids[f]] for f in GROUPS[group] if f in ids))

    def us_per_call(fn, n):
        if fn not in ids:
            return 0.0
        mask = (a["name"] == ids[fn]) & (a["n"] == n)
        return float(a["dur"][mask].mean() * 1e6) if mask.any() else 0.0

    out = {}
    # request latencies from the root spans
    roots = a["parent"] < 0
    lat = {}
    for rid, dur in zip(a["req"][roots], a["dur"][roots]):
        req = requests[rid]
        lat.setdefault((req.cls, req.n), []).append(dur)
    out["cli.verify.s"] = float(sum(lat.get(("verify", 0), [])))
    out["cli.dims.s"] = float(sum(lat.get(("dims", 5), [])))
    for n in SIZES:
        vals = lat.get(("decompose", n))
        out[f"cli.decompose.n{n}.p50_ms"] = statistics.median(vals) * 1e3 if vals else 0.0
    for r in ("triple", "curvature"):
        for n in CHART_SIZES:
            vals = lat.get((f"chart.{r}", n))
            out[f"cli.chart.{r}.n{n}.p50_ms"] = statistics.median(vals) * 1e3 if vals else 0.0
    layer_of = np.array([name.split(".", 1)[0] for name in names] + [""])
    for layer in LAYERS:
        mask = layer_of[: len(names)] == layer
        out[f"{layer}.self_s"] = float(self_by_id[mask].sum())
        out[f"{layer}.calls"] = int(calls_by_id[mask].sum())
    out["jsonio.parse.self_s"] = total(self_by_id, "jsonio.parse")
    out["jsonio.serialise.self_s"] = total(self_by_id, "jsonio.serialise")
    out["jsonio.bytes_out"] = tracer.counts["jsonio.bytes_out"]
    out["linalg.tensor_pairing.calls"] = int(total(calls_by_id, "linalg.tensor_pairing"))
    out["linalg.tensor_pairing.self_s"] = total(self_by_id, "linalg.tensor_pairing")
    for n in SIZES:
        out[f"linalg.tensor_pairing.n{n}.us_per_call"] = us_per_call("linalg.tensor_pairing", n)
    out["linalg.build_scalar_product.calls"] = int(total(calls_by_id, "linalg.build_scalar_product"))
    for g in ("membership_residual", "traces", "products", "averages"):
        out[f"spaces.{g}.self_s"] = total(self_by_id, f"spaces.{g}")
    out["decomp.w_projections.calls"] = int(total(calls_by_id, "decomp.w_projections"))
    out["decomp.w_projections.self_s"] = total(self_by_id, "decomp.w_projections")
    for n in SIZES:
        out[f"decomp.w_projections.n{n}.us_per_call"] = us_per_call("decomp.w_projections", n)
    out["decomp.a_projections.calls"] = int(total(calls_by_id, "decomp.a_projections"))
    out["decomp.a_projections.self_s"] = total(self_by_id, "decomp.a_projections")
    out["decomp.decompose.self_s"] = total(self_by_id, "decomp.decompose")
    out["sampling.sample.calls"] = int(total(calls_by_id, "sampling.sample"))
    out["sampling.sample.self_s"] = total(self_by_id, "sampling.sample")
    out["sampling.numerical_rank.self_s"] = total(self_by_id, "sampling.numerical_rank")
    for name in CHECK_NAMES:
        key = f"suite.check.{name}"
        out[f"{key}.s"] = float(dur_by_id[ids[key]]) if key in ids else 0.0
    for key in ("poly.eval.calls", "poly.eval.terms", "poly.mul.calls"):
        out[key] = tracer.counts[key]
    out["poly.det_adj.self_s"] = total(self_by_id, "poly.det_adj")
    out["charts.prepare.self_s"] = total(self_by_id, "charts.prepare")
    out["charts.point_data.calls"] = int(total(calls_by_id, "charts.point_data"))
    out["charts.point_data.self_s"] = total(self_by_id, "charts.point_data")
    out["charts.report.self_s"] = total(self_by_id, "charts.report")
    covered = float(a["dur"][roots].sum())
    out["trace.uncovered_share"] = max(0.0, 1.0 - covered / traced_wall)
    return out


def baseline_ratios(tracer):
    """Kernel span times over the ad-hoc ROADMAP baseline, where this run has them.

    The verify and dims ratios come from untraced runs (run.py), because
    tracing adds a quarter to the suite's time.
    """
    a = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    ratios = {}

    def mean_dur(fn, n):
        if fn not in ids:
            return None
        mask = (a["name"] == ids[fn]) & (a["n"] == n)
        return float(a["dur"][mask].mean()) if mask.any() else None

    w4 = mean_dur("decomp.w_decompose", 4)
    if w4 is not None:
        ratios["w_decompose_n4_ms/9.7"] = w4 * 1e3 / 9.7
    for n, base in ((5, 0.12), (6, 0.70)):
        if "charts.PolyChart._prepared" not in ids:
            continue
        # the first call per chart does the work; later calls hit its cache
        mask = (a["name"] == ids["charts.PolyChart._prepared"]) & (a["n"] == n)
        per_chart = {}
        for rid, dur in zip(a["req"][mask], a["dur"][mask]):
            per_chart[rid] = max(per_chart.get(rid, 0.0), dur)
        if per_chart:
            ratios[f"prepared_n{n}_s/{base}"] = statistics.mean(per_chart.values()) / base
    return ratios
