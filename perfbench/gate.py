"""Correctness gate: every request's output is checked before it counts.

The checks recompute what they need with plain numpy from the generated
input, so they do not trust the program's own residual fields.  Tolerances
are the acceptance ones: 1e-9 for reconstruction, 1e-8 for orthogonality
and for the chart identities (criterion 09, with 1e-9 on the scalar
identity).  A check returns None when the output is right and a one-line
reason when it is not.
"""
from __future__ import annotations

import json

import numpy as np

SUM_TOL = 1e-9
GRAM_TOL = 1e-8
CHART_TOL = 1e-8
SCALAR_TOL = 1e-9
CHECK_COUNT = 35
TRIPLE_BOUNDS = {
    "curvature_vs_difference_tensor": CHART_TOL,
    "conjugate_curvature_vs_difference_tensor": CHART_TOL,
    "curvature_skew_difference": CHART_TOL,
    "curvature_sum_square_term": CHART_TOL,
    "parallel_cubic_symmetry": CHART_TOL,
    "scalar_deviation": SCALAR_TOL,
    "conjugacy": CHART_TOL,
    "curvature_sum_algebraic": CHART_TOL,
    "cubic_trace_free": CHART_TOL,
}


def _mx(t) -> float:
    return float(np.max(np.abs(t))) if np.size(t) else 0.0


def _tensor(flat, n):
    return np.asarray(flat, dtype=float).reshape(n, n, n, n)


def _bianchi_residual(t):
    """Relative violation of first-pair antisymmetry and first Bianchi."""
    scale = _mx(t)
    if scale == 0.0:
        return 0.0
    cyc = t + np.einsum("bcad->abcd", t) + np.einsum("cabd->abcd", t)
    return max(_mx(t + t.transpose(1, 0, 2, 3)), _mx(cyc)) / scale


def _algebraic_residual(t):
    scale = _mx(t)
    if scale == 0.0:
        return 0.0
    return max(_bianchi_residual(t), _mx(t + t.transpose(0, 1, 3, 2)) / scale)


def check(req, rc: int, out: str) -> str | None:
    if req.cls == "verify":
        return _check_verify(rc, out)
    if req.cls == "dims":
        return _check_dims(rc, out)
    if req.cls == "decompose":
        return _check_decompose(req.expect, rc, out)
    return _check_chart(req, rc, out)


def _check_verify(rc, out):
    if rc != 0:
        return f"verify exited {rc}"
    report = json.loads(out)
    if len(report) != CHECK_COUNT:
        return f"verify reported {len(report)} checks, expected {CHECK_COUNT}"
    failed = sorted(name for name, entry in report.items() if entry["pass"] is not True)
    return f"verify checks failed: {failed}" if failed else None


def _check_dims(rc, out):
    if rc != 0:
        return f"dims exited {rc}"
    for space, rep in json.loads(out).items():
        if rep["inconclusive"]:
            return f"dims: {space} inconclusive"
        if rep["formula_dim"] is not None and rep["empirical_dim"] != rep["formula_dim"]:
            return f"dims: {space} empirical {rep['empirical_dim']} != formula {rep['formula_dim']}"
    return None


def _raise_all(t, gi):
    return np.einsum("ia,jb,kc,ld,ijkl->abcd", gi, gi, gi, gi, t, optimize=True)


def _check_decompose(exp, rc, out):
    if rc != exp["rc"]:
        return f"decompose --mode {exp['mode']} exited {rc}, expected {exp['rc']}"
    if rc != 0:
        return None
    doc = json.loads(out)
    t, g = exp["tensor"], exp["g"]
    n = t.shape[0]
    want = {"w": ("W", 8), "a": ("A", 8), "st": ("ST", 3)}[exp["mode"]]
    comps_doc = doc["components"]
    if (doc["mode"], len(comps_doc)) != want or doc["signature"] != list(exp["signature"]):
        return f"decompose: header {doc['mode']}/{len(comps_doc)}/{doc['signature']} wrong"
    for c in comps_doc:
        if ("g" in c) != exp["has_g"] or (exp["has_g"] and not np.array_equal(c["g"], g)):
            return "decompose: component metric does not match the input"
    comps = [_tensor(c["R"], n) for c in comps_doc]
    res = _mx(np.sum(comps, axis=0) - t) / _mx(t)
    if not res <= SUM_TOL:
        return f"decompose: component sum off by {res:.2e}"
    gi = np.linalg.inv(g)
    raised = [_raise_all(c, gi) for c in comps]
    gram = np.array([[float(np.sum(ra * cb)) for cb in comps] for ra in raised])
    reported = np.asarray(doc["orthogonality_matrix"], dtype=float)
    # components that vanish at this n (W6, W8 at n = 3) are roundoff only
    live = [np.linalg.norm(c) > 1e-10 * np.linalg.norm(t) for c in comps]
    k = len(comps)
    for i in range(k):
        for j in range(k):
            if not (live[i] and live[j]):
                continue
            # Cauchy-Schwarz scale, so the bound is relative for any signature
            scale = np.linalg.norm(raised[i]) * np.linalg.norm(comps[j])
            if not abs(reported[i, j] - gram[i, j]) / scale <= GRAM_TOL:
                return f"decompose: reported Gram entry ({i},{j}) disagrees"
            if i != j and not abs(gram[i, j]) / scale <= GRAM_TOL:
                return f"decompose: components {i},{j} not orthogonal ({gram[i, j] / scale:.2e})"
    return None


def _check_chart(req, rc, out):
    if rc != 0:
        return f"chart {req.expect['report']} exited {rc}"
    doc = json.loads(out)
    n = req.n
    if not np.array_equal(doc["point"], req.expect["point"]):
        return "chart: reported point differs from the requested one"
    if req.expect["report"] == "triple":
        res = doc["identity_residuals"]
        for key, bound in TRIPLE_BOUNDS.items():
            if not res[key] <= bound:
                return f"chart triple: {key} residual {res[key]:.2e} > {bound:.0e}"
        r, r_star = _tensor(doc["R"], n), _tensor(doc["R_star"], n)
        r_g = _tensor(doc["R_g"], n)
    else:
        curv = doc["curvatures"]
        r = _tensor(curv["nabla"]["R"], n)
        r_star = _tensor(curv["nabla_star"]["R"], n)
        r_g = _tensor(curv["levi_civita"]["R"], n)
    scale = max(1.0, _mx(r), _mx(r_star))
    checks = {
        "conjugacy": _mx(r_star + r.transpose(0, 1, 3, 2)) / scale,
        "curvature_sum_algebraic": _algebraic_residual(r + r_star),
        "levi_civita_algebraic": _algebraic_residual(r_g),
        "bianchi_nabla": _bianchi_residual(r),
        "bianchi_nabla_star": _bianchi_residual(r_star),
    }
    for key, value in checks.items():
        if not value <= CHART_TOL:
            return f"chart {req.expect['report']}: recomputed {key} {value:.2e} > {CHART_TOL:.0e}"
    return None
