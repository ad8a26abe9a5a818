"""Seeded inputs for the three workloads.

Everything here is plain numpy: the generator never calls curvdec, so a
change to the library cannot change the inputs it is measured on.  A
workload's inputs are a *deck*: a fixed list of requests written to files
before timing starts.  The same seed gives byte-identical files.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np

WORKLOADS = ("suite_batch", "decompose_stream", "chart_lab")

# decompose_stream deck: documents per dimension.  The counts put the median
# among the n = 3 and 4 requests, whose costs overlap, and the 90th
# percentile in the middle of the 21 accepted w/a requests at n = 8 (of 116),
# where JSON dominates; a quantile next to a gap between two request classes
# would move with the number of passes a run makes.
DECOMPOSE_COUNTS = {3: 24, 4: 40, 6: 16, 8: 36}
# every REJECT_EVERY-th document of a dimension must be rejected with exit 1
REJECT_EVERY = 8

# chart_lab deck: charts per dimension; each chart gives one triple and one
# curvature request at the same point, 100 requests in all, so that 10 lie
# beyond the 90th percentile.  The median lands among the 16 triple requests
# at n = 4, the 90th percentile among the 10 curvature requests at n = 5.
# Few n = 6 charts keep a pass short, so a run makes several passes.
CHART_COUNTS = {3: 22, 4: 16, 5: 10, 6: 2}
CHART_TERMS = 2
CHART_SCALE = 0.08
CUBIC_SHARE = 0.25


@dataclass
class Request:
    """One CLI call and what its output must satisfy."""

    cls: str  # verify, dims, decompose, chart.triple, chart.curvature
    n: int  # 0 when the request spans several dimensions
    argv: list
    expect: dict = field(default_factory=dict)


def workload_rng(workload: str, seed: int) -> np.random.Generator:
    key = (WORKLOADS.index(workload),)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed % 2**64, spawn_key=key))


def _signatures(n):
    return [(n - q, q) for q in range(n + 1)]


def _eta(p, q):
    return np.diag([1.0] * p + [-1.0] * q)


# -- rank-4 tensors ---------------------------------------------------------


def _cyclic(t):
    """t[a,b,c,d] + t[b,c,a,d] + t[c,a,b,d]: the first-Bianchi sum."""
    return t + np.einsum("bcad->abcd", t) + np.einsum("cabd->abcd", t)


def curvature_tensor(rng, n, kind):
    """A random tensor of the given kind.

    'co': antisymmetric in the first pair only, so it breaks first Bianchi;
    'r': a generalized curvature tensor (first pair + first Bianchi);
    'a': an algebraic curvature tensor (also antisymmetric in the last pair).
    """
    t = rng.uniform(-1.0, 1.0, (n, n, n, n))
    t = 0.5 * (t - t.transpose(1, 0, 2, 3))
    if kind == "co":
        return t
    if kind == "a":
        t = 0.5 * (t - t.transpose(0, 1, 3, 2))
        t = 0.5 * (t + t.transpose(2, 3, 0, 1))
    return t - _cyclic(t) / 3.0


def _change_of_basis(rng, n):
    """A well-conditioned A, so g = A^T eta A is far from diag(+-1)."""
    while True:
        a = np.eye(n) + rng.uniform(-1.0, 1.0, (n, n)) * (0.6 / np.sqrt(n))
        if np.linalg.cond(a) < 6.0:
            return a


def _pull_back(t, a):
    return np.einsum("pqrs,pi,qj,rk,sl->ijkl", t, a, a, a, a, optimize=True)


def decompose_deck(rng, workdir: Path) -> list[Request]:
    reqs = []
    for n, count in DECOMPOSE_COUNTS.items():
        # every signature, equally often, in a seeded order
        sigs = _signatures(n)
        sig_of = rng.permutation([sigs[k % len(sigs)] for k in range(count)])
        modes = ("w", "a", "st")
        for k in range(count):
            mode = modes[k % 3]
            p, q = (int(x) for x in sig_of[k])
            reject = k % REJECT_EVERY == REJECT_EVERY - 1
            if mode == "st":
                kind = "r" if reject else "a"
            else:
                kind = "co" if reject else "r"
            t = curvature_tensor(rng, n, kind)
            g = _eta(p, q)
            doc = {"dim": n, "signature": [p, q]}
            if k % 2 == 1:  # half the documents carry a non-diagonal metric
                a = _change_of_basis(rng, n)
                t = _pull_back(t, a)
                g = a.T @ g @ a
                g = 0.5 * (g + g.T)
                doc["g"] = g.tolist()
            doc["R"] = t.ravel().tolist()
            path = workdir / f"tensor-n{n}-{k:03d}.json"
            path.write_text(json.dumps(doc))
            reqs.append(
                Request(
                    "decompose",
                    n,
                    ["decompose", "--mode", mode, "--input", str(path)],
                    {"mode": mode, "rc": 1 if reject else 0, "tensor": t, "g": g,
                     "signature": (p, q), "has_g": "g" in doc},
                )
            )
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order]


# -- polynomial charts --------------------------------------------------------


def _monomials(shape_rng, n, nterms):
    """nterms distinct exponent tuples of degree <= 2."""
    terms = []
    while len(terms) < nterms:
        e = np.zeros(n, dtype=int)
        for v in shape_rng.choice(n, int(shape_rng.integers(0, 3)), replace=True):
            e[v] += 1
        e = tuple(int(x) for x in e)
        if e not in terms:
            terms.append(e)
    return terms


def _eval(terms, x):
    return sum(c * np.prod([xi**k for xi, k in zip(x, e)]) for e, c in terms.items())


def _poly_doc(terms):
    return {" ".join(map(str, e)): c for e, c in sorted(terms.items())}


def chart_shape(n, k):
    """Which entries and monomials chart k of dimension n has.

    The metric perturbation sits on the diagonal and the first off-diagonal
    only, and a quarter of the cubic entries are nonzero; every entry has
    CHART_TERMS monomials of degree <= 2.  The shape does not depend on the
    benchmark seed: the cost of chart preparation and evaluation follows the
    shape, and with shapes drawn per seed it varied twofold between seeds.
    """
    shape_rng = np.random.default_rng((n, k))
    metric = {(i, j): _monomials(shape_rng, n, CHART_TERMS)
              for i in range(n) for j in (i, i + 1) if j < n}
    triples = list(combinations_with_replacement(range(n), 3))
    picks = shape_rng.choice(len(triples), max(1, round(CUBIC_SHARE * len(triples))),
                             replace=False)
    cubic = {triples[t]: _monomials(shape_rng, n, CHART_TERMS) for t in sorted(picks)}
    return metric, cubic


def random_chart(rng, n, k, q):
    """Chart k of dimension n: eta of signature (n-q, q) plus the perturbation
    of chart_shape(n, k), with seeded coefficients in +-CHART_SCALE.

    The point is drawn in [-0.4, 0.4]^n and redrawn until the metric there
    keeps its signature with every eigenvalue at least 0.3 in magnitude.
    """
    shape_metric, shape_cubic = chart_shape(n, k)
    zero = (0,) * n

    def fill(monomials):
        return {e: CHART_SCALE * rng.uniform(-1.0, 1.0) for e in monomials}

    metric = {}
    for (i, j), monomials in shape_metric.items():
        terms = fill(monomials)
        if i == j:
            terms[zero] = terms.get(zero, 0.0) + (1.0 if i < n - q else -1.0)
        metric[(i, j)] = terms
    cubic = {idx: fill(monomials) for idx, monomials in shape_cubic.items()}
    while True:
        point = rng.uniform(-0.4, 0.4, n)
        gx = np.zeros((n, n))
        for (i, j), terms in metric.items():
            gx[i, j] = gx[j, i] = _eval(terms, point)
        eig = np.linalg.eigvalsh(gx)
        if int(np.sum(eig < 0)) == q and np.min(np.abs(eig)) >= 0.3:
            break
    doc = {
        "dim": n,
        "metric": {f"{i},{j}": _poly_doc(t) for (i, j), t in metric.items()},
        "cubic": {",".join(map(str, idx)): _poly_doc(t) for idx, t in cubic.items()},
    }
    return doc, point


def point_arg(point) -> str:
    """The --point argument in the one form argparse accepts for any sign.

    `--point -0.1,0.2` is refused by argparse (exit 2) because the value
    starts with '-' and is not a plain number; `--point=-0.1,0.2` works.
    """
    return "--point=" + ",".join(repr(float(x)) for x in point)


def chart_deck(rng, workdir: Path) -> list[Request]:
    reqs = []
    for n, count in CHART_COUNTS.items():
        for k in range(count):
            q = k % 2  # Riemannian and Lorentzian eta alternate
            doc, point = random_chart(rng, n, k, q)
            path = workdir / f"chart-n{n}-{k:02d}.json"
            path.write_text(json.dumps(doc))
            for report in ("triple", "curvature"):
                reqs.append(
                    Request(
                        f"chart.{report}",
                        n,
                        ["chart", "--input", str(path), point_arg(point), "--report", report],
                        {"report": report, "point": point},
                    )
                )
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order]


def suite_deck(rng) -> list[Request]:
    """Default verify (n = 3, 4, both signatures, 32 samples), then dims at n = 5."""
    vseed, dseed = (int(s) for s in rng.integers(0, 2**31, 2))
    return [
        Request("verify", 0, ["verify", "--seed", str(vseed)]),
        Request("dims", 5, ["dims", "--dim", "5", "--seed", str(dseed)]),
    ]


def make_deck(workload: str, seed: int, workdir: Path) -> list[Request]:
    rng = workload_rng(workload, seed)
    if workload == "suite_batch":
        return suite_deck(rng)
    if workload == "decompose_stream":
        return decompose_deck(rng, workdir)
    return chart_deck(rng, workdir)


def warmup_requests(workload: str, deck: list[Request]) -> list[Request]:
    """One untimed request of each request class.

    suite_batch warms up with small requests of the same two commands, so
    the warm-up does not double the cost of a run.
    """
    if workload == "suite_batch":
        return [
            Request("verify", 3, ["verify", "--suite", "w_completeness", "--dim", "3",
                                  "--samples", "2"]),
            Request("dims", 3, ["dims", "--dim", "3", "--samples", "8"]),
        ]
    first = {}
    for req in deck:
        key = (req.cls, req.expect.get("mode"))
        if key not in first or req.n < first[key].n:
            first[key] = req
    return list(first.values())
