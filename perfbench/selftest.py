"""Self-tests of the benchmark's own parts.

    python3 perfbench/selftest.py

Checks that the generator is deterministic and labels its inputs right,
that the gate refuses wrong answers, that request times are scaled by the
host-speed probe as documented, that the tracer sees calls made
through every import path and leaves the package as it found it, and pins
the `--point=<csv>` form the generator relies on.  Exits 1 on any failure.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

from probe import PROBE_REF_S
from run import SETUP_REF_S, SRC, WORK, Tally, end_to_end, setup_seconds

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import curvdec.cli as cli  # noqa: E402
import curvdec.decomp as decomp  # noqa: E402
import curvdec.linalg as linalg  # noqa: E402
import gate  # noqa: E402
import gen  # noqa: E402
from curvdec.spaces import membership_residual  # noqa: E402
from tracer import Tracer  # noqa: E402

FLAT_CHART = {"dim": 3, "metric": {f"{i},{i}": {"0 0 0": 1.0} for i in range(3)},
              "cubic": {"0,0,1": {"0 0 0": 0.5}}}


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def test_point_form(workdir):
    path = workdir / "flat.json"
    path.write_text(json.dumps(FLAT_CHART))
    arg = gen.point_arg([-0.1, 0.2, 0.3])
    expect(arg == "--point=-0.1,0.2,0.3", f"point_arg gave {arg!r}")
    rc, out = call(["chart", "--input", str(path), arg, "--report", "triple"])
    expect(rc == 0, f"--point=<csv> with a negative first coordinate exited {rc}")
    expect(json.loads(out)["point"] == [-0.1, 0.2, 0.3], "point did not round-trip")
    deck = gen.make_deck("chart_lab", 7, workdir)
    expect(all(sum(a.startswith("--point=") for a in r.argv) == 1 for r in deck),
           "a chart request does not pass its point as --point=<csv>")
    expect(any(r.expect["point"][0] < 0 for r in deck), "no chart point starts negative")
    # the CLI defect the form works around: report it, do not fail on it
    with contextlib.redirect_stderr(io.StringIO()):
        rc, _ = call(["chart", "--input", str(path), "--point", "-0.1,0.2,0.3"])
    return f"`--point -0.1,...` exits {rc} ({'defect still present' if rc == 2 else 'fixed'})"


def _deck_bytes(workload, seed, workdir):
    sub = workdir / f"{workload}-{seed}"
    sub.mkdir(parents=True)
    deck = gen.make_deck(workload, seed, sub)
    files = {p.name: p.read_bytes() for p in sorted(sub.iterdir())}
    argv = [[a.replace(str(sub), "") for a in r.argv] for r in deck]
    return files, argv


def test_determinism(workdir):
    for workload in gen.WORKLOADS:
        first = _deck_bytes(workload, 3, workdir / "a")
        second = _deck_bytes(workload, 3, workdir / "b")
        other = _deck_bytes(workload, 4, workdir / "c")
        expect(first == second, f"{workload}: same seed gave different inputs")
        expect(first != other, f"{workload}: different seeds gave the same inputs")
    return "same seed, same bytes; other seed, other bytes"


def test_generator_labels(workdir):
    deck = gen.make_deck("decompose_stream", 5, workdir)
    rejects = 0
    for req in deck:
        e = req.expect
        g = linalg.build_scalar_product(e["g"])
        expect(g.signature == e["signature"], "metric signature does not match the document")
        space = "a" if e["mode"] == "st" else "r"
        res = membership_residual(e["tensor"], g, space)
        if e["rc"] == 0:
            expect(res <= 1e-12, f"accepted input has {space}-residual {res:.1e}")
        else:
            rejects += 1
            expect(res >= 1e-3, f"must-reject input has {space}-residual only {res:.1e}")
    for n, count in gen.DECOMPOSE_COUNTS.items():
        mine = [r.expect for r in deck if r.n == n]
        expect(len(mine) == count, f"n={n}: {len(mine)} documents")
        expect(sum(e["has_g"] for e in mine) * 2 == count, f"n={n}: not half non-diagonal")
        sigs = {e["signature"] for e in mine}
        expect(len(sigs) == n + 1, f"n={n}: signatures {sorted(sigs)}")
    return f"{len(deck)} documents, {rejects} must-reject"


def test_gate_refuses_wrong_output(workdir):
    deck = gen.make_deck("decompose_stream", 6, workdir)
    req = next(r for r in deck if r.expect["rc"] == 0 and r.n == 4)
    rc, out = call(req.argv)
    expect(gate.check(req, rc, out) is None, "gate refused a right answer")
    doc = json.loads(out)
    doc["components"][1]["R"][5] += 1e-6
    expect(gate.check(req, rc, json.dumps(doc)) is not None, "gate missed a wrong component")
    expect(gate.check(req, 1, "") is not None, "gate missed a wrong exit code")
    charts = gen.make_deck("chart_lab", 6, workdir)
    req = next(r for r in charts if r.expect["report"] == "curvature" and r.n == 3)
    rc, out = call(req.argv)
    expect(gate.check(req, rc, out) is None, "gate refused a right chart answer")
    doc = json.loads(out)
    doc["curvatures"]["nabla_star"]["R"][1] += 1e-6
    expect(gate.check(req, rc, json.dumps(doc)) is not None, "gate missed a wrong curvature")
    return "wrong component, exit code and curvature all refused"


def test_host_adjustment(workdir):
    tally = Tally()
    # one request per pass: 10 ms at the reference speed, 20 ms while the
    # probe shows the host at half that speed
    tally.samples = [(0, "decompose", 3, 0.010, PROBE_REF_S),
                     (1, "decompose", 3, 0.020, 2 * PROBE_REF_S)]
    adjusted = end_to_end(tally, 0.25)
    measured = end_to_end(tally, 0.25, adjust=False)
    expect(abs(adjusted["wall_s"] - 0.010) < 1e-12, f"adjusted wall_s {adjusted['wall_s']}")
    expect(abs(adjusted["latency_p90_ms"] - 10.0) < 1e-9, "adjusted latency moved")
    expect(abs(measured["wall_s"] - 0.015) < 1e-12, f"measured wall_s {measured['wall_s']}")
    expect(adjusted["setup_s"] == 0.25, "end_to_end changed the set-up time it was given")
    # two set-up samples, the second while the host ran at half speed
    setup = [(1.1 * SETUP_REF_S, SETUP_REF_S), (2.2 * SETUP_REF_S, 2 * SETUP_REF_S)]
    expect(abs(setup_seconds(setup) - 1.1 * SETUP_REF_S) < 1e-12, "set-up not scaled")
    expect(abs(setup_seconds(setup, adjust=False) - 1.65 * SETUP_REF_S) < 1e-12,
           "measured set-up is not the plain median")
    return ("a request or set-up slowed as much as its probe or reference reads the same "
            "after adjustment")


def test_tracer_rebinding(workdir):
    deck = gen.make_deck("decompose_stream", 8, workdir)
    req = next(r for r in deck if r.expect["rc"] == 0 and r.expect["mode"] == "w" and r.n == 4)
    originals = (decomp.tensor_pairing, cli._DECOMPOSERS["w"], cli.main)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.request, tracer.request_n = 0, req.n
        rc, _ = call(req.argv)
    finally:
        tracer.uninstall()
    expect(rc == 0, f"traced request exited {rc}")
    a = tracer.arrays()
    counts = {name: int(np.sum(a["name"] == i)) for i, name in enumerate(tracer.names)}
    expect(counts.get("cli.main") == 1, f"cli.main spans: {counts.get('cli.main')}")
    expect(counts.get("decomp.w_decompose") == 1, "w_decompose not traced through the CLI table")
    expect(counts.get("linalg.tensor_pairing") == 36, "Gram loop pairings not traced")
    expect(bool(np.all(a["self"] >= -1e-9)), "a span's children outlast it")
    expect(bool(np.all(a["n"][a["name"] == tracer.names.index("linalg.tensor_pairing")] == 4)),
           "pairing spans do not carry n = 4")
    expect((decomp.tensor_pairing, cli._DECOMPOSERS["w"], cli.main) == originals,
           "uninstall left wrappers behind")
    return f"{len(tracer.names)} span names, 36 pairings under one decompose"


def main() -> int:
    workdir = WORK / f"selftest-p{os.getpid()}"
    failed = 0
    try:
        for test in (test_point_form, test_determinism, test_generator_labels,
                     test_gate_refuses_wrong_output, test_host_adjustment,
                     test_tracer_rebinding):
            sub = workdir / test.__name__
            sub.mkdir(parents=True)
            try:
                print(f"ok   {test.__name__}: {test(sub)}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {test.__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
