"""curvdec benchmark: drives `curvdec.cli.main(argv)` in-process.

    python3 perfbench/run.py --workload decompose_stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere; the program under test is the `src/` next to this
directory.  Each workload is one closed loop with one client and no think
time over a deck of requests generated from --seed before timing starts
(see gen.py).  With --trace 0 the run repeats whole passes over the deck
for about --seconds and reports the end-to-end metrics, each request's time
scaled to a reference host speed (probe.py); with
--trace 1 it runs a fixed number of passes untraced and then traced, so
that counts repeat exactly, and reports the per-layer metrics (layers.py).
Every output is checked (gate.py).  The last line of stdout is one JSON
object; the lines before it print each metric with its unit and sample
count.  `--workload all` runs each workload in its own fresh process.
"""
from __future__ import annotations

import os

# One BLAS thread: on a small machine a second OpenBLAS thread made the SVD
# and einsum paths slower and noisier.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import gate
import gen
from layers import PER_LAYER, baseline_ratios, per_layer
from probe import PROBE_REF_S, Sampler, gauge
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# fresh interpreters timed before the timed loop, after each pass and after
# the loop; the host's speed swings over seconds, so samples spread over the
# whole run steady the median
SETUP_RUNS = (4, 4)
# each set-up sample is paired with a fresh interpreter that imports only
# what curvdec.cli imports besides curvdec, and scaled by SETUP_REF_S, that
# start's typical time on a 2-core VM (Python 3.11, numpy 2.4), over it: the
# host's speed drifts over the hour that two sets of runs take, and moved the
# median set-up time of ten runs by a quarter
SETUP_REFERENCE = "import argparse, json, numpy"
SETUP_REF_S = 0.22
# fewest passes in an untraced run
MIN_PASSES = 2
# a probe burst after each request lasts this share of the request's time
GAUGE_SHARE = 0.1
# and this long before the first request of a pass
GAUGE_START_S = 0.05
# seconds between probes while a request runs
SAMPLE_INTERVAL_S = 0.05
# passes over the deck in a traced run; fixed so that counts repeat exactly
TRACE_PASSES = {"suite_batch": 1, "decompose_stream": 2, "chart_lab": 2}
E2E_UNITS = {
    "wall_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def interpreter_seconds(code) -> float:
    """Time for a fresh interpreter to run `code`, with src/ on its path."""
    t0 = perf_counter()
    # no timeout: waiting with one polls in sleeps of up to 50 ms,
    # which rounded every sample up to the next 50 ms step
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                   cwd=ROOT, check=True)
    return perf_counter() - t0


def measure_setup(runs) -> list[tuple[float, float]]:
    """(seconds, reference seconds): a fresh interpreter importing
    curvdec.cli, then one importing only the libraries it uses."""
    return [(interpreter_seconds("import curvdec.cli"), interpreter_seconds(SETUP_REFERENCE))
            for _ in range(runs)]


def setup_seconds(samples, adjust=True) -> float:
    """Median set-up time; with `adjust`, each sample is scaled by
    SETUP_REF_S over the reference start measured next to it."""
    return statistics.median(t * SETUP_REF_S / ref if adjust else t for t, ref in samples)


def hd_quantile(values, q, grid=100_000):
    """Harrell-Davis estimate of the q-quantile.

    The mean of the order statistics weighted by a Beta(q(n+1), (1-q)(n+1))
    density over their ranks.  A single order statistic jumps when two
    requests of very different cost trade places next to the quantile (the
    decks mix request classes that differ tenfold); this estimate moves by a
    fraction of that.  The density is integrated by the midpoint rule.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    t = (np.arange(grid) + 0.5) / grid
    logpdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    weight = np.bincount((t * n).astype(int), weights=np.exp(logpdf - logpdf.max()),
                         minlength=n)
    return float(weight @ x / weight.sum())


def call(cli, req, sampler=None):
    """One request through the CLI entry point: (exit code, stdout, stderr, seconds).

    With a sampler, probes run during the request and their time is not
    counted in the request's."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            sampler or contextlib.nullcontext():
        t0 = perf_counter()
        try:
            rc = cli.main(list(req.argv))
        except Exception:  # a crash is a failed request, not a failed benchmark
            rc = -1
            err.write(traceback.format_exc())
        dt = perf_counter() - t0
    if sampler:
        dt -= sampler.stolen
    return rc, out.getvalue(), err.getvalue(), dt


class Tally:
    """Request outcomes: latencies, failures and the verify digest."""

    def __init__(self):
        self.samples = []  # (pass, class, n, seconds, probe seconds) per request
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.verify_sha256 = None

    def record(self, pass_no, req, rc, out, err, dt, host):
        self.attempted += 1
        self.samples.append((pass_no, req.cls, req.n, dt, host))
        try:
            reason = gate.check(req, rc, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"{req.cls}: unreadable output ({exc!r})"
        if reason:
            self.failed += 1
            self.reasons.append(f"{reason} [argv {' '.join(req.argv)}] {err.strip()[-300:]}")
        if req.cls == "verify" and self.verify_sha256 is None:
            self.verify_sha256 = hashlib.sha256(out.encode()).hexdigest()


def run_passes(cli, deck, tally, seconds=None, passes=None, on_request=None, between=None,
               gauged=False):
    """Whole passes over the deck; returns the summed request time of each pass.

    With `seconds`, passes go on while the next one, timed like the last,
    would end within `seconds` of the start, and there are at least
    MIN_PASSES.  `between` runs after each pass, inside that time.  With
    `gauged`, a burst of probes runs before and after every request and a
    probe every SAMPLE_INTERVAL_S during it; each request is recorded with
    the mean of the two bursts and the probes during it.
    """
    pass_times = []
    sampler = Sampler(SAMPLE_INTERVAL_S) if gauged else None
    t_start = perf_counter()
    while True:
        t_pass = perf_counter()
        spent = 0.0
        before = gauge(GAUGE_START_S) if gauged else 0.0
        for req in deck:
            if on_request:
                on_request(req)
            rc, out, err, dt = call(cli, req, sampler)
            after = gauge(GAUGE_SHARE * dt) if gauged else 0.0
            host = statistics.fmean([before, after, *sampler.probes]) if gauged else 0.0
            tally.record(len(pass_times), req, rc, out, err, dt, host)
            before = after
            spent += dt
        pass_times.append(spent)
        if between:
            between()
        if passes is not None and len(pass_times) >= passes:
            break
        now = perf_counter()
        if (seconds is not None and len(pass_times) >= MIN_PASSES
                and now + (now - t_pass) - t_start > seconds):
            break
    return pass_times


def request_times(tally, adjust):
    """(pass, class, n, seconds) per request; with `adjust`, each time is
    scaled by PROBE_REF_S over the probe time around that request."""
    return [(p, cls, n, dt * PROBE_REF_S / host if adjust else dt)
            for p, cls, n, dt, host in tally.samples]


def end_to_end(tally, setup, adjust=True):
    # read before the quantile estimates below allocate their grids
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = request_times(tally, adjust)
    per_pass = {}
    for p, _, _, dt in times:
        per_pass[p] = per_pass.get(p, 0.0) + dt
    lat_ms = [dt * 1e3 for _, _, _, dt in times]
    return {
        "wall_s": statistics.median(per_pass.values()),
        "throughput_rps": len(lat_ms) / sum(lat_ms) * 1e3,
        "latency_p50_ms": hd_quantile(lat_ms, 0.5),
        "latency_p90_ms": hd_quantile(lat_ms, 0.9),
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb,
    }


def cli_baseline_ratios(tally):
    """Median verify and dims --dim 5 latency, as measured, over the ROADMAP's
    ad-hoc subprocess timings (7.6 s and 8.7 s, which include interpreter start)."""
    ratios = {}
    for cls, n, base, key in (("verify", 0, 7.6, "verify_s/7.6"), ("dims", 5, 8.7, "dims5_s/8.7")):
        times = [dt for _, c, m, dt in request_times(tally, False) if (c, m) == (cls, n)]
        if times:
            ratios[key] = statistics.median(times) / base
    return ratios


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    setup_times = [] if args.trace else measure_setup(SETUP_RUNS[0])
    import curvdec.cli as cli

    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        deck = gen.make_deck(args.workload, args.seed, workdir)
        for req in gen.warmup_requests(args.workload, deck):
            call(cli, req)  # untimed and unchecked; the timed requests are checked
        tally = Tally()
        if args.trace:
            metrics, info = traced(args, cli, deck, tally)
        else:
            pass_times = run_passes(cli, deck, tally, seconds=args.seconds, gauged=True,
                                    between=lambda: setup_times.extend(measure_setup(1)))
            setup_times += measure_setup(SETUP_RUNS[1])
            metrics = end_to_end(tally, setup_seconds(setup_times))
            measured = end_to_end(tally, setup_seconds(setup_times, adjust=False),
                                  adjust=False)
            info = {"passes": len(pass_times), "requests_per_pass": len(deck),
                    "probe_ms": statistics.median(s[4] for s in tally.samples) * 1e3,
                    "unadjusted": {k: measured[k] for k in
                                   ("wall_s", "throughput_rps", "latency_p50_ms",
                                    "latency_p90_ms", "setup_s")},
                    "setup_runs_s": [[round(t, 4), round(ref, 4)] for t, ref in setup_times],
                    "baseline_ratio": cli_baseline_ratios(tally)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info["verify_sha256"] = tally.verify_sha256
    info["fail_ratio"] = tally.failed / tally.attempted
    report(args, metrics, tally, info)
    return 0


def traced(args, cli, deck, tally):
    passes = TRACE_PASSES[args.workload]
    tracer = Tracer()
    requests = []

    def on_request(req):
        tracer.request = len(requests)
        tracer.request_n = req.n
        requests.append(req)

    # alternate untraced and traced passes, so drift in machine speed
    # does not land on one side of trace.overhead_ratio
    untraced = traced_time = wall = 0.0
    for _ in range(passes):
        untraced += sum(run_passes(cli, deck, tally, passes=1))
        tracer.install()
        t0 = perf_counter()
        traced_time += sum(run_passes(cli, deck, tally, passes=1, on_request=on_request))
        wall += perf_counter() - t0
        tracer.uninstall()
    values = per_layer(tracer, requests, wall)
    values["trace.overhead_ratio"] = traced_time / untraced
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.save(traces / f"{args.workload}-s{args.seed}.npz")
    metrics = {name: values[name] for name, _, _ in PER_LAYER}
    info = {"passes": passes, "requests_per_pass": len(deck), "spans": len(tracer.name),
            "baseline_ratio": baseline_ratios(tracer)}
    return metrics, info


def report(args, metrics, tally, info):
    units = {name: unit for name, unit, _ in PER_LAYER} if args.trace else E2E_UNITS
    n = len(tally.samples)
    samples = {
        "wall_s": f"median of {info['passes']} passes of {info['requests_per_pass']} requests, "
                  "adjusted",
        "throughput_rps": f"{n} requests / summed request time, adjusted",
        "latency_p50_ms": f"{n} samples, Harrell-Davis, adjusted",
        "latency_p90_ms": f"{n} samples, {n - int(0.9 * n)} beyond, Harrell-Davis, adjusted",
        "setup_s": f"median of {len(info.get('setup_runs_s', ()))} fresh interpreters, "
                   "before, between passes and after, each scaled by a reference start",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {tally.attempted} requests, "
          f"{tally.failed} failed, fail_ratio={info['fail_ratio']:.4g}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]:<6} {samples.get(name, '')}")
    for reason in tally.reasons[:20]:
        print(f"  FAILED: {reason}", file=sys.stderr)
    print("# info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))


def run_all(args) -> int:
    """Each workload in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in gen.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite_batch", "decompose_stream", "chart_lab", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "curvdec" / "cli.py").is_file():
        print(f"error: no curvdec sources at {SRC}; run from a curvdec checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
