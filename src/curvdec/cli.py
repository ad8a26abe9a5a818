"""Command-line interface: decompose, sample, dims, verify, chart.

All results are JSON on stdout; diagnostics go to stderr.  Exit codes:
0 success, 1 data error, 2 usage error, 3 verification failure.  ``main(argv)``
may be called repeatedly in one process; it builds its parser once, on first use.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys

from .charts import CONNECTIONS, conjugate_triple_report, curvature_at
from .decomp import a_decompose, singer_thorpe, w_decompose
from .errors import CurvdecError, EmptyRun, NegativeStreamKey, UnknownCheck
from .jsonio import (
    _loads,
    decomposition_document,
    dimension_document,
    dumps,
    parse_chart,
    parse_tensor,
    tensor_document,
    triple_report_document,
)
from .linalg import standard_scalar_product
from .sampling import SAMPLE_SPACES, dimension_reports, rng_stream, sample
from .suite import SuiteConfig, run_invariant_suite

_DECOMPOSERS = {"w": w_decompose, "a": a_decompose, "st": singer_thorpe}


class _UsageError(Exception):
    """A bad combination of options; main reports it with exit code 2."""


def _signature(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("signature must be P,Q")
    try:
        p, q = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError("signature must be two integers") from exc
    if p < 0 or q < 0:
        raise argparse.ArgumentTypeError("signature counts must be non-negative")
    return p, q


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError("tolerance must be finite and non-negative")
    return tol


def _point(text: str) -> list[float]:
    try:
        point = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError("point must be comma-separated numbers") from exc
    if not all(map(math.isfinite, point)):
        raise argparse.ArgumentTypeError("point coordinates must be finite")
    return point


def _dim_signature(args) -> tuple[int, int]:
    """--signature, (dim, 0) by default; a usage error unless p + q is --dim."""
    sig = args.signature or (args.dim, 0)
    if sig[0] + sig[1] != args.dim:
        raise _UsageError(f"signature {sig} inconsistent with dim {args.dim}")
    return sig


def _emit(doc, output: str | None) -> None:
    text = dumps(doc)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read(path: str):
    with open(path, "rb") as fh:
        return fh.read()


def _cmd_decompose(args) -> int:
    doc = _loads(_read(args.input))
    tensor, g = parse_tensor(doc)
    include_g = "g" in doc
    result = _DECOMPOSERS[args.mode](tensor, g)
    _emit(decomposition_document(result, g, include_g), args.output)
    return 0


def _cmd_sample(args) -> int:
    sig = _dim_signature(args)
    tensor = sample(args.space, args.dim, sig, seed=args.seed)
    g = standard_scalar_product(*sig)
    _emit(tensor_document(tensor, g), args.output)
    return 0


def _cmd_dims(args) -> int:
    sig = _dim_signature(args)
    # the dimensions are projector traces: --samples and --seed change nothing, and are
    # refused where a sampled run refused them
    if args.samples is not None and args.samples < 1:
        raise EmptyRun(f"samples must be at least 1, got {args.samples}")
    rng_stream(args.seed, 0)  # refuses a negative seed
    reports = dimension_reports(args.dim, sig)
    _emit({space: dimension_document(rep) for space, rep in reports.items()}, args.output)
    return 0


def _cmd_verify(args) -> int:
    dims = (args.dim,) if args.dim is not None else SuiteConfig.dims
    signatures = (args.signature,) if args.signature is not None else None
    cfg = SuiteConfig(
        dims=dims,
        signatures=signatures,
        samples=args.samples,
        seed=args.seed,
        tolerance=args.tol,
    )
    report = run_invariant_suite(cfg, only=None if args.suite is None else [args.suite])
    _emit(report, args.output)
    failed = [name for name, entry in report.items() if not entry["pass"]]
    if failed:
        print("failed checks: " + ", ".join(sorted(failed)), file=sys.stderr)
        return 3
    return 0


def _cmd_chart(args) -> int:
    chart = parse_chart(_read(args.input))
    if len(args.point) != chart.dim:
        raise _UsageError(f"point has {len(args.point)} coordinates, chart dim is {chart.dim}")
    if args.report == "triple":
        doc = triple_report_document(conjugate_triple_report(chart, args.point))
    else:
        g = chart.metric_at(args.point)
        curvatures = {
            which: tensor_document(curvature_at(chart, args.point, which), g, include_g=True)
            for which in CONNECTIONS
        }
        doc = {"point": list(args.point), "curvatures": curvatures}
    _emit(doc, args.output)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvdec",
        description="Curvature tensor decompositions over pseudo-Euclidean scalar products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="split a tensor document into components")
    p.add_argument("--mode", choices=("w", "a", "st"), required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("sample", help="draw a reproducible subspace sample")
    p.add_argument("--space", choices=SAMPLE_SPACES, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--signature", type=_signature)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("dims", help="dimension reports for all spaces, by projector trace")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--signature", type=_signature)
    p.add_argument("--samples", type=int, help="ignored; dims draws no sample")
    p.add_argument("--seed", type=int, default=0, help="ignored; dims draws no sample")
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--suite", help="run a single named check")
    p.add_argument("--dim", type=int)
    p.add_argument("--signature", type=_signature)
    p.add_argument("--samples", type=int, default=SuiteConfig.samples)
    p.add_argument("--seed", type=int, default=SuiteConfig.seed)
    p.add_argument("--tol", type=_tolerance, default=SuiteConfig.tolerance)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("chart", help="evaluate a polynomial chart at a point")
    p.add_argument("--input", required=True)
    p.add_argument("--point", type=_point, required=True)
    p.add_argument("--report", choices=("curvature", "triple"), default="curvature")
    p.set_defaults(func=_cmd_chart)

    for p in sub.choices.values():
        p.add_argument("--output")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--point":
            # argparse takes a value such as "-0.1,0.2,0.3" for an option; attach each one
            argv[i : i + 2] = [f"--point={argv[i + 1]}"]
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse exits on --help and on a usage error
        return int(exc.code or 0)
    except (_UsageError, EmptyRun, NegativeStreamKey, UnknownCheck) as exc:
        # the library's refusals of an option value are usage errors too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CurvdecError, OSError) as exc:  # OSError: a missing file, a directory, no permission
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
