"""Command-line interface: analyze, generate, fit, report.

Exit codes: 0 ok, 2 config error, 3 parse/io error, 4 analysis error.
Failures print a structured JSON error naming the failing stage to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from .errors import InsufficientDataError, ParseError, PipelineError, UndefinedMetricError
from .evolution import SmallWorldThresholds
from .generators import barabasi_albert, erdos_renyi, watts_strogatz
from .ingest import parse_timestamp, write_edge_events_text
from .graph_core import InteractionEvent, check_labels
from .metrics import degree_histogram
from .pipeline import (
    _TABLE,
    INPUT_KINDS,
    AnalysisConfig,
    bundle_to_csv,
    bundle_to_json,
    fit_plot_csv,
    load_snapshots,
    run_analysis,
)
from .powerlaw import fit_powerlaw

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_ANALYSIS = 4


def _add_slicing_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", default="-", help="input file, or - for stdin")
    parser.add_argument(
        "--kind", choices=INPUT_KINDS, default=AnalysisConfig._field_defaults["kind"]
    )
    parser.add_argument(
        "--breakpoints",
        help="comma-separated period breakpoints (ISO dates or numbers, inclusive)",
    )
    parser.add_argument("--labels", help="comma-separated period labels")
    parser.add_argument(
        "--yearly", action="store_true", help="slice into cumulative calendar years"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netevolve",
        description="Longitudinal collaboration-network analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the full analysis pipeline")
    _add_slicing_args(analyze)
    analyze.add_argument("--format", choices=("csv", "json"), default="csv")
    analyze.add_argument("--out", default="-", help="output file, or - for stdout")
    analyze.add_argument(
        "--rel-tolerance", type=float, default=AnalysisConfig._field_defaults["rel_tolerance"]
    )
    sw = SmallWorldThresholds._field_defaults
    analyze.add_argument("--sw-density-max", type=float, default=sw["density_max"])
    analyze.add_argument("--sw-clustering-min", type=float, default=sw["clustering_min"])
    analyze.add_argument("--sw-r2-min", type=float, default=sw["r_squared_min"])
    analyze.add_argument("--sw-exponent-min", type=float, default=sw["exponent_min"])

    gen = sub.add_parser("generate", help="emit a synthetic graph as edge-event CSV")
    gen.add_argument("--model", choices=("er", "ws", "ba"), required=True)
    gen.add_argument("-n", type=int, required=True, help="number of actors")
    gen.add_argument("--p", type=float, help="er edge probability")
    gen.add_argument("--k", type=int, help="ws even neighbor count")
    gen.add_argument("--beta", type=float, default=0.0, help="ws rewiring probability")
    gen.add_argument("-m", type=int, help="ba edges per arriving node")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default="-")

    fit = sub.add_parser("fit", help="export log-log points and the fitted line")
    _add_slicing_args(fit)
    fit.add_argument("--out-prefix", required=True)

    report = sub.add_parser("report", help="render a saved JSON bundle")
    report.add_argument("--bundle", required=True, help="bundle JSON from analyze, or - for stdin")
    report.add_argument("--out", default="-")

    return parser


def _open_input(path: str):
    """The input as a binary stream for a `with`: the file, or stdin's for
    `-`, which the `with` leaves open."""
    return nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb")


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _config_from_args(args, **options) -> AnalysisConfig:
    """The slicing options analyze and fit share, plus `options`, checked
    by AnalysisConfig before any input is read."""
    breakpoints = labels = None
    if args.breakpoints is not None:
        breakpoints = [parse_timestamp(b) for b in args.breakpoints.split(",")]
    if args.labels is not None:
        labels = [lab.strip() for lab in args.labels.split(",")]
    return AnalysisConfig(
        input_path=args.input,
        kind=args.kind,
        breakpoints=breakpoints,
        labels=labels,
        yearly=args.yearly,
        **options,
    )


def _cmd_analyze(args) -> int:
    thresholds = SmallWorldThresholds(
        density_max=args.sw_density_max,
        clustering_min=args.sw_clustering_min,
        r_squared_min=args.sw_r2_min,
        exponent_min=args.sw_exponent_min,
    )
    config = _config_from_args(args, rel_tolerance=args.rel_tolerance, thresholds=thresholds)
    with _open_input(args.input) as stream:
        bundle = run_analysis(config, stream)
    text = bundle_to_csv(bundle) if args.format == "csv" else bundle_to_json(bundle)
    _write_output(args.out, text)
    return EXIT_OK


def _cmd_generate(args) -> int:
    if args.model == "er":
        if args.p is None:
            raise ValueError("--model er requires --p")
        snapshot = erdos_renyi(args.n, args.p, args.seed)
    elif args.model == "ws":
        if args.k is None:
            raise ValueError("--model ws requires --k")
        snapshot = watts_strogatz(args.n, args.k, args.beta, args.seed)
    else:
        if args.m is None:
            raise ValueError("--model ba requires -m")
        snapshot = barabasi_albert(args.n, args.m, args.seed)
    events = [
        InteractionEvent(i, a, b, w)
        for i, ((a, b), w) in enumerate(snapshot.edges.items())
    ]
    _write_output(args.out, write_edge_events_text(events))
    return EXIT_OK


def _cmd_fit(args) -> int:
    config = _config_from_args(args)
    for label in config.labels or ():
        if any(sep and sep in label for sep in (os.sep, os.altsep)):
            raise ValueError(f"fit label {label!r} must not contain a path separator")
    with _open_input(args.input) as stream:
        snapshots, _ = load_snapshots(config, stream)
    hists = [degree_histogram(snapshot) for snapshot in snapshots]
    fits = [fit_powerlaw(hist) for hist in hists]  # all before any output, so a fault leaves none
    for snapshot, hist, fit in zip(snapshots, hists, fits):
        points_csv, line_csv = fit_plot_csv(hist, fit)
        _write_output(f"{args.out_prefix}_{snapshot.label}_points.csv", points_csv)
        _write_output(f"{args.out_prefix}_{snapshot.label}_line.csv", line_csv)
        sys.stdout.write(
            f"{snapshot.label}: exponent={fit.exponent:.2f} "
            f"r_squared={fit.r_squared:.3f} points={fit.n_points}\n"
        )
    return EXIT_OK


def _cmd_report(args) -> int:
    with _open_input(args.bundle) as stream:
        data = stream.read()
    try:
        text = _render_report(json.loads(data.decode("utf-8"), object_hook=_Fields))
    except UnicodeDecodeError as exc:
        # its repr would echo the whole input
        raise ParseError(f"{args.bundle}: not UTF-8 at byte {exc.start} ({exc.reason})") from exc
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ParseError(f"{args.bundle}: not a netevolve bundle ({exc!r})") from exc
    _write_output(args.out, text)
    return EXIT_OK


class _Fields(dict):
    """A JSON object read like the NamedTuple it renders; a missing key is a KeyError."""

    __getattr__ = dict.__getitem__


_REPORT_COLUMNS = ("label", "n_actors", "n_links", "sum_links", "clustering", "diameter", "small_world")


def _render_report(payload: dict) -> str:
    """The report text; a ValueError when the bundle's rows, fits and
    verdicts differ in length or its period labels break the label rule."""
    cells = [dict(_TABLE)[name] for name in _REPORT_COLUMNS]
    check_labels([row.label for row in payload["rows"]])
    lines = ["\t".join(_REPORT_COLUMNS)]
    for row, _, verdict in zip(payload["rows"], payload["fits"], payload["verdicts"], strict=True):
        lines.append("\t".join(cell(row, None, verdict) for cell in cells))
    drivers = payload["correlations"]["ranked_drivers"]
    lines.append("ranked_drivers: " + (", ".join(drivers) if drivers else "(none)"))
    for check in payload["static_checks"]:
        lines.append(
            f"static[{check['metric']}]: {str(check['static']).lower()} "
            f"(spread={check['spread']:.4g}, mean={check['mean']:.4g})"
        )
    return "\n".join(lines) + "\n"


_HANDLERS = {
    "analyze": _cmd_analyze,
    "generate": _cmd_generate,
    "fit": _cmd_fit,
    "report": _cmd_report,
}


def _emit_error(stage: str, message: str) -> None:
    sys.stderr.write(json.dumps({"stage": stage, "error": message}) + "\n")


# (fault type, stage when no pipeline stage names one, exit code), first
# match wins. A PipelineError keeps its stage and is looked up by its cause,
# exiting 4 when no row matches; any other exception propagates.
_FAULTS = (
    (ParseError, "parse", EXIT_PARSE),
    (OSError, "io", EXIT_PARSE),
    (UndefinedMetricError, "analysis", EXIT_ANALYSIS),
    (InsufficientDataError, "analysis", EXIT_ANALYSIS),
    (ValueError, "config", EXIT_CONFIG),
)


def main(argv=None) -> int:
    # numpy's bundled OpenBLAS starts a worker thread per CPU when numpy is
    # first imported, which doubles the import's time, and netevolve makes no
    # BLAS call; a value the user exported still wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (PipelineError, *(kind for kind, _, _ in _FAULTS)) as exc:
        in_stage = isinstance(exc, PipelineError)
        fault = (exc.__cause__ or exc) if in_stage else exc
        rows = (row for row in _FAULTS if isinstance(fault, row[0]))
        _, stage, code = next(rows, (None, None, EXIT_ANALYSIS))
        _emit_error(exc.stage if in_stage else stage, str(fault))
        return code


def entrypoint() -> None:
    sys.exit(main())
