"""End-to-end analysis pipeline and report serialization.

run_analysis ties the modules together: ingest -> cumulative snapshots ->
per-period metrics/fits/verdicts -> proxies, correlations, and the
static-attribute scan, bundled with input provenance.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Optional, Sequence

from .errors import InsufficientDataError, PipelineError
from .evolution import (
    CorrelationReport,
    ProxyRow,
    SmallWorldThresholds,
    SmallWorldVerdict,
    StaticCheck,
    classify_small_world,
    correlate_attachment,
    proxy_series,
    static_attributes,
)
from .graph_core import GraphSnapshot, Timestamp, build_cumulative_snapshots, check_breakpoints
from .ingest import format_timestamp, parse_edge_events_text, parse_publications_text
from .metrics import MetricsRow, degree_histogram, metrics_row
from .powerlaw import PowerLawFit, fit_powerlaw, loglog_points

INPUT_KINDS = ("events", "publications")


@dataclass
class AnalysisConfig:
    """Everything run_analysis needs besides the input bytes, checked on
    construction so that no fault in it waits for the input to be read.

    Exactly one slicing mode applies: explicit breakpoints, --yearly, or the
    default single period covering all events (labelled "all"). Labels name
    explicit breakpoints only, and the breakpoints and labels must pass
    `check_breakpoints`. The kind must be one of INPUT_KINDS, rel_tolerance
    must lie in (0, 1] and every small-world threshold must be finite; any
    other value is a ValueError.
    """

    input_path: str
    kind: str = "events"
    breakpoints: Optional[Sequence[Timestamp]] = None
    labels: Optional[Sequence[str]] = None
    yearly: bool = False
    rel_tolerance: float = 0.10
    thresholds: SmallWorldThresholds = field(default_factory=SmallWorldThresholds)

    def __post_init__(self):
        if self.kind not in INPUT_KINDS:
            raise ValueError(f"unknown input kind {self.kind!r}")
        if self.yearly and self.breakpoints is not None:
            raise ValueError("--yearly and --breakpoints are two slicing modes; give one")
        if self.labels is not None and self.breakpoints is None:
            raise ValueError("--labels names the --breakpoints periods; give --breakpoints too")
        if self.breakpoints is not None:
            check_breakpoints(self.breakpoints, self.labels)
        if not 0.0 < self.rel_tolerance <= 1.0:
            raise ValueError(f"rel_tolerance must be in (0, 1], got {self.rel_tolerance}")
        for name, value in asdict(self.thresholds).items():
            if not math.isfinite(value):
                raise ValueError(f"small-world threshold {name} must be finite, got {value}")


@dataclass
class ReportBundle:
    """All analysis outputs for one run, aligned by period label."""

    rows: list[MetricsRow]
    fits: list[Optional[PowerLawFit]]
    proxies: list[ProxyRow]
    correlations: CorrelationReport
    static_checks: list[StaticCheck]
    verdicts: list[SmallWorldVerdict]
    provenance: dict


def _yearly_breakpoints(times: Sequence[Timestamp]) -> tuple[list[Timestamp], list[str]]:
    """Year-end breakpoints for every calendar year the times span; years of
    offset-aware times are UTC years."""
    if not times:
        raise ValueError("input contains no interactions to slice")
    if not all(isinstance(t, datetime) for t in times):
        raise ValueError("--yearly requires date-typed event times")
    tz = timezone.utc if times[0].tzinfo is not None else None
    years = {(t if tz is None else t.astimezone(tz)).year for t in times}
    span = range(min(years), max(years) + 1)
    breakpoints = [datetime(y, 12, 31, 23, 59, 59, 999999, tzinfo=tz) for y in span]
    return breakpoints, [str(y) for y in span]


def _per_period(
    snapshot: GraphSnapshot, thresholds: SmallWorldThresholds
) -> tuple[MetricsRow, Optional[PowerLawFit], SmallWorldVerdict]:
    row = metrics_row(snapshot)
    try:
        fit: Optional[PowerLawFit] = fit_powerlaw(degree_histogram(snapshot))
    except InsufficientDataError:
        fit = None
    return row, fit, classify_small_world(row, fit, thresholds)


def load_snapshots(config: AnalysisConfig, data: bytes) -> tuple[list[GraphSnapshot], list[str]]:
    """The one route from an input file's bytes to snapshots: decode them
    (UTF-8, with or without a byte-order mark), parse them per config.kind
    and slice them. Returns (snapshots, ingest warnings); any failure is a
    PipelineError at stage "ingest"."""
    try:
        text = data.decode("utf-8-sig")
        events, records = [], []
        if config.kind == "events":
            events, warnings = parse_edge_events_text(text, source=config.input_path)
        else:
            records, warnings = parse_publications_text(text, source=config.input_path)
        times = [ev.time for ev in events] + [r.date for r in records]
        if config.breakpoints is not None:
            breakpoints = list(config.breakpoints)
            labels = list(config.labels or (f"T{i + 1}" for i in range(len(breakpoints))))
        elif config.yearly:
            breakpoints, labels = _yearly_breakpoints(times)
        else:
            if not times:
                raise ValueError("input contains no interactions to slice")
            breakpoints, labels = [max(times)], ["all"]
        snapshots = build_cumulative_snapshots(events, breakpoints, labels, publications=records)
    except Exception as exc:
        raise PipelineError("ingest", str(exc)) from exc
    return snapshots, warnings


def run_analysis(config: AnalysisConfig, data: bytes) -> ReportBundle:
    """Run the full pipeline on the input's bytes, which config.input_path
    only names; deterministic for fixed bytes and config. Any stage failure
    is wrapped in PipelineError naming the stage."""
    snapshots, warnings = load_snapshots(config, data)

    try:
        per_period = [_per_period(s, config.thresholds) for s in snapshots]
        rows = [r for r, _, _ in per_period]
        fits = [f for _, f, _ in per_period]
        verdicts = [v for _, _, v in per_period]
    except Exception as exc:
        raise PipelineError("metrics", str(exc)) from exc

    try:
        proxies = proxy_series(rows, fits)
        correlations = correlate_attachment(proxies, rows)
        if len(rows) >= 2:
            static_checks = static_attributes(rows, config.rel_tolerance, fits)
        else:
            static_checks = []
    except Exception as exc:
        raise PipelineError("evolution", str(exc)) from exc

    provenance = {
        "input_digest": hashlib.sha256(data).hexdigest(),
        "input_path": config.input_path,
        "kind": config.kind,
        "config": {
            "breakpoints": (
                None
                if config.breakpoints is None
                else [format_timestamp(b) for b in config.breakpoints]
            ),
            "labels": None if config.labels is None else list(config.labels),
            "yearly": config.yearly,
            "rel_tolerance": config.rel_tolerance,
            "thresholds": asdict(config.thresholds),
            # always null: perfbench/gate.py holds bundles to the seed's provenance keys
            "threads": None,
        },
        "ingest_warnings": warnings,
    }
    return ReportBundle(rows, fits, proxies, correlations, static_checks, verdicts, provenance)


CSV_COLUMNS = (
    "label",
    "n_actors",
    "n_links",
    "sum_links",
    "density_weighted_pct",
    "density_simple_pct",
    "clustering",
    "diameter",
    "avg_distance",
    "power_law_exponent",
    "r_squared",
    "assortativity",
    "avg_neighbor_degree",
    "avg_strength",
    "centralization_degree",
    "centralization_betweenness",
    "centralization_closeness",
    "small_world",
)


def _cell(value, fmt: str) -> str:
    return "" if value is None else format(value, fmt)


def bundle_to_csv(bundle: ReportBundle) -> str:
    """Metrics table, one row per period. Densities print as percentages with
    one decimal; undefined metrics are blank cells."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row, fit, verdict in zip(bundle.rows, bundle.fits, bundle.verdicts):
        writer.writerow(
            [
                row.label,
                row.n_actors,
                row.n_links,
                row.sum_links,
                _cell(None if row.density_weighted is None else 100 * row.density_weighted, ".1f"),
                _cell(None if row.density_simple is None else 100 * row.density_simple, ".1f"),
                _cell(row.clustering, ".2f"),
                "" if row.diameter is None else str(row.diameter),
                _cell(row.avg_distance, ".2f"),
                "" if fit is None else format(fit.exponent, ".2f"),
                "" if fit is None else format(fit.r_squared, ".3f"),
                _cell(row.assortativity, ".3f"),
                _cell(row.avg_neighbor_degree, ".2f"),
                _cell(row.avg_strength, ".2f"),
                _cell(row.centralization_degree, ".3f"),
                _cell(row.centralization_betweenness, ".3f"),
                _cell(row.centralization_closeness, ".3f"),
                "" if verdict.verdict is None else str(verdict.verdict).lower(),
            ]
        )
    return buffer.getvalue()


def bundle_to_json(bundle: ReportBundle) -> str:
    """Full-precision JSON rendering of the whole bundle (sorted keys)."""
    payload = {
        "rows": [asdict(r) for r in bundle.rows],
        "fits": [None if f is None else asdict(f) for f in bundle.fits],
        "proxies": [asdict(p) for p in bundle.proxies],
        "correlations": {
            "pairs": [asdict(p) for p in bundle.correlations.pairs],
            "ranked_drivers": list(bundle.correlations.ranked_drivers),
        },
        "static_checks": [asdict(c) for c in bundle.static_checks],
        "verdicts": [
            {**asdict(v), "verdict": v.verdict} for v in bundle.verdicts
        ],
        "provenance": bundle.provenance,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def fit_plot_csv(hist: dict[int, int], fit: PowerLawFit) -> tuple[str, str]:
    """Log-log point scatter of `hist` and the endpoints of its fitted line
    as two CSV texts, ready for any external plotter."""
    points = loglog_points(hist)
    points_buffer = io.StringIO()
    writer = csv.writer(points_buffer, lineterminator="\n")
    writer.writerow(["log10_degree", "log10_count"])
    for x, y in points:
        writer.writerow([format(x, ".12g"), format(y, ".12g")])
    line_buffer = io.StringIO()
    writer = csv.writer(line_buffer, lineterminator="\n")
    writer.writerow(["log10_degree", "log10_count_fit"])
    xs = [x for x, _ in points]
    for x in (min(xs), max(xs)):
        y = fit.intercept - fit.exponent * x
        writer.writerow([format(x, ".12g"), format(y, ".12g")])
    return points_buffer.getvalue(), line_buffer.getvalue()
