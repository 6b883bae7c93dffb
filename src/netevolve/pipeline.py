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
from typing import Iterable, Optional, Sequence

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
    PipelineError at stage "ingest", caused by an InsufficientDataError when
    the input holds no interaction at all, whatever the slicing mode."""
    try:
        text = data.decode("utf-8-sig")
        events, records = [], []
        if config.kind == "events":
            events, warnings = parse_edge_events_text(text, source=config.input_path)
        else:
            records, warnings = parse_publications_text(text, source=config.input_path)
        times = [ev.time for ev in events] + [r.date for r in records]
        if not times:
            raise InsufficientDataError("input contains no interactions to slice")
        if config.breakpoints is not None:
            breakpoints = list(config.breakpoints)
            labels = list(config.labels or (f"T{i + 1}" for i in range(len(breakpoints))))
        elif config.yearly:
            breakpoints, labels = _yearly_breakpoints(times)
        else:
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
        rows, fits, verdicts = (list(column) for column in zip(*per_period))
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


def _cell(value, fmt: str = "") -> str:
    """A table cell: blank for an undefined value."""
    return "" if value is None else format(value, fmt)


def _percent(fraction: Optional[float]) -> Optional[float]:
    return None if fraction is None else 100 * fraction


# The per-period table in output order, one (column, cell of (row, fit,
# verdict)) per column: the CSV writes every column, `report` some of them.
_TABLE = (
    ("label", lambda r, f, v: r.label),
    ("n_actors", lambda r, f, v: _cell(r.n_actors)),
    ("n_links", lambda r, f, v: _cell(r.n_links)),
    ("sum_links", lambda r, f, v: _cell(r.sum_links)),
    ("density_weighted_pct", lambda r, f, v: _cell(_percent(r.density_weighted), ".1f")),
    ("density_simple_pct", lambda r, f, v: _cell(_percent(r.density_simple), ".1f")),
    ("clustering", lambda r, f, v: _cell(r.clustering, ".2f")),
    ("diameter", lambda r, f, v: _cell(r.diameter)),
    ("avg_distance", lambda r, f, v: _cell(r.avg_distance, ".2f")),
    ("power_law_exponent", lambda r, f, v: "" if f is None else format(f.exponent, ".2f")),
    ("r_squared", lambda r, f, v: "" if f is None else format(f.r_squared, ".3f")),
    ("assortativity", lambda r, f, v: _cell(r.assortativity, ".3f")),
    ("avg_neighbor_degree", lambda r, f, v: _cell(r.avg_neighbor_degree, ".2f")),
    ("avg_strength", lambda r, f, v: _cell(r.avg_strength, ".2f")),
    ("centralization_degree", lambda r, f, v: _cell(r.centralization_degree, ".3f")),
    ("centralization_betweenness", lambda r, f, v: _cell(r.centralization_betweenness, ".3f")),
    ("centralization_closeness", lambda r, f, v: _cell(r.centralization_closeness, ".3f")),
    ("small_world", lambda r, f, v: _cell(v.verdict).lower()),
)

CSV_COLUMNS = tuple(name for name, _ in _TABLE)


def _csv_text(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def bundle_to_csv(bundle: ReportBundle) -> str:
    """Metrics table, one row per period; undefined metrics are blank cells."""
    periods = zip(bundle.rows, bundle.fits, bundle.verdicts)
    return _csv_text(CSV_COLUMNS, ([cell(*p) for _, cell in _TABLE] for p in periods))


def bundle_to_json(bundle: ReportBundle) -> str:
    """Full-precision JSON of the bundle's dataclass fields plus each verdict's flag."""
    payload = asdict(bundle)
    for verdict, fields in zip(bundle.verdicts, payload["verdicts"]):
        fields["verdict"] = verdict.verdict
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _g12(pairs: Iterable[tuple[float, float]]) -> Iterable[list[str]]:
    return ([format(x, ".12g"), format(y, ".12g")] for x, y in pairs)


def fit_plot_csv(hist: dict[int, int], fit: PowerLawFit) -> tuple[str, str]:
    """Log-log point scatter of `hist` and the endpoints of its fitted line
    as two CSV texts, ready for any external plotter."""
    points = loglog_points(hist)  # sorted by degree: the line spans the first to the last
    line = [(x, fit.intercept - fit.exponent * x) for x in (points[0][0], points[-1][0])]
    return (
        _csv_text(("log10_degree", "log10_count"), _g12(points)),
        _csv_text(("log10_degree", "log10_count_fit"), _g12(line)),
    )
