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
from datetime import datetime, timezone
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Optional, Sequence

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
from .graph_core import GraphSnapshot, Timestamp, check_breakpoints
from .graph_core import _Interactions, _make, _rebuild, _refuse
from .ingest import _BLOCK, _edge_events, _publications, format_timestamp
from .metrics import MetricsRow, degree_histogram, metrics_row
from .powerlaw import PowerLawFit, fit_powerlaw, loglog_points

INPUT_KINDS = ("events", "publications")


class _ConfigFields(NamedTuple):
    input_path: str
    kind: str = "events"
    breakpoints: Optional[Sequence[Timestamp]] = None
    labels: Optional[Sequence[str]] = None
    yearly: bool = False
    rel_tolerance: float = 0.10
    thresholds: SmallWorldThresholds = SmallWorldThresholds()


class AnalysisConfig(_ConfigFields):
    """Everything run_analysis needs besides the input stream, checked on
    construction so that no fault in it waits for the input to be read;
    frozen, so no field changes after its checks.

    Exactly one slicing mode applies: explicit breakpoints, --yearly, or the
    default single period covering all events (labelled "all"). Labels name
    explicit breakpoints only, and the breakpoints and labels must pass
    `check_breakpoints`. The kind must be one of INPUT_KINDS, rel_tolerance
    must lie in (0, 1] and every small-world threshold must be finite; any
    other value is a ValueError.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        for name, value in self.thresholds._asdict().items():
            if not math.isfinite(value):
                raise ValueError(f"small-world threshold {name} must be finite, got {value}")
        return self

    _make = classmethod(_make)
    __setattr__ = __delattr__ = _refuse
    __reduce__ = _rebuild


class ReportBundle(NamedTuple):
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
    offset-aware times are UTC years, which must lie in 1-9999. The times
    must be of one kind, as the decoders check, so the first names it."""
    if not isinstance(times[0], datetime):
        raise ValueError("--yearly requires date-typed event times")
    tz = timezone.utc if times[0].tzinfo is not None else None
    try:
        first, last = (t if tz is None else t.astimezone(tz) for t in (min(times), max(times)))
    except OverflowError:
        raise ValueError("--yearly requires dates within UTC years 1 to 9999") from None
    span = range(first.year, last.year + 1)
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


def _blocks(stream: BinaryIO, digest) -> Iterator[bytes]:
    """The bytes of the readable binary `stream`, read in blocks of at most
    _BLOCK bytes (a read may return fewer; only an empty one ends the
    input), each of which updates `digest` unless it is None."""
    while block := stream.read(_BLOCK):
        if digest is not None:
            digest.update(block)
        yield block


def _load(config: AnalysisConfig, stream: BinaryIO, digest) -> tuple[list[GraphSnapshot], list[str]]:
    """`load_snapshots`, updating `digest` with every byte of the input."""
    try:
        store, warnings = _Interactions(), []
        decode = _edge_events if config.kind == "events" else _publications
        store.add(decode(_blocks(stream, digest), config.input_path, warnings))
        times = store.times
        if not times:
            raise InsufficientDataError("input contains no interactions to slice")
        if config.breakpoints is not None:
            breakpoints = list(config.breakpoints)
            labels = list(config.labels or (f"T{i + 1}" for i in range(len(breakpoints))))
        elif config.yearly:
            breakpoints, labels = _yearly_breakpoints(times)
        else:
            breakpoints, labels = [max(times)], ["all"]
        snapshots = store.snapshots(breakpoints, labels)
    except Exception as exc:
        raise PipelineError("ingest", str(exc)) from exc
    return snapshots, warnings


def load_snapshots(config: AnalysisConfig, stream: BinaryIO) -> tuple[list[GraphSnapshot], list[str]]:
    """The one route from an input to snapshots: read the readable binary
    `stream` (an open file, or stdin's buffer) in blocks of at most 64 KiB,
    split them into lines, decode each line (UTF-8, with or without a
    byte-order mark), parse the lines per config.kind and slice them.
    Neither the input's bytes nor its text is held whole: the decoder's
    (time, actor labels, weight) groups stream into a compact store, and no
    record is built. Returns (snapshots, ingest warnings); any failure,
    reading included, is a PipelineError at stage "ingest", caused by an
    InsufficientDataError when the input holds no interaction at all,
    whatever the slicing mode."""
    return _load(config, stream, None)


def run_analysis(config: AnalysisConfig, stream: BinaryIO) -> ReportBundle:
    """Run the full pipeline on the readable binary `stream`, which
    config.input_path only names; deterministic for fixed input bytes and
    config. The digest is taken as the blocks are read. Any stage failure
    is wrapped in PipelineError naming the stage."""
    digest = hashlib.sha256()
    snapshots, warnings = _load(config, stream, digest)

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
        "input_digest": digest.hexdigest(),
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
            "thresholds": config.thresholds._asdict(),
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


def _plain(value):
    """`value` with each NamedTuple in it, at any depth, as the dict of its
    fields: JSON would write a NamedTuple as a list."""
    if hasattr(value, "_asdict"):
        return {name: _plain(v) for name, v in value._asdict().items()}
    if isinstance(value, (list, tuple)):
        return list(map(_plain, value))
    return value


def bundle_to_json(bundle: ReportBundle) -> str:
    """Full-precision JSON of the fields of the bundle's NamedTuples."""
    return json.dumps(_plain(bundle), indent=2, sort_keys=True) + "\n"


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
