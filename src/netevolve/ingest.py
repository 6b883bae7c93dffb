"""File ingestion: edge-event CSV and publication JSON Lines.

Edge events use a `time,a,b,weight` CSV (weight optional, default 1).
Publications are one JSON object per line: {"pub_id", "date", "authors"}.
Malformed rows are skipped with a warning; a file where more than 10% of the
data rows are malformed raises ParseError. Self-loop rows and empty author
lists are treated as domain noise: they warn and skip but do not count
toward the 10% budget.
"""

from __future__ import annotations

import csv
import io
import json
import math
from datetime import datetime
from typing import Iterable

from .errors import ParseError
from .graph_core import InteractionEvent, PublicationRecord, Timestamp, _time_category

EDGE_EVENT_FIELDS = ("time", "a", "b", "weight")
_MAX_BAD_FRACTION = 0.10


def parse_timestamp(text: str) -> Timestamp:
    """Parse an integer, finite float, or ISO-8601 timestamp."""
    raw = text.strip()
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        value = float(raw)
    except ValueError:
        pass
    else:
        if not math.isfinite(value):
            raise ValueError(f"non-finite time {text!r}")
        return value
    try:
        return datetime.fromisoformat(raw)
    except ValueError:
        raise ValueError(f"unparseable time {text!r}") from None


def parse_edge_events_text(
    text: str, source: str = "<string>"
) -> tuple[list[InteractionEvent], list[str]]:
    """Parse edge-event CSV content; returns (events, warnings). Warnings
    cite physical line numbers, blank lines included."""
    reader = csv.reader(io.StringIO(text))
    rows = [(reader.line_num, row) for row in reader if any(cell.strip() for cell in row)]
    if not rows:
        return [], []
    header = [cell.strip().lower() for cell in rows[0][1]]
    if header[:3] != ["time", "a", "b"]:
        raise ParseError(f"{source}: expected header time,a,b[,weight], got {rows[0][1]!r}")
    events: list[InteractionEvent] = []
    warnings: list[str] = []
    malformed = 0
    data_rows = rows[1:]
    for lineno, row in data_rows:
        if len(row) < 3:
            warnings.append(f"{source}:{lineno}: too few fields, row skipped")
            malformed += 1
            continue
        try:
            time = parse_timestamp(row[0])
        except ValueError as exc:
            warnings.append(f"{source}:{lineno}: {exc}, row skipped")
            malformed += 1
            continue
        a, b = row[1].strip(), row[2].strip()
        if not a or not b:
            warnings.append(f"{source}:{lineno}: empty actor label, row skipped")
            malformed += 1
            continue
        weight = 1
        if len(row) >= 4 and row[3].strip():
            try:
                weight = int(row[3])
            except ValueError:
                warnings.append(f"{source}:{lineno}: bad weight {row[3]!r}, row skipped")
                malformed += 1
                continue
            if weight < 1:
                warnings.append(f"{source}:{lineno}: weight {weight} < 1, row skipped")
                malformed += 1
                continue
        if a == b:
            warnings.append(f"{source}:{lineno}: self-loop on {a!r}, row skipped")
            continue
        events.append(InteractionEvent(time, a, b, weight))
    if data_rows and malformed / len(data_rows) > _MAX_BAD_FRACTION:
        raise ParseError(
            f"{source}: {malformed} of {len(data_rows)} rows malformed (> 10%)"
        )
    _check_time_kinds((ev.time for ev in events), source)
    return events, warnings


def _check_time_kinds(times: Iterable[Timestamp], source: str) -> None:
    """Numbers, naive dates and offset-aware dates cannot be ordered against
    each other, so a file must stick to one kind."""
    kinds = sorted({_time_category(t) for t in times})
    if len(kinds) > 1:
        raise ParseError(f"{source}: file mixes {' and '.join(kinds)} times")


def parse_edge_events(path: str) -> tuple[list[InteractionEvent], list[str]]:
    """Read and parse an edge-event CSV file (UTF-8, with or without a BOM)."""
    with open(path, encoding="utf-8-sig") as handle:
        text = handle.read()
    return parse_edge_events_text(text, source=path)


def format_timestamp(t: Timestamp) -> str:
    return t.isoformat() if isinstance(t, datetime) else repr(t)


def write_edge_events_text(events: Iterable[InteractionEvent]) -> str:
    """Serialize events to edge-event CSV (LF line endings)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(EDGE_EVENT_FIELDS)
    for ev in events:
        writer.writerow([format_timestamp(ev.time), ev.a, ev.b, ev.weight])
    return buffer.getvalue()


def write_edge_events(events: Iterable[InteractionEvent], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(write_edge_events_text(events))


def parse_publications_text(
    text: str, source: str = "<string>"
) -> tuple[list[PublicationRecord], list[str]]:
    """Parse publication JSON Lines content; returns (records, warnings).

    Records keep their order; `PublicationRecord` trims and deduplicates the
    authors. Records with an empty author list or a duplicate pub_id are
    skipped with a warning.
    """
    records: list[PublicationRecord] = []
    warnings: list[str] = []
    seen_ids: set[str] = set()
    malformed = 0
    data_lines = [
        (lineno, line)
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    for lineno, line in data_lines:
        try:
            obj = json.loads(line)
            pub_id = str(obj["pub_id"]).strip()
            date = parse_timestamp(str(obj["date"]))
            raw_authors = obj["authors"]
            if not isinstance(raw_authors, list):
                raise ValueError("authors must be a list")
        except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
            warnings.append(f"{source}:{lineno}: {exc}, record skipped")
            malformed += 1
            continue
        record = PublicationRecord(pub_id, date, tuple(map(str, raw_authors)))
        if not record.authors:
            warnings.append(f"{source}:{lineno}: empty author list, record skipped")
            continue
        if pub_id in seen_ids:
            warnings.append(f"{source}:{lineno}: duplicate pub_id {pub_id!r}, record skipped")
            continue
        seen_ids.add(pub_id)
        records.append(record)
    if data_lines and malformed / len(data_lines) > _MAX_BAD_FRACTION:
        raise ParseError(
            f"{source}: {malformed} of {len(data_lines)} records malformed (> 10%)"
        )
    _check_time_kinds((r.date for r in records), source)
    return records, warnings


def parse_publications(path: str) -> tuple[list[PublicationRecord], list[str]]:
    with open(path, encoding="utf-8-sig") as handle:
        text = handle.read()
    return parse_publications_text(text, source=path)
