"""File ingestion: edge-event CSV and publication JSON Lines.

Edge events use a `time,a,b,weight` CSV (weight optional, default 1).
Publications are one JSON object per line: {"pub_id", "date", "authors"}.
Both formats go through one record loop with one rule: a malformed row is
skipped with the warning `source:line: reason, row|record skipped`, and a
file where more than 10% of the data rows are malformed raises ParseError.
Self-loops, empty author lists and repeated pub_ids are domain noise: they
warn and skip the same way but do not count toward the 10% budget. The kept
records must not mix kinds of time.
"""

from __future__ import annotations

import csv
import io
import json
import math
from datetime import datetime
from operator import attrgetter
from typing import Iterable

from .errors import ParseError
from .graph_core import InteractionEvent, PublicationRecord, Timestamp, _check_times

EDGE_EVENT_FIELDS = ("time", "a", "b", "weight")
_MAX_BAD_FRACTION = 0.10
_TEXT_TYPES = frozenset({str, int, float})


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


class _Noise(ValueError):
    """A well-formed row with nothing to analyse: skipped, but not malformed."""


def _parse_records(lines, decode, source, noun, time_of):
    """Decode each (line number, raw) pair; returns (records, warnings).

    A ValueError from `decode` skips the row with a warning and marks it
    malformed unless it is `_Noise`. More than 10% malformed rows, or kept
    records whose times mix kinds, raise ParseError.
    """
    records, warnings = [], []
    malformed = 0
    for lineno, raw in lines:
        try:
            records.append(decode(raw))
        except ValueError as exc:
            warnings.append(f"{source}:{lineno}: {exc}, {noun} skipped")
            malformed += not isinstance(exc, _Noise)
    if lines and malformed / len(lines) > _MAX_BAD_FRACTION:
        raise ParseError(f"{source}: {malformed} of {len(lines)} {noun}s malformed (> 10%)")
    try:
        _check_times(map(time_of, records), "times")
    except ValueError as exc:
        raise ParseError(f"{source}: {exc}") from None
    return records, warnings


def _decode_event(row: list[str]) -> InteractionEvent:
    if len(row) < 3:
        raise ValueError("too few fields")
    time = parse_timestamp(row[0])
    try:
        weight = int(row[3]) if len(row) >= 4 and row[3].strip() else 1
    except ValueError:
        InteractionEvent(time, row[1], row[2])  # an empty label is the earlier fault
        raise ValueError(f"bad weight {row[3]!r}") from None
    event = InteractionEvent(time, row[1], row[2], weight)
    if event.a == event.b:
        raise _Noise(f"self-loop on {event.a!r}")
    return event


def parse_edge_events_text(
    text: str, source: str = "<string>"
) -> tuple[list[InteractionEvent], list[str]]:
    """Parse edge-event CSV content; returns (events, warnings). Lines may
    end in LF, CRLF or CR. Warnings cite physical line numbers, blank lines
    included."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader if any(cell.strip() for cell in row)]
    except csv.Error as exc:
        raise ParseError(f"{source}:{reader.line_num}: {exc}") from None
    if not rows:
        return [], []
    header = [cell.strip().lower() for cell in rows[0][1]]
    if header[:3] != ["time", "a", "b"]:
        raise ParseError(f"{source}: expected header time,a,b[,weight], got {rows[0][1]!r}")
    return _parse_records(rows[1:], _decode_event, source, "row", attrgetter("time"))


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
    # with an LF terminator the writer leaves a bare CR unquoted, and a
    # reader would end the record there
    quote_all = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(EDGE_EVENT_FIELDS)
    for ev in events:
        row = [format_timestamp(ev.time), ev.a, ev.b, ev.weight]
        (quote_all if "\r" in ev.a + ev.b else writer).writerow(row)
    return buffer.getvalue()


def _json_texts(values: list, field: str) -> tuple[str, ...]:
    """JSON strings and numbers as text; a null, boolean, array or object fails."""
    for value in values:
        if type(value) not in _TEXT_TYPES:
            raise ValueError(f"{field} {json.dumps(value)} is not a string or number")
    return tuple(map(str, values))


def parse_publications_text(
    text: str, source: str = "<string>"
) -> tuple[list[PublicationRecord], list[str]]:
    """Parse publication JSON Lines content; returns (records, warnings).

    Records end in LF or CRLF and keep their order; `PublicationRecord`
    trims and deduplicates the authors. Records with an empty author list
    or a duplicate pub_id are skipped with a warning.
    """
    seen_ids: set[str] = set()

    def decode(line: str) -> PublicationRecord:
        try:
            obj = json.loads(line)
            pub_id = _json_texts([obj["pub_id"]], "pub_id")[0].strip()
            date = parse_timestamp(str(obj["date"]))
            authors = obj["authors"]
        except (KeyError, TypeError) as exc:
            raise ValueError(exc) from None
        if not isinstance(authors, list):
            raise ValueError("authors must be a list")
        record = PublicationRecord(pub_id, date, _json_texts(authors, "author"))
        if not record.authors:
            raise _Noise("empty author list")
        if pub_id in seen_ids:
            raise _Noise(f"duplicate pub_id {pub_id!r}")
        seen_ids.add(pub_id)
        return record

    # records end at LF only: str.splitlines would also break at characters
    # such as U+2028 and U+0085, which JSON strings may hold raw
    lines = [(n, line) for n, line in enumerate(text.split("\n"), start=1) if line.strip()]
    return _parse_records(lines, decode, source, "record", attrgetter("date"))


def parse_publications(path: str) -> tuple[list[PublicationRecord], list[str]]:
    with open(path, encoding="utf-8-sig") as handle:
        text = handle.read()
    return parse_publications_text(text, source=path)
