"""Parsing of decoded edge-event CSV and publication JSON Lines text;
`pipeline.load_snapshots` decodes an input file's bytes and calls these.

Edge events use a `time,a,b,weight` CSV (weight optional, default 1).
Publications are one JSON object per line: {"pub_id", "date", "authors"}.
Both formats go through one record loop with one rule: a malformed row is
skipped with the warning `source:line: reason, row|record skipped`, and a
file where more than 10% of the data rows are malformed raises ParseError.
Self-loops, empty author lists and repeated pub_ids are domain noise: they
warn and skip the same way but do not count toward the 10% budget. The kept
records must not mix kinds of time.

The decoders hand raw fields to `InteractionEvent` and `PublicationRecord`,
whose constructors apply the one label rule: trim, reject a blank, intern.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from datetime import date, datetime
from functools import cache, partial
from operator import attrgetter
from typing import Iterable

from .errors import ParseError
from .graph_core import InteractionEvent, PublicationRecord, Timestamp
from .graph_core import _check_times

EDGE_EVENT_FIELDS = ("time", "a", "b", "weight")
_MAX_BAD_FRACTION = 0.10


def parse_timestamp(text: str) -> Timestamp:
    """Parse an ASCII integer or finite float (no `_`, no `+`), or an ISO-8601
    timestamp whose date and time are separated by `T`, `t` or a space."""
    raw = text.strip()
    # int() and float() alone would also take "1_000", "+5" and non-ASCII digits
    if raw.isascii() and "_" not in raw and not raw.startswith("+"):
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
        value = datetime.fromisoformat(raw)
        # fromisoformat takes any character between the date and the time
        date.fromisoformat(re.split("[Tt ]", raw, maxsplit=1)[0])
    except ValueError:
        raise ValueError(f"unparseable time {text!r}") from None
    return value


class _Noise(ValueError):
    """A well-formed row with nothing to analyse: skipped, but not malformed."""


def _parse_records(lines, decode, source, noun, time_of):
    """Decode each (line number, raw) pair; returns (records, warnings).

    A ValueError from `decode` skips the row with a warning and marks it
    malformed unless it is `_Noise`. More than 10% malformed rows, or kept
    records whose times mix kinds, raise ParseError.
    """
    records, warnings = [], []
    rows = malformed = 0
    for rows, (lineno, raw) in enumerate(lines, start=1):
        try:
            records.append(decode(raw))
        except ValueError as exc:
            warnings.append(f"{source}:{lineno}: {exc}, {noun} skipped")
            malformed += not isinstance(exc, _Noise)
    if malformed and malformed / rows > _MAX_BAD_FRACTION:
        raise ParseError(f"{source}: {malformed} of {rows} {noun}s malformed (> 10%)")
    try:
        _check_times(map(time_of, records), "times")
    except ValueError as exc:
        raise ParseError(f"{source}: {exc}") from None
    return records, warnings


def _decode_event(row: list[str], parse_time) -> InteractionEvent:
    if len(row) < 3:
        raise ValueError("too few fields")
    time = parse_time(row[0])
    weight = row[3].strip() if len(row) >= 4 else ""
    # int() would also take "1_000", "+2" and non-ASCII digits
    if weight and not (weight.isascii() and weight.removeprefix("-").isdigit()):
        InteractionEvent(time, row[1], row[2])  # an empty label is the earlier fault
        raise ValueError(f"bad weight {row[3]!r}")
    event = InteractionEvent(time, row[1], row[2], int(weight) if weight else 1)
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

    def rows():
        """Each row that is not blank, with its line number, as it is read."""
        try:
            for row in reader:
                if any(cell.strip() for cell in row):
                    yield reader.line_num, row
        except csv.Error as exc:
            raise ParseError(f"{source}:{reader.line_num}: {exc}") from None

    lines = rows()
    if (first := next(lines, None)) is None:
        return [], []
    header = [cell.strip().lower() for cell in first[1]]
    if header[:3] != ["time", "a", "b"]:
        raise ParseError(f"{source}: expected header time,a,b[,weight], got {first[1]!r}")
    # each time is parsed once per distinct string
    decode = partial(_decode_event, parse_time=cache(parse_timestamp))
    return _parse_records(lines, decode, source, "row", attrgetter("time"))


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


def _json_text(value, field: str) -> str:
    """A JSON string, or a finite number as its text; a null, boolean, array,
    object, NaN or infinity (a token or an overflowing number) fails."""
    kind = type(value)
    if kind is str:
        return value
    if kind is not int and kind is not float:
        raise ValueError(f"{field} {json.dumps(value)} is not a string or number")
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{field} {json.dumps(value)} is not finite")
    return str(value)


_scan_json = json.JSONDecoder().scan_once


def parse_publications_text(
    text: str, source: str = "<string>"
) -> tuple[list[PublicationRecord], list[str]]:
    """Parse publication JSON Lines content; returns (records, warnings).

    Records end in LF or CRLF and keep their order; each is decoded once,
    and its authors are read once, by `PublicationRecord`.
    Records with an empty author list or a duplicate pub_id are skipped
    with a warning.
    """
    seen_ids: set[str] = set()
    parse_time = cache(parse_timestamp)  # once per distinct date

    def decode(line: str) -> PublicationRecord:
        # the C scanner reads the line between JSON whitespace; a line it does
        # not take whole goes to json.loads, which raises with its own text
        value = line.strip(" \t\n\r")
        try:
            obj, end = _scan_json(value, 0)
        except (StopIteration, ValueError):
            end = -1
        if end != len(value):
            obj = json.loads(line)
        try:
            pub_id = _json_text(obj["pub_id"], "pub_id").strip()
            if not pub_id:
                raise ValueError("blank pub_id")
            date = parse_time(str(obj["date"]))
            authors = obj["authors"]
        except (KeyError, TypeError) as exc:
            raise ValueError(exc) from None
        if not isinstance(authors, list):
            raise ValueError("authors must be a list")
        try:
            record = PublicationRecord(pub_id, date, authors)
        except ValueError:  # a name that is not a string: a number, or a fault
            record = PublicationRecord(pub_id, date, [_json_text(v, "author") for v in authors])
        if not record.authors:
            raise _Noise("empty author list")
        if pub_id in seen_ids:
            raise _Noise(f"duplicate pub_id {pub_id!r}")
        seen_ids.add(pub_id)
        return record

    # records end at LF only: str.splitlines would also break at characters
    # such as U+2028 and U+0085, which JSON strings may hold raw
    lines = ((n, line) for n, line in enumerate(text.split("\n"), 1) if line.strip())
    return _parse_records(lines, decode, source, "record", attrgetter("date"))
