"""Parsing of edge-event CSV and publication JSON Lines input.

Each format has one decoder, a stream that reads the input's UTF-8 bytes as
an iterable of blocks, splits them into lines, decodes each line and hands
on each record as its line is read, as a (time, actor labels, weight)
group: `pipeline.load_snapshots` feeds it the blocks it reads from the
input and folds the groups as it reads, and `parse_edge_events_text` and
`parse_publications_text` feed it the bytes of one text and build a record
of each group.

Edge events use a `time,a,b,weight` CSV (weight optional, default 1).
Publications are one JSON object per line: {"pub_id", "date", "authors"}.
Both formats go through one record loop with one rule: a malformed row is
skipped with the warning `source:line: reason, row|record skipped`, and a
file where more than 10% of the data rows are malformed raises ParseError
when the stream ends. Self-loops, empty author lists and repeated pub_ids
are domain noise: they warn and skip the same way but do not count toward
the 10% budget. The kept records must not mix kinds of time.

The decoders apply the records' rules, `graph_core._event` to a row and
`graph_core._author_names` to an author list, so a group's labels are
trimmed and not blank; the store interns each label once.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
import re
from datetime import date, datetime
from functools import lru_cache, partial
from itertools import chain, repeat
from typing import Iterable, Iterator

from .errors import ParseError
from .graph_core import InteractionEvent, PublicationRecord, Timestamp
from .graph_core import _author_names, _check_times, _event, _time_category

EDGE_EVENT_FIELDS = ("time", "a", "b", "weight")
_MAX_BAD_FRACTION = 0.10
# Distinct time strings a parse remembers. A corpus in time order repeats
# dates within a year (at most 366 of them), so 1024 keeps every hit an
# unbounded cache has on the benchmark's 40,000 publications (32,601 parses
# saved), while on a 100,000-row log of distinct times it holds about 0.2 MB
# where an unbounded cache grew to 12.8 MB and saved no parse.
_CACHED_TIMES = 1024
# Bytes load reads at a time, and characters the text parsers encode at a
# time, so that no copy or list of lines spans a long input.
_BLOCK = 65536


def parse_timestamp(text: str) -> Timestamp:
    """Parse an ASCII integer or finite float (no `_`, no `+`), or an ISO-8601
    timestamp whose date and time are separated by `T`, `t` or a space."""
    raw = text.strip()
    # int() and float() alone would also take "1_000", "+5" and non-ASCII
    # digits; neither takes a date's "YYYY-", so a date tries neither
    numeric = raw.isascii() and "_" not in raw and not raw.startswith("+")
    if numeric and not (raw[4:5] == "-" and raw[:4].isdigit()):
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


def _parse_records(lines, decode, source, noun, warnings):
    """Decode each (line number, raw) pair and yield each group, whose first
    field is its time, as it is read, appending each warning to `warnings`.

    A ValueError from `decode` skips the row with a warning and marks it
    malformed unless it is `_Noise`; so does the RecursionError that json
    raises on a record nested too deeply. When the lines end, more than 10%
    malformed rows, or kept records whose times mix kinds, raise ParseError.
    """
    rows = malformed = 0
    kinds = {}  # one time of each kind kept
    for rows, (lineno, raw) in enumerate(lines, start=1):
        try:
            group = decode(raw)
        except (ValueError, RecursionError) as exc:
            warnings.append(f"{source}:{lineno}: {exc}, {noun} skipped")
            malformed += not isinstance(exc, _Noise)
            continue
        kinds.setdefault(_time_category(group[0]), group[0])
        yield group
    if malformed and malformed / rows > _MAX_BAD_FRACTION:
        raise ParseError(f"{source}: {malformed} of {rows} {noun}s malformed (> 10%)")
    try:
        _check_times(kinds.values(), "times")
    except ValueError as exc:
        raise ParseError(f"{source}: {exc}") from None


def _decode_event(row: list[str], parse_time) -> tuple[Timestamp, tuple[str, str], int]:
    if len(row) < 3:
        raise ValueError("too few fields")
    time = parse_time(row[0])
    weight = row[3].strip() if len(row) >= 4 else ""
    # int() would also take "1_000", "+2" and non-ASCII digits
    if weight and not (weight.isascii() and weight.removeprefix("-").isdigit()):
        _event(row[1], row[2], 1)  # an empty label is the earlier fault
        raise ValueError(f"bad weight {row[3]!r}")
    a, b, weight = _event(row[1], row[2], int(weight) if weight else 1)
    if a == b:
        raise _Noise(f"self-loop on {a!r}")
    return time, (a, b), weight


def _utf8(text: str) -> Iterator[bytes]:
    """The UTF-8 bytes of `text`, _BLOCK characters at a time, after a
    byte-order mark that `_lines` drops, so that a U+FEFF that starts the
    text is kept; a lone surrogate encodes as "surrogatepass" decodes it."""
    yield codecs.BOM_UTF8
    for start in range(0, len(text), _BLOCK):
        yield text[start : start + _BLOCK].encode("utf-8", "surrogatepass")


def _lines(blocks: Iterable[bytes], crlf: bool, errors: str = "strict") -> Iterator[str]:
    """The lines of the bytes of `blocks`, with their ends, each decoded from
    UTF-8 with `errors` once it is whole: split at LF, CRLF or a bare CR if
    `crlf`, as `bytes.splitlines(keepends=True)` splits, else at LF only. A
    line that blocks split is joined, a CR that ends a block waits for the
    next, and a byte-order mark that starts the input is dropped. A byte
    that is not UTF-8 raises ParseError after the lines before its own,
    worded as `data.decode("utf-8-sig")` words it for the whole input."""
    split = bytes.splitlines if crlf else lambda data, ends: io.BytesIO(data).readlines()
    rest: list[bytes] = []  # a line that no block has ended yet
    at = -1  # the input's bytes before `rest`, past its byte-order mark; -1 before any
    for block in chain(blocks, (None,)):  # None ends the last line
        if block is not None and b"\n" not in block and (not crlf or block.find(b"\r", 0, -1) < 0):
            rest.append(block)
            continue
        data = b"".join(rest) + (block or b"")
        if at < 0:
            data, at = data.removeprefix(codecs.BOM_UTF8), 0
        lines = split(data, True)
        # the last line waits unless an LF or the input's end ends it
        rest = [lines.pop()] if block is not None and not lines[-1].endswith(b"\n") else []
        try:
            yield from map(bytes.decode, lines, repeat("utf-8"), repeat(errors))
        except UnicodeDecodeError as exc:
            # every line end is ASCII, so a line decodes as it does in the
            # whole input; the lines before the one that failed decoded, so
            # none of them equals it
            at += sum(map(len, lines[: lines.index(exc.object)])) + exc.start
            if exc.end - exc.start == 1:
                where = f"byte 0x{exc.object[exc.start]:02x} in position {at}"
            else:
                where = f"bytes in position {at}-{at + exc.end - exc.start - 1}"
            raise ParseError(f"'{exc.encoding}' codec can't decode {where}: {exc.reason}") from None
        at += len(data) - sum(map(len, rest))


def _edge_events(blocks: Iterable[bytes], source: str, warnings: list[str], errors: str = "strict"):
    """The stream behind `parse_edge_events_text`: an iterator of the
    events of the UTF-8 bytes of `blocks`, decoded with `errors`, as (time,
    (a, b), weight), each decoded as its row is read, that appends each
    warning to `warnings`. The header is read and checked on the call."""
    reader = csv.reader(_lines(blocks, True, errors))

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
        return iter(())
    header = [cell.strip().lower() for cell in first[1]]
    if header[:3] != ["time", "a", "b"]:
        raise ParseError(f"{source}: expected header time,a,b[,weight], got {first[1]!r}")
    decode = partial(_decode_event, parse_time=lru_cache(_CACHED_TIMES)(parse_timestamp))
    return _parse_records(lines, decode, source, "row", warnings)


def parse_edge_events_text(
    text: str, source: str = "<string>"
) -> tuple[list[InteractionEvent], list[str]]:
    """Parse edge-event CSV content; returns (events, warnings). Lines may
    end in LF, CRLF or CR. Warnings cite physical line numbers, blank lines
    included."""
    warnings: list[str] = []
    stream = _edge_events(_utf8(text), source, warnings, "surrogatepass")
    events = [InteractionEvent(t, a, b, w) for t, (a, b), w in stream]
    return events, warnings


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


def _publications(blocks: Iterable[bytes], source: str, warnings: list[str], errors: str = "strict"):
    """The stream behind `parse_publications_text`: an iterator of the
    records of the UTF-8 bytes of `blocks`, decoded with `errors`, as (date,
    author names, 1, pub_id), each decoded as it is read, that appends each
    warning to `warnings`."""
    seen_ids: dict[str, None] = {}  # as keys: a dict's table is half a set's
    parse_time = lru_cache(_CACHED_TIMES)(parse_timestamp)

    def decode(line: str) -> tuple[Timestamp, dict[str, None], int, str]:
        # the C scanner reads the line between JSON whitespace; a line it does
        # not take whole goes to json.loads, which raises with its own text,
        # given without the LF that would count as a second line of it
        value = line.strip(" \t\n\r")
        try:
            obj, end = _scan_json(value, 0)
        except (StopIteration, ValueError):
            end = -1
        if end != len(value):
            obj = json.loads(line.removesuffix("\n"))
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
            names = _author_names(authors)
        except ValueError:  # a name that is not a string: a number, or a fault
            names = _author_names([_json_text(v, "author") for v in authors])
        if not names:
            raise _Noise("empty author list")
        if pub_id in seen_ids:
            raise _Noise(f"duplicate pub_id {pub_id!r}")
        seen_ids[pub_id] = None
        return date, names, 1, pub_id

    # records end at LF only: a bare CR between two tokens is JSON whitespace
    lines = ((n, line) for n, line in enumerate(_lines(blocks, False, errors), 1) if line.strip())
    return _parse_records(lines, decode, source, "record", warnings)


def parse_publications_text(
    text: str, source: str = "<string>"
) -> tuple[list[PublicationRecord], list[str]]:
    """Parse publication JSON Lines content; returns (records, warnings).

    Records end in LF or CRLF and keep their order; each line is decoded
    once, by the stream that `load_snapshots` folds, and a record is built
    from each of its groups. Records with an empty author list or a
    duplicate pub_id are skipped with a warning.
    """
    warnings: list[str] = []
    stream = _publications(_utf8(text), source, warnings, "surrogatepass")
    return [PublicationRecord(pub_id, date, names) for date, names, _, pub_id in stream], warnings
