import codecs
import io
import itertools
import json
import random
import re
import tracemalloc
from datetime import datetime, timedelta, timezone
from importlib import resources

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import examples
from netevolve import (
    AnalysisConfig,
    InsufficientDataError,
    ParseError,
    PipelineError,
    PublicationRecord,
    build_cumulative_snapshots,
    load_snapshots,
    metrics_row,
    parse_edge_events_text,
    parse_publications_text,
    parse_timestamp,
    write_edge_events_text,
)
from netevolve.graph_core import InteractionEvent
from netevolve.ingest import _lines
from netevolve.pipeline import _yearly_breakpoints
from oracles import parse_publications_reference


class TestParseTimestamp:
    def test_integer(self):
        assert parse_timestamp("7") == 7

    def test_float(self):
        assert parse_timestamp("2.5") == 2.5

    def test_iso_datetime(self):
        assert parse_timestamp("2009-02-07T13:05") == datetime(2009, 2, 7, 13, 5)

    def test_iso_date(self):
        assert parse_timestamp("2009-02-07") == datetime(2009, 2, 7)

    def test_garbage(self):
        with pytest.raises(ValueError):
            parse_timestamp("yesterday-ish")

    @pytest.mark.parametrize(
        "text, value",
        [("-3", -3), ("007", 7), (".5", 0.5), ("1.", 1.0), ("1e3", 1000.0), ("-2.5E-1", -0.25)],
    )
    def test_ascii_numerals(self, text, value):
        parsed = parse_timestamp(text)
        assert parsed == value and type(parsed) is type(value)

    @pytest.mark.parametrize("text", ["1_000", "+5", "\u0663", "1_0.5", "0x10", "1e", "-", "."])
    def test_lax_numerals_are_unparseable(self, text):
        with pytest.raises(ValueError, match=re.escape(f"unparseable time {text!r}")):
            parse_timestamp(text)

    def test_each_distinct_time_is_parsed_once_per_file(self, monkeypatch):
        calls = []

        def counted(text):
            calls.append(text)
            return parse_timestamp(text)

        monkeypatch.setattr("netevolve.ingest.parse_timestamp", counted)
        rows = "".join(f"{i % 3},A,B{i}\n" for i in range(30))
        events, _ = parse_edge_events_text("time,a,b\n" + rows)
        assert [e.time for e in events] == [i % 3 for i in range(30)]
        assert sorted(calls) == ["0", "1", "2"]
        lines = [json.dumps({"pub_id": f"P{i}", "date": f"200{i % 2}", "authors": ["A"]}) for i in range(6)]
        records, _ = parse_publications_text("\n".join(lines))
        assert [r.date for r in records] == [2000, 2001] * 3
        assert sorted(calls[3:]) == ["2000", "2001"]

    @pytest.mark.parametrize(
        "text, value",
        [
            ("2005-01-01T10:00", datetime(2005, 1, 1, 10)),
            ("2005-01-01t10:00", datetime(2005, 1, 1, 10)),
            ("2005-01-01 10:00", datetime(2005, 1, 1, 10)),
            ("20050101T10", datetime(2005, 1, 1, 10)),
            ("2005-W10-1T10:00", datetime(2005, 3, 7, 10)),
            ("2005W10T10", datetime(2005, 3, 7, 10)),
            ("2005-W10", datetime(2005, 3, 7)),
        ],
    )
    def test_iso_date_and_time_separators(self, text, value):
        assert parse_timestamp(text) == value

    @given(
        st.text("0123456789", min_size=4, max_size=4),
        st.text(st.characters(codec="ascii"), max_size=20),
        st.sampled_from(["", " ", "\t"]),
    )
    @settings(max_examples=examples(300, 3000))
    def test_neither_int_nor_float_takes_a_year_and_a_dash(self, year, rest, pad):
        # the premise that lets parse_timestamp skip both for such a text
        text = f"{pad}{year}-{rest}"
        for number in (int, float):
            with pytest.raises(ValueError):
                number(text)

    @pytest.mark.parametrize(
        "text, value",
        [
            ("20000101", 20000101),
            ("1e-5", 1e-05),
            ("2000-13-01", "unparseable time '2000-13-01'"),
            ("2000-", "unparseable time '2000-'"),
            (" 2000-01-02 ", datetime(2000, 1, 2)),
            ("2000-01-02T03:04", datetime(2000, 1, 2, 3, 4)),
            ("2000-01-02 03:04", datetime(2000, 1, 2, 3, 4)),
            ("2000-01-02T03:04+02:00", datetime(2000, 1, 2, 1, 4, tzinfo=timezone.utc)),
            ("2000-01-02 03:04-05:30", datetime(2000, 1, 2, 8, 34, tzinfo=timezone.utc)),
        ],
    )
    def test_dates_skip_the_numerals_with_unchanged_results(self, text, value):
        if isinstance(value, str):
            with pytest.raises(ValueError, match=f"^{re.escape(value)}$"):
                parse_timestamp(text)
        else:
            parsed = parse_timestamp(text)
            assert parsed == value and type(parsed) is type(value)
            if isinstance(value, datetime):
                assert (parsed.tzinfo is None) == (value.tzinfo is None)

    def test_zulu_suffix_is_utc(self):
        value = parse_timestamp("2005-03-01T10:00:00Z")
        assert value == datetime(2005, 3, 1, 10, tzinfo=timezone.utc)
        assert value.utcoffset() == timedelta(0)


class TestParseEdgeEvents:
    def test_single_row(self):
        events, warnings = parse_edge_events_text(
            "time,a,b,weight\n2009-02-07T13:05,IC1,PO2,1\n"
        )
        assert warnings == []
        (ev,) = events
        assert ev.time == datetime(2009, 2, 7, 13, 5)
        assert (ev.a, ev.b, ev.weight) == ("IC1", "PO2", 1)

    def test_weight_column_optional(self):
        events, _ = parse_edge_events_text("time,a,b\n1,A,B\n")
        assert events[0].weight == 1

    def test_self_loop_skipped_with_warning(self):
        events, warnings = parse_edge_events_text("time,a,b\n1,A,A\n1,A,B\n")
        assert len(events) == 1
        assert any("self-loop" in w for w in warnings)

    def test_malformed_time_skipped_with_warning(self):
        text = "time,a,b\n" + "\n".join(f"{i},A,B{i}" for i in range(20)) + "\nnonsense,A,B\n"
        events, warnings = parse_edge_events_text(text)
        assert len(events) == 20
        assert len(warnings) == 1

    def test_too_many_malformed_rows_is_hard_error(self):
        with pytest.raises(ParseError):
            parse_edge_events_text("time,a,b\nbad,A,B\nworse,C,D\n1,A,B\n")

    def test_blank_lines_skipped(self):
        events, warnings = parse_edge_events_text("time,a,b\n\n1,A,B\n\n\n2,B,C\n")
        assert len(events) == 2
        assert warnings == []

    def test_warnings_cite_physical_line_numbers(self):
        good = "".join(f"{t},A,B{t}\n" for t in range(2, 12))
        _, warnings = parse_edge_events_text("time,a,b\n\n1,A,B\n\nx,A,B\n" + good, "f.csv")
        assert warnings == ["f.csv:5: unparseable time 'x', row skipped"]

    def test_line_endings_parse_alike(self):
        lf = "time,a,b\n1,A,B\n\nbad,B,C\n2,B,C\n3,C,D\n4,D,E\n5,E,F\n6,F,G\n7,G,H\n8,H,I\n9,I,J\n"
        parsed = parse_edge_events_text(lf)
        assert parsed[1] == ["<string>:4: unparseable time 'bad', row skipped"]
        assert parse_edge_events_text(lf.replace("\n", "\r\n")) == parsed
        assert parse_edge_events_text(lf.replace("\n", "\r")) == parsed

    def test_stray_carriage_return_ends_the_record(self):
        rows = "".join(f"{t},A{t},B{t}\n" for t in range(20))
        events, warnings = parse_edge_events_text("time,a,b\n" + rows + "20,A\rX,B\n")
        assert len(events) == 20
        assert warnings == [
            "<string>:22: too few fields, row skipped",
            "<string>:23: too few fields, row skipped",
        ]

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError):
            parse_edge_events_text("from,to,when\n1,A,B\n")

    def test_leading_byte_order_mark_character_stays_in_the_header(self):
        # a text is not bytes: only an input's byte-order mark is dropped
        message = "<string>: expected header time,a,b[,weight], got " + repr(["\ufefftime", "a", "b"])
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_edge_events_text("\ufefftime,a,b\n1,A,B\n")

    def test_lone_surrogate_label_parses(self):
        assert parse_edge_events_text("time,a,b\n1,\ud800,B\n") == ([InteractionEvent(1, "\ud800", "B")], [])

    def test_reader_error_names_its_line(self):
        text = "time,a,b\n1,A,B\n\n2,A," + "B" * 200_000 + "\n3,B,C\n"
        with pytest.raises(ParseError, match=r"^f\.csv:4: field larger than field limit"):
            parse_edge_events_text(text, "f.csv")

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("pad", range(3))
    def test_long_texts_keep_their_lines(self, ending, pad):
        # over 64 kB, read a block at a time: a block must end at a line end,
        # never inside a CRLF, and a quoted label's line break stays in it
        breaks = ["", "\r\n", "\n", "\r"]
        rows = ["time,a,b", f"0,{'A' * (1 + pad)},B"]
        rows += [f'{t},A,"B{breaks[t % 4]}x"' for t in range(1, 6000)] + ["x,A,B"]
        events, warnings = parse_edge_events_text(ending.join(rows) + ending, "f.csv")
        assert [ev.b for ev in events[1:]] == [f"B{breaks[t % 4]}x" for t in range(1, 6000)]
        assert warnings == [f"f.csv:{2 + 5999 + 4500 + 1}: unparseable time 'x', row skipped"]

    def test_rows_stream_into_the_decoder(self):
        # the peak holds the events and the time cache; a list of every
        # split row besides took it past 4x
        rows = (f"{i // 10},a{i % 97},b{i % 89},{1 + i % 3}\n" for i in range(20_000))
        text = "time,a,b,weight\n" + "".join(rows)
        tracemalloc.start()
        try:
            events, warnings = parse_edge_events_text(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(events) == 20_000 and warnings == []
        assert peak < 3 * held

    def test_distinct_times_parse_in_little_beyond_the_events(self):
        # 100,000 rows, every time distinct. tracemalloc peak beyond what the
        # parse returns (10.01 MB held): 21.8 MB when the reader read a wide
        # copy of the whole text and the time cache kept every time string,
        # 6.45 MB with the copy alone, 9.51 MB with the unbounded cache alone,
        # 0.42 MB with neither
        rows = (f"{i},a{i % 97},b{i % 89},{1 + i % 3}\n" for i in range(100_000))
        text = "time,a,b,weight\n" + "".join(rows)
        tracemalloc.start()
        try:
            events, warnings = parse_edge_events_text(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(events) == 100_000 and warnings == []
        assert peak - held < 2_000_000

    def test_mixed_time_kinds_rejected(self):
        with pytest.raises(ParseError):
            parse_edge_events_text("time,a,b\n1,A,B\n2009-02-07,B,C\n")

    def test_shuffled_file_builds_identical_snapshots(self):
        rows = [f"{t},x{i % 5},y{(i * 3) % 7}" for i, t in enumerate(range(30))]
        ordered = "time,a,b\n" + "\n".join(rows) + "\n"
        shuffled_rows = rows[:]
        random.Random(3).shuffle(shuffled_rows)
        shuffled = "time,a,b\n" + "\n".join(shuffled_rows) + "\n"
        ev_a, _ = parse_edge_events_text(ordered)
        ev_b, _ = parse_edge_events_text(shuffled)
        snaps_a = build_cumulative_snapshots(ev_a, [10, 30], ["p1", "p2"])
        snaps_b = build_cumulative_snapshots(ev_b, [10, 30], ["p1", "p2"])
        assert snaps_a == snaps_b


class TestLineReaders:
    """The line reader takes the bytes as blocks and joins a line that blocks
    split, wherever they split it: a CR at a block's end waits for the next,
    and a byte-order mark split across blocks is still the input's."""

    TEXT = 'a\r\nb\rc\n\n"q\r\nr",s\r\r\nt\u20ac\r'

    def test_every_split_reads_the_lines_of_the_whole_text(self):
        text = self.TEXT
        for data in (text.encode(), codecs.BOM_UTF8 + text.encode()):
            for i, j in itertools.combinations_with_replacement(range(len(data) + 1), 2):
                blocks = (data[:i], data[i:j], data[j:])
                assert list(_lines(blocks, True)) == list(io.StringIO(text, newline=""))
                assert list(_lines(blocks, False)) == list(io.StringIO(text, newline="\n"))


class TestRoundTrip:
    def test_snapshot_events_round_trip_preserves_metrics(self):
        from netevolve.generators import barabasi_albert

        snapshot = barabasi_albert(60, 2, seed=8)
        events = [
            InteractionEvent(0, a, b, w) for (a, b), w in sorted(snapshot.edges.items())
        ]
        text = write_edge_events_text(events)
        parsed, warnings = parse_edge_events_text(text)
        assert warnings == []
        (rebuilt,) = build_cumulative_snapshots(parsed, [0], [snapshot.label])
        assert metrics_row(rebuilt) == metrics_row(snapshot)

    def test_writer_uses_lf_and_header(self):
        text = write_edge_events_text([InteractionEvent(1, "A", "B", 2)])
        assert text == "time,a,b,weight\n1,A,B,2\n"
        assert "\r" not in text

    @pytest.mark.long
    @settings(max_examples=examples(200, 3000), deadline=None)
    @given(st.data())
    def test_written_events_parse_back_unchanged(self, data):
        # whole seconds: ISO 8601 text has no fractional offsets, and
        # fromisoformat reads "+00:00:00.000001" as UTC
        offsets = st.integers(-86399, 86399).map(lambda sec: timedelta(seconds=sec))
        times = data.draw(
            st.sampled_from(
                [
                    st.integers(-(10**12), 10**12),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.datetimes(),
                    st.datetimes(timezones=st.builds(timezone, offsets)),
                ]
            )
        )
        labels = st.text(st.sampled_from('aZ é,"\n\r\u2028'), min_size=1, max_size=6)
        labels = labels.filter(str.strip)
        events = []
        for _ in range(data.draw(st.integers(0, 8))):
            a, b = data.draw(labels), data.draw(labels)
            assume(a.strip() != b.strip())
            events.append(InteractionEvent(data.draw(times), a, b, data.draw(st.integers(1, 9))))
        assert parse_edge_events_text(write_edge_events_text(events)) == (events, [])

    def test_label_with_carriage_return_is_quoted(self):
        text = write_edge_events_text([InteractionEvent(1, "A\rB", "C")])
        assert text == 'time,a,b,weight\n"1","A\rB","C","1"\n'


class TestParsePublications:
    def test_basic_record(self):
        records, warnings = parse_publications_text(
            '{"pub_id": "P1", "date": "2005-03-01", "authors": ["A", "B "]}\n'
        )
        assert warnings == []
        assert records == [
            PublicationRecord("P1", datetime(2005, 3, 1), ("A", "B"))
        ]

    def test_duplicate_authors_deduplicated_case_sensitively(self):
        records, _ = parse_publications_text(
            '{"pub_id": "P1", "date": "2005-03-01", "authors": ["A", "a", " A"]}\n'
        )
        assert records[0].authors == ("A", "a")

    def test_empty_author_list_skipped_with_warning(self):
        records, warnings = parse_publications_text(
            '{"pub_id": "P1", "date": "2005-03-01", "authors": []}\n'
            '{"pub_id": "P2", "date": "2005-03-02", "authors": ["A"]}\n'
        )
        assert [r.pub_id for r in records] == ["P2"]
        assert any("empty author list" in w for w in warnings)

    def test_duplicate_pub_id_skipped_with_warning(self):
        records, warnings = parse_publications_text(
            '{"pub_id": "P1", "date": "2005-03-01", "authors": ["A", "B"]}\n'
            '{"pub_id": "P1", "date": "2005-03-02", "authors": ["C", "D"]}\n'
        )
        assert len(records) == 1
        assert any("duplicate pub_id" in w for w in warnings)

    @pytest.mark.parametrize("separator", ["\u0085", "\u2028", "\u2029"])
    def test_records_split_at_line_feeds_only(self, separator):
        authors = [(f"Ana{separator}s", f"B{i}") for i in range(10)]
        lines = [
            json.dumps({"pub_id": f"P{i}", "date": "2005", "authors": a}, ensure_ascii=False)
            for i, a in enumerate(authors)
        ]
        records, warnings = parse_publications_text("\n".join(lines) + "\n")
        assert warnings == []
        assert [r.authors for r in records] == authors

    def test_crlf_records_keep_their_line_numbers(self):
        text = '{"pub_id": "P1", "date": "2005-03-01", "authors": ["A", "B"]}\r\n\r\nnot json\r\n'
        text += "".join(
            f'{{"pub_id": "Q{i}", "date": "2005-03-02", "authors": ["A"]}}\r\n' for i in range(9)
        )
        records, warnings = parse_publications_text(text)
        assert len(records) == 10
        assert len(warnings) == 1 and warnings[0].startswith("<string>:3: Expecting value")

    def test_malformed_json_budget(self):
        good = "\n".join(
            f'{{"pub_id": "P{i}", "date": "2005-01-0{1 + i % 9}", "authors": ["A"]}}'
            for i in range(20)
        )
        records, warnings = parse_publications_text(good + "\nnot json\n")
        assert len(records) == 20
        assert len(warnings) == 1
        with pytest.raises(ParseError):
            parse_publications_text("not json\nalso not\n" + good.splitlines()[0])


def _good_row(kind: str, i: int) -> str:
    if kind == "csv":
        return f"{i},A,B{i}"
    return json.dumps({"pub_id": f"G{i}", "date": "2005-01-01", "authors": ["A", f"B{i}"]})


def _parse(kind: str, rows: list[str], route: str = "parse"):
    """Parse `rows` as the data of a file named f.<kind>: by `parse_*_text`
    to (records, warnings), or, on the "load" route, by `load_snapshots` to
    (snapshots, warnings), raising the ParseError its PipelineError wraps."""
    text = ("time,a,b,weight\n" if kind == "csv" else "") + "\n".join(rows) + "\n"
    if route == "parse":
        parse = parse_edge_events_text if kind == "csv" else parse_publications_text
        return parse(text, f"f.{kind}")
    config = AnalysisConfig(f"f.{kind}", kind="events" if kind == "csv" else "publications")
    try:
        return load_snapshots(config, io.BytesIO(text.encode()))
    except PipelineError as exc:
        raise exc.__cause__ from None


def _pub(**fields) -> str:
    return json.dumps({"pub_id": "P", "date": "2005-01-01", "authors": ["A", "B"], **fields})


# every warning either format writes, with its exact reason and whether the
# row counts toward the 10% budget; a row with several faults is warned about
# for the first of them
WARNING_TABLE = [
    ("csv", "5,A1", "too few fields", True),
    ("csv", "x,A,B", "unparseable time 'x'", True),
    ("csv", "nan,A,B", "non-finite time 'nan'", True),
    ("csv", "x, ,B,0", "unparseable time 'x'", True),
    ("csv", "1, ,B", "empty actor label", True),
    ("csv", "1, ,B,zz", "empty actor label", True),
    ("csv", "1,A,B,zz", "bad weight 'zz'", True),
    ("csv", "1,A,B,2.5", "bad weight '2.5'", True),
    ("csv", "1,A,B,0", "weight 0 < 1", True),
    ("csv", "1,A,A,0", "weight 0 < 1", True),
    ("csv", "1,A,A,zz", "bad weight 'zz'", True),
    ("csv", "1,A,B,1_000", "bad weight '1_000'", True),
    ("csv", "2,A,C,\u0663", "bad weight '\u0663'", True),
    ("csv", "4,A,E,+2", "bad weight '+2'", True),
    ("csv", "1,A,B,-3", "weight -3 < 1", True),
    ("csv", "1,A, A ", "self-loop on 'A'", False),
    ("csv", "1_000,A,B", "unparseable time '1_000'", True),
    ("csv", "+5,A,B", "unparseable time '+5'", True),
    ("csv", "\u0663,A,B", "unparseable time '\u0663'", True),
    ("csv", "1_0.5,A,B", "unparseable time '1_0.5'", True),
    ("csv", "1e999,A,B", "non-finite time '1e999'", True),
    # fromisoformat itself takes any character between the date and the time
    ("csv", "2005-01-01x10:00,A,B", "unparseable time '2005-01-01x10:00'", True),
    ("csv", "2005-01-01\u00e910:00,A,B", "unparseable time '2005-01-01\u00e910:00'", True),
    ("csv", '"2005-01-01,10:00",A,B', "unparseable time '2005-01-01,10:00'", True),
    ("csv", "2005-01-01_10:00,A,B", "unparseable time '2005-01-01_10:00'", True),
    ("csv", "2005-01-01510:00,A,B", "unparseable time '2005-01-01510:00'", True),
    ("jsonl", "not json", "Expecting value: line 1 column 1 (char 0)", True),
    ("jsonl", '{"date": "2005-01-01", "authors": ["A"]}', "'pub_id'", True),
    ("jsonl", '{"pub_id": "P", "authors": ["A"]}', "'date'", True),
    ("jsonl", '{"pub_id": "P", "date": "2005-01-01"}', "'authors'", True),
    ("jsonl", "[1]", "list indices must be integers or slices, not str", True),
    ("jsonl", "7", "'int' object is not subscriptable", True),
    ("jsonl", _pub(date="yesterday"), "unparseable time 'yesterday'", True),
    ("jsonl", _pub(date="nan"), "non-finite time 'nan'", True),
    ("jsonl", _pub(date="nan", authors=[]), "non-finite time 'nan'", True),
    ("jsonl", _pub(date="+2005"), "unparseable time '+2005'", True),
    ("jsonl", _pub(date="2005-01-01x10:00"), "unparseable time '2005-01-01x10:00'", True),
    ("jsonl", _pub(date="2005-01-01-10:00"), "unparseable time '2005-01-01-10:00'", True),
    ("jsonl", _pub(authors="A,B"), "authors must be a list", True),
    ("jsonl", _pub(authors=[float("nan"), "A"]), "author NaN is not finite", True),
    ("jsonl", _pub(authors=["A", float("inf")]), "author Infinity is not finite", True),
    ("jsonl", _pub(authors=["A", float("-inf")]), "author -Infinity is not finite", True),
    ("jsonl", _pub(pub_id=float("nan")), "pub_id NaN is not finite", True),
    (
        "jsonl",
        '{"pub_id": 1.5e400, "date": "2005-01-01", "authors": ["A"]}',
        "pub_id Infinity is not finite",
        True,
    ),
    (
        "jsonl",
        '{"pub_id": "P", "date": "2005-01-01", "authors": ["A", -1e999]}',
        "author -Infinity is not finite",
        True,
    ),
    ("jsonl", _pub(pub_id=""), "blank pub_id", True),
    ("jsonl", _pub(pub_id=" "), "blank pub_id", True),
    ("jsonl", _pub(pub_id="", authors=[float("nan"), float("inf"), "A"]), "blank pub_id", True),
    ("jsonl", _pub(authors=[]), "empty author list", False),
    ("jsonl", _pub(authors=[" ", ""]), "empty author list", False),
    ("jsonl", _pub(pub_id=" G0 "), "duplicate pub_id 'G0'", False),
    ("jsonl", _pub(pub_id="G0", authors=[]), "empty author list", False),
]


class TestWarningContract:
    """One rule for both formats and both routes: a malformed row counts
    toward the 10% budget, a noise row does not, and each warns
    `source:line: reason, row|record skipped`."""

    @pytest.mark.parametrize("kind, raw, reason, malformed", WARNING_TABLE)
    def test_warning_text(self, kind, raw, reason, malformed):
        good = [_good_row(kind, i) for i in range(9)]
        line = 11 if kind == "csv" else 10
        noun = "row" if kind == "csv" else "record"
        bad = "x,A,B" if kind == "csv" else "not json"
        # the load route builds no record, so the decoder alone must apply every rule
        for route in ("parse", "load"):
            kept, warnings = _parse(kind, good + [raw], route)
            assert warnings == [f"f.{kind}:{line}: {reason}, {noun} skipped"]
            # the skipped row adds nothing: the good rows' nine records, or their snapshots
            assert kept == _parse(kind, good, route)[0]
            # one more malformed row breaks the budget only if this one counted
            if malformed:
                with pytest.raises(ParseError, match=re.escape(f"2 of 11 {noun}s malformed")):
                    _parse(kind, good + [raw, bad], route)
            else:
                assert len(_parse(kind, good + [raw, bad], route)[1]) == 2

    @pytest.mark.parametrize("kind", ["csv", "jsonl"])
    def test_budget_boundary(self, kind):
        noun = "row" if kind == "csv" else "record"
        bad = "x,A,B" if kind == "csv" else "not json"
        records, warnings = _parse(kind, [_good_row(kind, i) for i in range(18)] + [bad] * 2)
        assert (len(records), len(warnings)) == (18, 2)
        with pytest.raises(ParseError) as info:
            _parse(kind, [_good_row(kind, i) for i in range(17)] + [bad] * 3)
        assert str(info.value) == f"f.{kind}: 3 of 20 {noun}s malformed (> 10%)"

    @pytest.mark.parametrize("kind", ["csv", "jsonl"])
    def test_noise_never_counts(self, kind):
        noise = "1,A,A" if kind == "csv" else _pub(authors=[])
        records, warnings = _parse(kind, [_good_row(kind, 0)] + [noise] * 30)
        assert len(records) == 1
        assert len(warnings) == 30

    @pytest.mark.parametrize(
        "kind, rows",
        [
            ("csv", ["1,A,B", "2009-02-07,B,C"]),
            ("jsonl", [_pub(pub_id="P1", date="5"), _pub(pub_id="P2")]),
        ],
    )
    def test_mixed_time_kinds_name_the_file(self, kind, rows):
        with pytest.raises(ParseError) as info:
            _parse(kind, rows)
        assert str(info.value) == f"f.{kind}: times mix naive date and numeric times"

    @pytest.mark.parametrize(
        "fields, reason",
        [
            ({"authors": ["A", None]}, "author null is not a string or number"),
            ({"authors": ["A", {"x": 1}]}, 'author {"x": 1} is not a string or number'),
            ({"authors": ["A", ["B"]]}, 'author ["B"] is not a string or number'),
            ({"authors": ["A", True]}, "author true is not a string or number"),
            ({"pub_id": None}, "pub_id null is not a string or number"),
            ({"pub_id": False}, "pub_id false is not a string or number"),
            ({"pub_id": ["P"]}, 'pub_id ["P"] is not a string or number'),
        ],
    )
    def test_jsonl_names_must_be_strings_or_numbers(self, fields, reason):
        good = [_good_row("jsonl", i) for i in range(9)]
        for route in ("parse", "load"):
            kept, warnings = _parse("jsonl", good + [_pub(**fields)], route)
            assert warnings == [f"f.jsonl:10: {reason}, record skipped"]
            assert kept == _parse("jsonl", good, route)[0]
            with pytest.raises(ParseError, match="2 of 11 records malformed"):
                _parse("jsonl", good + [_pub(**fields), "not json"], route)

    def test_null_pub_id_does_not_shadow_a_real_one(self):
        rows = [_pub(pub_id=None), _pub(pub_id="None")] + [_good_row("jsonl", i) for i in range(9)]
        records, warnings = _parse("jsonl", rows)
        assert warnings == ["f.jsonl:1: pub_id null is not a string or number, record skipped"]
        assert [r.pub_id for r in records[:2]] == ["None", "G0"]

    def test_jsonl_numbers_stay_text(self):
        records, warnings = _parse("jsonl", [_pub(pub_id=12, authors=[1, 2.5, "Z"])])
        assert warnings == []
        assert records == [PublicationRecord("12", datetime(2005, 1, 1), ("1", "2.5", "Z"))]


class TestExpandPublications:
    def test_clique_expansion(self):
        (snapshot,) = build_cumulative_snapshots(
            [], [1], ["p"], publications=[PublicationRecord("P1", 1, ("A", "B", "C"))]
        )
        assert sorted(snapshot.edges) == [("A", "B"), ("A", "C"), ("B", "C")]
        assert snapshot.actors == {"A", "B", "C"}

    def test_repeat_collaboration_accumulates_weight(self):
        records = [
            PublicationRecord("P1", 1, ("A", "B")),
            PublicationRecord("P2", 2, ("A", "B")),
        ]
        (snapshot,) = build_cumulative_snapshots([], [5], ["p"], publications=records)
        assert snapshot.edges == {("A", "B"): 2}

    def test_single_author_corpus_registers_isolated_actors(self):
        records = [PublicationRecord(f"P{i}", i, (f"solo{i}",)) for i in range(5)]
        (snapshot,) = build_cumulative_snapshots([], [10], ["p"], publications=records)
        assert snapshot.n_actors == 5
        assert snapshot.n_links == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_pair_counter(self, seed):
        rng = random.Random(seed)
        pool = [f"auth{i}" for i in range(20)]
        records = []
        for i in range(rng.randint(1, 50)):
            team = rng.sample(pool, rng.randint(1, 8))
            records.append(PublicationRecord(f"P{i}", rng.randint(0, 9), tuple(team)))
        (snapshot,) = build_cumulative_snapshots([], [9], ["p"], publications=records)

        expected_weights: dict[tuple[str, str], int] = {}
        expected_actors = set()
        for record in records:
            expected_actors.update(record.authors)
            for a, b in itertools.combinations(sorted(record.authors), 2):
                key = (a, b) if a <= b else (b, a)
                expected_weights[key] = expected_weights.get(key, 0) + 1
        assert snapshot.actors == frozenset(expected_actors)
        assert snapshot.edges == expected_weights
        assert snapshot.n_links == len(expected_weights)


# JSON values as text, so that a line may hold what json.dumps never writes:
# NaN, Infinity, duplicate keys and stray whitespace
_NAMES = st.sampled_from(["Ann", " Ann", "Ann ", "Bob ", "Cy", "Dé", "", "  ", 7, 2.5])
_ODD_AUTHORS = st.sampled_from(["null", "true", "-0", "1e400", "NaN", "-Infinity", "{}"])
_ODD_FIELDS = [
    st.sampled_from(["12", "NaN", "Infinity", "null", "false", "[1]"]),
    st.sampled_from(['"nan"', '"yesterday"', "NaN", "null", '"2005-01-01"', '"2005"']),
    st.sampled_from(['"A,B"', "null", "{}"]),
]
_DATES = [
    ["2005-01-01", "2005-03-01T10:00", "2006-07-01"],
    ["2005", "5.5", "-3"],
    ["2005-01-01T10:00+01:00", "2006-01-01T00:00Z"],
]
_JSON_SPACE = st.text(st.sampled_from(" \t\r"), max_size=2)
_OTHER_SPACE = st.sampled_from(["\x0c", "\xa0", "\u2028", "\u0085"])


@st.composite
def _jsonl_record(draw, dates, odd):
    """One JSONL record as text, with JSON whitespace between its tokens.
    With `odd`, a field may be of the wrong type or NaN, and a key may be
    repeated or missing."""
    sep = draw(_JSON_SPACE)
    names = _NAMES.map(json.dumps) | _ODD_AUTHORS if odd else _NAMES.map(json.dumps)
    authors = draw(st.lists(names, min_size=1, max_size=5))
    fields = [
        ("pub_id", json.dumps(draw(st.sampled_from([f"P{i}" for i in range(30)] + [" P1 ", ""])))),
        ("date", json.dumps(draw(st.sampled_from(dates)))),
        ("authors", "[" + ("," + sep).join(authors) + "]"),
    ]
    if odd:
        field = draw(st.integers(0, 2))
        fields[field] = (fields[field][0], draw(_ODD_FIELDS[field]))
        if draw(st.booleans()):
            fields.insert(draw(st.integers(0, 3)), fields[draw(st.integers(0, 2))])
        elif draw(st.booleans()):
            del fields[draw(st.integers(0, 2))]
    pairs = (f"{json.dumps(k)}{sep}:{sep}{v}" for k, v in draw(st.permutations(fields)))
    return sep + "{" + sep + ("," + sep).join(pairs) + sep + "}" + sep


@st.composite
def _odd_lines(draw, record):
    """`record` as lines that json.loads may reject: stray non-JSON
    whitespace, a BOM, extra data, the record split over two lines, or a
    bare value in its place."""
    shape = draw(st.integers(0, 4))
    if shape == 0:
        space = draw(_OTHER_SPACE)
        return [space + record if draw(st.booleans()) else record + space]
    if shape == 1:
        return ["\ufeff" + record]
    if shape == 2:
        return [record + draw(st.sampled_from([" x", " 1", ",", "}", " {}"]))]
    if shape == 3:
        cut = draw(st.integers(1, len(record) - 1))
        return [record[:cut], record[cut:]]
    return [draw(st.sampled_from(["1,2", "7", '"s"', "[]", "null", "NaN", "Infinity"]))]


@st.composite
def _jsonl_texts(draw):
    """JSONL text of valid records of one time kind with up to three odd
    records or lines among them, blank lines, and LF or CRLF line ends."""
    dates = draw(st.sampled_from(_DATES))
    lines = [draw(_jsonl_record(dates, False)) for _ in range(draw(st.integers(5, 30)))]
    for _ in range(draw(st.integers(0, 3))):
        odd = draw(_jsonl_record(dates, True))
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = draw(_odd_lines(odd)) if draw(st.booleans()) else [odd]
    for _ in range(draw(st.integers(0, 2))):
        blank = draw(st.sampled_from(["", " \t", "\x0c", "\xa0"]))
        lines.insert(draw(st.integers(0, len(lines))), blank)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


def _decoded(parse, text):
    """What a decoder makes of `text`: its records and warnings, checked to
    keep one string object per author name, or the ParseError text."""
    try:
        records, warnings = parse(text, "f.jsonl")
    except ParseError as exc:
        return "ParseError", str(exc)
    first = {}
    for record in records:
        assert type(record) is PublicationRecord and type(record.authors) is tuple
        for name in record.authors:
            assert first.setdefault(name, name) is name
    return records, warnings


def _assert_decoded_alike(text):
    assert _decoded(parse_publications_text, text) == _decoded(parse_publications_reference, text)


@pytest.mark.long
class TestDecoderMatchesReference:
    """`parse_publications_text` decodes each line once with the C scanner;
    the per-line `json.loads` decoder in oracles.py is the reference."""

    @settings(max_examples=examples(200, 3000), deadline=None)
    @given(_jsonl_texts())
    def test_random_texts(self, text):
        _assert_decoded_alike(text)

    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_long_texts(self, ending):
        # over 64 kB, split a block at a time: line numbers run on across blocks
        lines = [_good_row("jsonl", i) if i % 50 else ["", "not json"][i % 100 // 50] for i in range(3000)]
        _assert_decoded_alike(ending.join(lines))

    def test_split_object_lines_fail_alone(self):
        # joined into one array these two lines would parse as two records
        good = [_good_row("jsonl", i) for i in range(18)]
        text = "\n".join(good + ['{"x":[1', '2]}, {"y":3}']) + "\n"
        records, warnings = parse_publications_text(text, "f.jsonl")
        assert len(records) == 18
        assert warnings == [
            "f.jsonl:19: Expecting ',' delimiter: line 1 column 8 (char 7), record skipped",
            "f.jsonl:20: Extra data: line 1 column 2 (char 1), record skipped",
        ]
        assert (records, warnings) == parse_publications_reference(text, "f.jsonl")

    @pytest.mark.parametrize(
        "line",
        [
            " \t" + _pub() + " \r",
            "\x0c" + _pub(),
            "\xa0" + _pub(),
            _pub() + "\u2028",
            "\ufeff" + _pub(),
            _pub() + " x",
            "1,2",
            '{"pub_id": "P", "pub_id": "Q", "date": "2005", "authors": ["A", "B"]}',
            '{"pub_id": "P", "date": "2005", "authors": [NaN]}',
        ],
    )
    def test_whitespace_and_extra_data(self, line):
        _assert_decoded_alike("\n".join([_good_row("jsonl", i) for i in range(9)] + [line]))


_TIMES = {
    "numeric": ["1", "2", "7", "2.5", "-3"],
    "naive": ["2005-03-01", "2006-07-15", "2006-12-31T23:00", "2007-01-01"],
    "aware": ["2005-03-01T00:00+00:00", "2006-07-15T12:00+02:00", "2007-01-01T00:30+01:00"],
}
_MODES = [
    {},
    {"yearly": True},
    {"breakpoints": [0, 5]},
    {"breakpoints": [datetime(2005, 12, 31), datetime(2007, 1, 1)]},
]


@st.composite
def _load_inputs(draw):
    """(config, text) for either format: rows of one time kind among blank
    and malformed rows, self-loops or empty author lists, repeated pub_ids,
    and at times a row of another time kind, in any line ending the format
    takes, sliced in any mode."""
    kind = draw(st.sampled_from(["events", "publications"]))
    main, other = draw(st.permutations(list(_TIMES)))[:2]
    # multi-byte characters, and a label that CSV must quote
    names = st.sampled_from(["A", "B", "C", " D ", "E", "Zoë", '"F, 李\r\nG"'])

    def row(times):
        time = draw(st.sampled_from(times))
        if kind == "events":  # a == b is a self-loop
            return f"{time},{draw(names)},{draw(names)}{draw(st.sampled_from(['', ',1', ',3']))}"
        authors = draw(st.lists(names, max_size=4))
        return json.dumps({"pub_id": f"P{draw(st.integers(0, 12))}", "date": time, "authors": authors})

    if kind == "events":
        bad = st.sampled_from(["x,A,B", "5,A", "1,A,B,zz", "1, ,B", "nan,A,B"])
    else:
        bad = st.sampled_from(["not json", '{"pub_id": "Q"}', _pub(pub_id="Q", date="x"), "[]"])
    lines = [row(_TIMES[main]) for _ in range(draw(st.integers(0, 20)))]
    extra = [draw(bad) for _ in range(draw(st.integers(0, 3)))]
    extra += [draw(st.sampled_from(["", " ", " , ,"])) for _ in range(draw(st.integers(0, 2)))]
    if draw(st.integers(0, 3)) == 0:
        extra.append(row(_TIMES[other]))
    for line in extra:
        lines.insert(draw(st.integers(0, len(lines))), line)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"] if kind == "events" else ["\n", "\r\n"]))
    header = ["time,a,b,weight"] if kind == "events" else []
    config = AnalysisConfig("f.in", kind=kind, **draw(st.sampled_from(_MODES)))
    return config, ending.join(header + lines) + draw(st.sampled_from(["", ending]))


class _Reads:
    """A binary stream of `data` whose read(n) returns at most the next of
    `sizes` bytes (cycling), that records each n asked in `asked`, and that
    refuses a read of the whole stream."""

    def __init__(self, data: bytes, sizes=(1 << 20,)):
        self.data, self.at, self.sizes, self.asked = data, 0, itertools.cycle(sizes), []

    def read(self, n=-1):
        assert n is not None and n >= 0, f"read({n})"
        self.asked.append(n)
        block = self.data[self.at : self.at + min(n, next(self.sizes))]
        self.at += len(block)
        return block


def _loaded(config, stream):
    """`load_snapshots` on the binary `stream`: (snapshots, warnings), or
    the type and text of the error that its ingest-stage PipelineError
    wraps."""
    try:
        return load_snapshots(config, stream)
    except PipelineError as exc:
        assert exc.stage == "ingest"
        return type(exc.__cause__).__name__, str(exc.__cause__)


def _loaded_by_library(config, text):
    """What `load_snapshots` gives, through the library functions: the
    whole text parsed to records, then sliced and built."""
    try:
        if config.kind == "events":
            events, warnings = parse_edge_events_text(text, config.input_path)
            records, times = [], [ev.time for ev in events]
        else:
            records, warnings = parse_publications_text(text, config.input_path)
            events, times = [], [r.date for r in records]
        if not times:
            raise InsufficientDataError("input contains no interactions to slice")
        if config.breakpoints is not None:
            breakpoints = config.breakpoints
            labels = [f"T{i + 1}" for i in range(len(breakpoints))]
        elif config.yearly:
            breakpoints, labels = _yearly_breakpoints(times)
        else:
            breakpoints, labels = [max(times)], ["all"]
        snapshots = build_cumulative_snapshots(events, breakpoints, labels, publications=records)
    except Exception as exc:  # every fault is compared by type and text
        return type(exc).__name__, str(exc)
    return snapshots, warnings


@pytest.mark.long
class TestLoadStreams:
    """`load_snapshots` streams records into the fold and keeps none; it
    must give what the library route gives: the same snapshots, the same
    warnings in order, or the same error."""

    @settings(max_examples=examples(300, 3000), deadline=None)
    @given(_load_inputs())
    def test_stream_and_library_route_agree(self, case):
        config, text = case
        assert _loaded(config, io.BytesIO(text.encode())) == _loaded_by_library(config, text)

    @settings(max_examples=examples(300, 3000), deadline=None)
    @given(_load_inputs(), st.booleans(), st.lists(st.integers(1, 7), min_size=1, max_size=8))
    def test_reads_of_any_size_agree(self, case, bom, sizes):
        # reads of 1 to 7 bytes end blocks inside a multi-byte character, the
        # byte-order mark, a CRLF pair and a quoted field
        config, text = case
        data = codecs.BOM_UTF8 * bom + text.encode()
        assert _loaded(config, _Reads(data, sizes)) == _loaded_by_library(config, text)

    @pytest.mark.parametrize(
        "kind, text, error",
        [
            ("events", "time,a,b\n1,A,B\nx,A,B\n", "f.in: 1 of 2 rows malformed (> 10%)"),
            ("events", "time,a,b\n1,A,B\n2009-02-07,B,C\n", "f.in: times mix naive date and numeric times"),
            ("publications", _pub() + "\nnot json\n", "f.in: 1 of 2 records malformed (> 10%)"),
            ("publications", _pub(date="5") + "\n" + _pub(pub_id="Q"), "f.in: times mix naive date and numeric times"),
        ],
    )
    def test_faults_found_at_the_end_of_the_stream(self, kind, text, error):
        config = AnalysisConfig("f.in", kind=kind)
        loaded = _loaded(config, io.BytesIO(text.encode()))
        assert loaded == ("ParseError", error) == _loaded_by_library(config, text)

    def test_load_keeps_no_record(self):
        # tracemalloc peak of load_snapshots: 11.1 MB when it held every
        # line, record and (time, authors, weight) group at once; 7.2 MB
        # streamed through the compact store
        config, text = _corpus()
        data = text.encode()
        tracemalloc.start()
        try:
            snapshots, warnings = load_snapshots(config, io.BytesIO(data))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(snapshots), snapshots[-1].n_actors, warnings) == (10, 300, [])
        assert peak < 9_000_000
        assert (snapshots, warnings) == _loaded_by_library(config, text)


def _corpus():
    """(config, text) of 20,000 publications by 300 authors in 10 years,
    1.82 MB, sliced yearly."""
    lines = []
    for i in range(20_000):
        authors = [f"Author {(i * 7 + k * 131) % 300}" for k in range(1 + i % 4)]
        date = f"{2000 + i // 2000}-{1 + i % 12:02d}-{1 + i % 28:02d}"
        lines.append(json.dumps({"pub_id": f"P{i:06d}", "date": date, "authors": authors}))
    return AnalysisConfig("corpus.jsonl", kind="publications", yearly=True), "\n".join(lines) + "\n"


class TestLoadReadsBlocks:
    """`load_snapshots` reads its stream 64 KiB at a time and holds no whole
    copy of the input, neither its bytes nor its text."""

    def test_load_holds_no_copy_of_the_input(self):
        # tracemalloc peak of load_snapshots on the 1.82 MB corpus: 6.73 MB
        # when it took the input's bytes and decoded them whole, 5.02 MB
        # read in blocks
        config, text = _corpus()
        stream = io.BytesIO(text.encode())
        tracemalloc.start()
        try:
            snapshots, warnings = load_snapshots(config, stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(snapshots), warnings) == (10, [])
        assert peak < 6_000_000

    @pytest.mark.parametrize("kind", ["events", "publications"])
    def test_no_read_asks_for_more_than_64_KiB(self, kind):
        if kind == "events":
            rows = (f"{i},a{i % 97},b{i % 89},{1 + i % 3}\n" for i in range(20_000))
            text = "time,a,b,weight\n" + "".join(rows)
        else:
            text = _corpus()[1]
        config = AnalysisConfig("f.in", kind=kind, yearly=kind == "publications")
        stream = _Reads(text.encode())
        assert _loaded(config, stream) == _loaded_by_library(config, text)
        assert len(stream.asked) > 4 and max(stream.asked) <= 65536


# the bundled samples, each with three rows that warn added, sliced as the
# README slices them
_SAMPLE_LOADS = [
    (
        "events",
        "disaster_events.csv",
        "2009-02-07T12:00,POL5, POL5 \nx,POL5,SES5\n2009-02-07T13:00,POL5,SES5,zz\n",
        {"breakpoints": [datetime(2009, 2, 7, 11, 50), datetime(2009, 2, 7, 16), datetime(2009, 2, 8)]},
    ),
    (
        "publications",
        "coauthorship_sample.jsonl",
        "\n".join(
            [_pub(pub_id="P0001"), _pub(pub_id="Q", authors=[]), "not json", _pub(pub_id="R", authors=[7, " Chen A "])]
        ),
        {"yearly": True},
    ),
]


class TestLoadBuildsNoRecord:
    """`load_snapshots` folds the decoders' (time, labels, weight) groups
    into the store: it builds no InteractionEvent or PublicationRecord, and
    the store interns each label it keeps."""

    @pytest.fixture(params=_SAMPLE_LOADS, ids=["events", "publications"])
    def sample(self, request):
        kind, name, extra, mode = request.param
        text = (resources.files("netevolve") / "data" / name).read_text("utf-8") + extra
        return AnalysisConfig(name, kind=kind, **mode), text

    def test_load_builds_no_record(self, sample, monkeypatch):
        config, text = sample
        expected = _loaded_by_library(config, text)
        assert len(expected[1]) == 3

        def refuse(cls, *args, **kwargs):
            raise AssertionError(f"{cls.__name__} built")

        for record in (InteractionEvent, PublicationRecord):
            monkeypatch.setattr(record, "__new__", refuse)
        with pytest.raises(AssertionError, match="InteractionEvent built"):
            InteractionEvent(1, "A", "B")
        assert load_snapshots(config, io.BytesIO(text.encode())) == expected

    def test_labels_are_one_object_across_loads(self, sample):
        config, text = sample
        first, _ = load_snapshots(config, io.BytesIO(text.encode()))
        second, _ = load_snapshots(config, io.BytesIO(text.encode()))
        pairs = zip(first[-1].sorted_actors(), second[-1].sorted_actors(), strict=True)
        assert all(a is b for a, b in pairs)
