import itertools
import json
import random
import re
import tracemalloc
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netevolve import (
    ParseError,
    PublicationRecord,
    build_cumulative_snapshots,
    metrics_row,
    parse_edge_events_text,
    parse_publications_text,
    parse_timestamp,
    write_edge_events_text,
)
from netevolve.graph_core import InteractionEvent
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

    def test_reader_error_names_its_line(self):
        text = "time,a,b\n1,A,B\n\n2,A," + "B" * 200_000 + "\n3,B,C\n"
        with pytest.raises(ParseError, match=r"^f\.csv:4: field larger than field limit"):
            parse_edge_events_text(text, "f.csv")

    def test_rows_stream_into_the_decoder(self):
        # the peak holds the events, the reader's copy of the text and the
        # time cache; a list of every split row besides took it past 4x
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

    @settings(max_examples=200, deadline=None)
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


def _parse(kind: str, rows: list[str]):
    """Parse `rows` as the data of a file named f.<kind>."""
    if kind == "csv":
        return parse_edge_events_text("time,a,b,weight\n" + "\n".join(rows) + "\n", "f.csv")
    return parse_publications_text("\n".join(rows) + "\n", "f.jsonl")


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
    """One rule for both formats: a malformed row counts toward the 10%
    budget, a noise row does not, and each warns `source:line: reason,
    row|record skipped`."""

    @pytest.mark.parametrize("kind, raw, reason, malformed", WARNING_TABLE)
    def test_warning_text(self, kind, raw, reason, malformed):
        good = [_good_row(kind, i) for i in range(9)]
        records, warnings = _parse(kind, good + [raw])
        line = 11 if kind == "csv" else 10
        noun = "row" if kind == "csv" else "record"
        assert warnings == [f"f.{kind}:{line}: {reason}, {noun} skipped"]
        assert len(records) == 9
        # one more malformed row breaks the budget only if this one counted
        bad = "x,A,B" if kind == "csv" else "not json"
        if malformed:
            with pytest.raises(ParseError, match=re.escape(f"2 of 11 {noun}s malformed")):
                _parse(kind, good + [raw, bad])
        else:
            assert len(_parse(kind, good + [raw, bad])[1]) == 2

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
        records, warnings = _parse("jsonl", good + [_pub(**fields)])
        assert warnings == [f"f.jsonl:10: {reason}, record skipped"]
        assert len(records) == 9
        with pytest.raises(ParseError, match="2 of 11 records malformed"):
            _parse("jsonl", good + [_pub(**fields), "not json"])

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


class TestDecoderMatchesReference:
    """`parse_publications_text` decodes each line once with the C scanner;
    the per-line `json.loads` decoder in oracles.py is the reference."""

    @settings(max_examples=200, deadline=None)
    @given(_jsonl_texts())
    def test_random_texts(self, text):
        _assert_decoded_alike(text)

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
