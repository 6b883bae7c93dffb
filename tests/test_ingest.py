import itertools
import random
from datetime import datetime

import pytest

from netevolve import (
    ParseError,
    PublicationRecord,
    build_cumulative_snapshots,
    metrics_row,
    parse_edge_events,
    parse_edge_events_text,
    parse_publications_text,
    parse_timestamp,
    write_edge_events_text,
)
from netevolve.graph_core import InteractionEvent


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

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError):
            parse_edge_events_text("from,to,when\n1,A,B\n")

    def test_mixed_time_kinds_rejected(self):
        with pytest.raises(ParseError):
            parse_edge_events_text("time,a,b\n1,A,B\n2009-02-07,B,C\n")

    def test_unreadable_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            parse_edge_events(str(tmp_path / "missing.csv"))

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
