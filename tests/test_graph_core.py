import copy
import json
import logging
import pickle
import random
import re
import sys
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples, random_snapshot, sample_config
from oracles import cumulative_snapshots_brute
from netevolve import (
    AnalysisConfig,
    GraphSnapshot,
    InteractionEvent,
    PublicationRecord,
    SmallWorldThresholds,
    SmallWorldVerdict,
    build_cumulative_snapshots,
    giant_component,
    load_snapshots,
    metrics_row,
    parse_edge_events_text,
    parse_publications_text,
)
from netevolve.generators import barabasi_albert
from netevolve.metrics import _all_sources


def events(*triples):
    return [InteractionEvent(t, a, b) for t, a, b in triples]


class TestInteractionEvent:
    def test_trims_whitespace(self):
        ev = InteractionEvent(1, "  A ", "B\t")
        assert (ev.a, ev.b) == ("A", "B")

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            InteractionEvent(1, "A", "B", weight=0)

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError):
            InteractionEvent(1, "  ", "B")

    def test_checks_labels_before_the_weight(self):
        with pytest.raises(ValueError, match="empty actor label"):
            InteractionEvent(1, "A", " ", weight=0)
        with pytest.raises(ValueError, match=r"actor label 5 is not a string"):
            InteractionEvent(1, 5, "B", weight="x")
        with pytest.raises(ValueError, match=r"weight '2' is not an integer"):
            InteractionEvent(1, "A", "B", weight="2")
        with pytest.raises(ValueError, match=r"^weight 0 < 1$"):
            InteractionEvent(1, "A", "B", weight=0)

    def test_record_behaviour(self):
        event = InteractionEvent(time=2, a=" A", b="B ", weight=np.int64(3))
        assert event == InteractionEvent(2, "A", "B", 3) and type(event.weight) is int
        assert hash(event) == hash(InteractionEvent(2, "A", "B", 3))
        assert event != InteractionEvent(2, "B", "A", 3)
        assert repr(event) == "InteractionEvent(time=2, a='A', b='B', weight=3)"
        assert InteractionEvent._fields == ("time", "a", "b", "weight")
        assert InteractionEvent._field_defaults == {"weight": 1}
        assert InteractionEvent(2, "A", "B").weight == 1


class TestPublicationRecord:
    def test_trims_drops_blanks_and_repeats(self):
        record = PublicationRecord("P", 1, [" A", "B ", "", "  ", "A", "b", "B"])
        assert record.authors == ("A", "B", "b")

    def test_keyword_construction(self):
        record = PublicationRecord(pub_id="P", date=2, authors=iter([" A "]))
        assert (record.pub_id, record.date, record.authors) == ("P", 2, ("A",))

    def test_equality_and_hashing(self):
        record = PublicationRecord("P", 1, ("A", " B"))
        same = PublicationRecord("P", 1, ["A", "B", "A"])
        assert record == same and hash(record) == hash(same)
        assert len({record, same}) == 1
        assert record != PublicationRecord("P", 2, ("A", "B"))
        assert record != PublicationRecord("P", 1, ("B", "A"))


class TestRecords:
    @pytest.mark.parametrize(
        "record, labels",
        [
            # labels longer than one character: CPython shares one-character strings anyway
            (InteractionEvent(2, " Ann", "Bob", 3), lambda r: (r.a, r.b)),
            (PublicationRecord("P", 1, [" Ann", "Bob"]), lambda r: r.authors),
        ],
        ids=["event", "publication"],
    )
    def test_immutable(self, record, labels):
        for name in (record._fields[0], "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(record, name, 1)
            with pytest.raises(FrozenInstanceError):
                delattr(record, name)
        assert not hasattr(record, "__dict__")
        pickled = [pickle.loads(pickle.dumps(record, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in [*pickled, copy.copy(record), copy.deepcopy(record)]:
            assert clone == record
            # restored through the constructor, so its labels are interned
            assert all(v is sys.intern(v) for v in labels(clone))


def _rebuilds(record):
    """Every route that rebuilds a record from its fields: `_make`,
    `_replace`, pickle in each protocol, `copy.copy` and `copy.deepcopy`."""
    yield "_make", lambda: type(record)._make(record)
    yield "_replace", lambda: record._replace()
    for p in range(pickle.HIGHEST_PROTOCOL + 1):
        yield f"pickle-{p}", lambda p=p: pickle.loads(pickle.dumps(record, p))
    yield "copy", lambda: copy.copy(record)
    yield "deepcopy", lambda: copy.deepcopy(record)


class TestRecordRules:
    """Each route that rebuilds a record runs its constructor's rules. The
    faulty records are made with `tuple.__new__`, which skips them."""

    @pytest.mark.parametrize(
        "cls, values, message",
        [
            (InteractionEvent, (1, " ", "B", 1), "empty actor label"),
            (InteractionEvent, (1, "A", "B", 0), "weight 0 < 1"),
            (PublicationRecord, ("P", 1, "Ann"), "authors must be a sequence of names, not 'Ann'"),
            (PublicationRecord, ("P", 1, ("Ann", 7)), "actor label 7 is not a string"),
            (AnalysisConfig, ("in.csv", "edges", None, None, False, 0.1, SmallWorldThresholds()),
             "unknown input kind 'edges'"),
            (AnalysisConfig, ("in.csv", "events", None, None, False, 0.0, SmallWorldThresholds()),
             "rel_tolerance must be in (0, 1], got 0.0"),
        ],
        ids=["blank-label", "zero-weight", "string-authors", "int-author", "kind", "tolerance"],
    )
    def test_every_rebuild_checks(self, cls, values, message):
        faulty = tuple.__new__(cls, values)
        for route, rebuild in _rebuilds(faulty):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                rebuild()
                pytest.fail(f"{route} skipped the rules")  # not a ValueError, so it escapes

    @pytest.mark.parametrize(
        "record, values",
        [
            (InteractionEvent(1, "Ann", "Bob", 2), (1, " Ann ", "Bob\t", np.int64(2))),
            (PublicationRecord("P", 1, ("Ann", "Bob")), ("P", 1, [" Ann", "Bob", "Ann"])),
        ],
        ids=["event", "publication"],
    )
    def test_every_rebuild_applies_the_label_rule(self, record, values):
        untrimmed = tuple.__new__(type(record), values)
        for route, rebuild in _rebuilds(untrimmed):
            clone = rebuild()
            assert clone == record and type(clone) is type(record), route
            assert list(map(type, clone)) == list(map(type, record)), route

    def test_replace_checks_the_new_value(self):
        event = InteractionEvent(1, "A", "B")
        with pytest.raises(ValueError, match="^empty actor label$"):
            event._replace(a=" ")
        assert event._replace(b=" C ") == InteractionEvent(1, "A", "C")
        config = AnalysisConfig("in.csv")
        with pytest.raises(ValueError, match="^--yearly and --breakpoints are two slicing modes"):
            config._replace(yearly=True, breakpoints=[1])
        with pytest.raises(ValueError, match="Got unexpected field names"):
            config._replace(threads=2)

    def test_every_rebuild_derives_the_verdict(self):
        stale = tuple.__new__(SmallWorldVerdict, ("p", True, True, True, False, True))
        for route, rebuild in _rebuilds(stale):
            clone = rebuild()
            assert type(clone) is SmallWorldVerdict, route
            assert clone == SmallWorldVerdict("p", True, True, True, False), route
            assert clone.verdict is False, route
        verdict = SmallWorldVerdict("p", True, True, True, True)
        assert verdict.verdict is True
        assert verdict._replace(scale_free=None).verdict is None
        assert verdict._replace(scale_free=False).verdict is False
        with pytest.raises(TypeError):
            SmallWorldVerdict._make(verdict[:5])


class TestSnapshotRecord:
    """A snapshot keeps the frozen dataclass's equality, repr and refusal to
    assign, and pickles and copies through its constructor."""

    def test_equality_repr_and_immutability(self):
        s = GraphSnapshot.from_edge_list("g", [("Ann", "Bob", 2), ("Bob", "Cy", 1)], ["Dee"])
        assert s == GraphSnapshot("g", {"Ann", "Bob", "Cy", "Dee"}, {("Bob", "Ann"): 2, ("Cy", "Bob"): 1})
        assert s != GraphSnapshot.from_edge_list("g", [("Ann", "Bob", 1), ("Bob", "Cy", 1)], ["Dee"])
        assert s != GraphSnapshot.from_edge_list("h", [("Ann", "Bob", 2), ("Bob", "Cy", 1)], ["Dee"])
        assert s != (s.label, s._names)
        assert repr(s) == "GraphSnapshot(label='g', _names=('Ann', 'Bob', 'Cy', 'Dee'), sum_links=3)"
        with pytest.raises(TypeError, match="unhashable"):
            hash(s)
        for name in ("label", "_names", "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(s, name, 1)
            with pytest.raises(FrozenInstanceError):
                delattr(s, name)
        assert not hasattr(s, "__dict__")
        pickled = [pickle.loads(pickle.dumps(s, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in [*pickled, copy.copy(s), copy.deepcopy(s)]:
            assert clone == s and clone.edges == s.edges and clone is not s


class TestInternedLabels:
    """One string object per distinct label, from the decoder through the
    records to the snapshot's label table, across parses and for records
    built in code."""

    def test_publication_authors_share_one_object(self):
        lines = [
            json.dumps({"pub_id": f"P{i}", "date": "2005-01-01", "authors": ["Cy", " Ann ", "Bob"]})
            for i in range(4)
        ]
        records, _ = parse_publications_text("\n".join(lines))
        first = records[0].authors
        assert all(a is b for r in records for a, b in zip(r.authors, first, strict=True))
        (s,) = build_cumulative_snapshots([], [records[0].date], ["p"], publications=records)
        assert all(v is a for v, a in zip(s.sorted_actors(), sorted(first), strict=True))

    def test_event_actors_share_one_object(self):
        # longer than one character: CPython shares one-character strings anyway
        events, _ = parse_edge_events_text("time,a,b\n1,Ann,Bob\n2, Bob ,Cy\n3,Cy,Ann\n")
        a, b, c = events[0].a, events[0].b, events[1].b
        assert events[1].a is b and events[2].a is c and events[2].b is a
        (s,) = build_cumulative_snapshots(events, [3], ["p"])
        assert all(v is w for v, w in zip(s.sorted_actors(), (a, b, c), strict=True))

    def test_event_built_in_code_shares_the_parsed_label(self):
        event = InteractionEvent(1, " Ann", "Bob")
        (parsed,), _ = parse_edge_events_text("time,a,b\n2, Ann,Cy\n")
        assert parsed.a is event.a
        (again,), _ = parse_edge_events_text("time,a,b\n3,Cy,Ann \n")
        assert again.b is event.a and again.a is parsed.b

    def test_record_built_in_code_shares_the_decoded_authors(self):
        record = PublicationRecord("P", 2005, [" Ann ", "Bob", "Ann"])
        line = json.dumps({"pub_id": "Q", "date": "2005", "authors": ["Bob\t", "Ann"]})
        (decoded,), _ = parse_publications_text(line)
        assert record.authors == ("Ann", "Bob") and decoded.authors == ("Bob", "Ann")
        assert decoded.authors[0] is record.authors[1] and decoded.authors[1] is record.authors[0]


class TestSnapshotConstruction:
    def test_rejects_self_loop_edge(self):
        with pytest.raises(ValueError):
            GraphSnapshot("x", frozenset({"A"}), {("A", "A"): 1})

    def test_rejects_unregistered_endpoint(self):
        with pytest.raises(ValueError):
            GraphSnapshot("x", frozenset({"A"}), {("A", "B"): 1})

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            GraphSnapshot("x", frozenset({"A", "B"}), {("A", "B"): 0})

    def test_normalizes_pair_order(self):
        s = GraphSnapshot("x", frozenset({"A", "B"}), {("B", "A"): 2})
        assert s.edges == {("A", "B"): 2}

    def test_rejects_duplicate_edge_under_normalization(self):
        with pytest.raises(ValueError):
            GraphSnapshot("x", frozenset({"A", "B"}), {("A", "B"): 1, ("B", "A"): 2})

    def test_trims_and_interns_labels(self):
        s = GraphSnapshot("g", {" Ann", "Ann ", "Bob\t"}, {("Ann ", " Bob"): 2})
        assert s.sorted_actors() == ["Ann", "Bob"]
        assert s.edges == {("Ann", "Bob"): 2}
        assert all(v is sys.intern(v) for v in s.sorted_actors())
        assert s == GraphSnapshot.from_edge_list("g", [("Ann", "Bob", 2)])

    @pytest.mark.parametrize(
        "edges, message",
        [
            ({(" Ann", "Bob"): 1, ("Ann", "Bob "): 2}, "duplicate edge ('Ann', 'Bob')"),
            ({(" Ann", "Ann"): 1}, "self-loop on actor 'Ann'"),
            ({(" Ann", "Cy "): 1}, "edge endpoint not registered as actor: ('Ann', 'Cy')"),
            ({("Ann", 7): 1}, "actor label 7 is not a string"),
        ],
        ids=["duplicate", "self-loop", "unregistered", "not-a-string"],
    )
    def test_endpoint_faults_after_trimming(self, edges, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GraphSnapshot("g", {"Ann", " Bob"}, edges)


class TestLibraryInputRules:
    """Records and snapshots built in code follow the decoders' label rule,
    and every weight is an integer of at least 1, stored as an int."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: GraphSnapshot.from_edge_list("g", [("  ", "A", 1)]), "empty actor label"),
            (lambda: GraphSnapshot.from_edge_list("g", [], [" "]), "empty actor label"),
            (lambda: GraphSnapshot("g", {"", "A"}, {("", "A"): 1}), "empty actor label"),
            (lambda: GraphSnapshot("g", {" \t", "A"}, {}), "empty actor label"),
            (lambda: GraphSnapshot("g", {1, "A"}, {}), "actor label 1 is not a string"),
            (
                lambda: GraphSnapshot.from_edge_list("g", [(b"A", "B", 1)]),
                "actor label b'A' is not a string",
            ),
            (lambda: InteractionEvent(1, 5, "B"), "actor label 5 is not a string"),
            (lambda: InteractionEvent(1, "A", None), "actor label None is not a string"),
            (lambda: PublicationRecord("P", 2005, [1, "A"]), "actor label 1 is not a string"),
            (
                lambda: PublicationRecord("P", 2005, "AB"),
                "authors must be a sequence of names, not 'AB'",
            ),
            (
                lambda: PublicationRecord("P", 2005, iter(["A", 1, "B"])),
                "actor label 1 is not a string",
            ),
        ],
        ids=[
            "edge-list-blank", "edge-list-blank-extra", "snapshot-empty", "snapshot-blank",
            "snapshot-int", "edge-list-bytes", "event-int", "event-none", "record-int",
            "record-bare-string", "record-iterator-int",
        ],
    )
    def test_label_faults(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize(
        "weight", [1.5, 2.0, True, False, "2", None, np.float64(2)],
        ids=["fraction", "whole-float", "true", "false", "string", "none", "numpy-float"],
    )
    def test_weight_must_be_an_integer(self, weight):
        message = f"^weight {re.escape(repr(weight))} is not an integer$"
        with pytest.raises(ValueError, match=message):
            InteractionEvent(1, "A", "B", weight)
        with pytest.raises(ValueError, match=message):
            GraphSnapshot("g", {"A", "B"}, {("A", "B"): weight})
        with pytest.raises(ValueError, match=message):
            GraphSnapshot.from_edge_list("g", [("A", "B", weight)])

    @pytest.mark.parametrize("weight", [0, -3, np.int64(0)], ids=["zero", "negative", "numpy"])
    def test_weight_below_one(self, weight):
        with pytest.raises(ValueError, match=f"^weight {int(weight)} < 1$"):
            InteractionEvent(1, "A", "B", weight)
        below = f"^edge weight must be >= 1, got {int(weight)} for \\('A', 'B'\\)$"
        with pytest.raises(ValueError, match=below):
            GraphSnapshot("g", {"A", "B"}, {("A", "B"): weight})
        with pytest.raises(ValueError, match=below):
            GraphSnapshot.from_edge_list("g", [("A", "B", weight)])

    @pytest.mark.parametrize(
        "triples, weight",
        [([("a", "b", 2), ("a", "b", -1)], -1), ([("a", "b", 0), ("a", "b", 1)], 0)],
        ids=["negative-after-positive", "zero-before-positive"],
    )
    def test_each_edge_list_triple_weighs_at_least_one(self, triples, weight):
        # the sum over a repeated pair would be at least 1 in both cases
        below = f"^edge weight must be >= 1, got {weight} for \\('a', 'b'\\)$"
        with pytest.raises(ValueError, match=below):
            GraphSnapshot.from_edge_list("x", triples)

    def test_numpy_integer_weights_are_stored_as_int(self):
        event = InteractionEvent(1, "A", "B", np.int64(2))
        assert type(event.weight) is int
        (folded,) = build_cumulative_snapshots([event], [1], ["p"])
        direct = GraphSnapshot("g", {"A", "B"}, {("A", "B"): np.int32(2)})
        listed = GraphSnapshot.from_edge_list("g", [("A", "B", np.int64(1)), ("B", "A", np.uint8(1))])
        for s in (folded, direct, listed):
            assert s.edges == {("A", "B"): 2}
            assert type(s.sum_links) is int
            assert json.dumps(s.sum_links) == "2"


class TestBuildCumulativeSnapshots:
    def test_direct_accumulation(self):
        evs = events((1, "A", "B"), (2, "A", "B"), (3, "B", "C"))
        s1, s2 = build_cumulative_snapshots(evs, [2, 3], ["p1", "p2"])
        assert (s1.n_actors, s1.n_links, s1.sum_links) == (2, 1, 2)
        assert (s2.n_actors, s2.n_links, s2.sum_links) == (3, 2, 3)

    def test_empty_events_single_breakpoint(self):
        (s,) = build_cumulative_snapshots([], [5], ["only"])
        assert (s.n_actors, s.n_links, s.sum_links) == (0, 0, 0)

    def test_empty_breakpoints_rejected(self):
        with pytest.raises(ValueError):
            build_cumulative_snapshots([], [], [])

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_cumulative_snapshots([], [1, 2], ["a"])

    def test_non_increasing_breakpoints_rejected(self):
        with pytest.raises(ValueError):
            build_cumulative_snapshots([], [2, 2], ["a", "b"])

    def test_mixed_kind_breakpoints_rejected(self):
        from datetime import datetime

        with pytest.raises(ValueError, match="breakpoints mix naive date and numeric"):
            build_cumulative_snapshots([], [5, datetime(2009, 1, 1)], ["a", "b"])

    def test_repeated_label_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            build_cumulative_snapshots([], [1, 2], ["a", "a"])

    @pytest.mark.parametrize("separator", ["\t", "\r", "\n"])
    def test_label_with_a_table_separator_rejected(self, separator):
        # a label is one cell of the tab-separated report
        with pytest.raises(ValueError, match="must not hold a tab, CR or LF"):
            build_cumulative_snapshots([], [1, 2], [f"a{separator}b", "c"])

    @pytest.mark.parametrize(
        "evs, breakpoints, labels, message",
        [
            (events(("x", "A", "B")), [5], ["p"], "time 'x' is not an int, a float or a datetime"),
            (events((True, "A", "B")), [5], ["p"], "time True is not an int, a float or a datetime"),
            ([], [None], ["p"], "time None is not an int, a float or a datetime"),
            ([], "12", ["a", "b"], "breakpoints must be a sequence of times, got '12'"),
            ([], [1, 2], [1, 2], "period labels must be a sequence of strings, got [1, 2]"),
            ([], [1, 2], "ab", "period labels must be a sequence of strings, got 'ab'"),
        ],
        ids=["string-time", "bool-time", "none-breakpoint", "string-breakpoints", "int-labels", "string-labels"],
    )
    def test_slicing_inputs_of_the_wrong_type_rejected(self, evs, breakpoints, labels, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_cumulative_snapshots(evs, breakpoints, labels)

    def test_self_loop_event_warns_but_not_fatal(self, caplog):
        evs = events((1, "A", "B"), (2, "C", "C"))
        with caplog.at_level(logging.WARNING, logger="netevolve.graph_core"):
            (s,) = build_cumulative_snapshots(evs, [5], ["p"])
        assert s.actors == {"A", "B"}
        assert any("self-loop" in rec.message for rec in caplog.records)

    def test_mixed_time_kinds_rejected(self):
        from datetime import datetime

        evs = events((1, "A", "B"), (datetime(2009, 1, 1), "B", "C"))
        with pytest.raises(ValueError):
            build_cumulative_snapshots(evs, [5], ["p"])

    def test_naive_and_aware_dates_rejected(self):
        from datetime import datetime, timezone

        evs = events((datetime(2009, 1, 1), "A", "B"))
        with pytest.raises(ValueError, match="mix naive date and offset-aware date"):
            build_cumulative_snapshots(evs, [datetime(2010, 1, 1, tzinfo=timezone.utc)], ["p"])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_times_rejected(self, bad):
        # NaN compares false with every time, so in a time-sorted fold it would
        # silently hold back the events sorted after it
        evs = events((3, "A", "B"), (bad, "C", "D"), (1, "E", "F"))
        with pytest.raises(ValueError, match="must be finite"):
            build_cumulative_snapshots(evs, [2], ["p"])
        for authors in [("Z",), ("Y", "Z")]:
            pubs = [PublicationRecord("P", bad, authors)]
            with pytest.raises(ValueError, match="must be finite"):
                build_cumulative_snapshots(events((1, "A", "B")), [2], ["p"], publications=pubs)
        with pytest.raises(ValueError, match="must be finite"):
            build_cumulative_snapshots(events((1, "A", "B")), [bad], ["p"])

    def test_breakpoint_is_inclusive(self):
        (s,) = build_cumulative_snapshots(events((5, "A", "B")), [5], ["p"])
        assert s.n_links == 1

    def test_actor_arrivals_register_isolated_actors(self):
        solo = [PublicationRecord("P1", 2, ("Z",)), PublicationRecord("P2", 9, ("Q",))]
        (s,) = build_cumulative_snapshots(events((1, "A", "B")), [5], ["p"], publications=solo)
        assert s.actors == {"A", "B", "Z"}
        assert s.degree("Z") == 0


_TIMES = st.one_of(st.integers(0, 12), st.sampled_from([0.5, 4.5, 12.5]))
_ACTORS = st.sampled_from(["A", "B", "C", "D", " E", "F "])


@st.composite
def _histories(draw):
    """Events in any order, with repeated pairs, self-loops, times on and
    past the breakpoints, and publications of one or more authors, some
    padded or repeated, who may or may not also appear in events."""
    event = st.builds(InteractionEvent, _TIMES, _ACTORS, _ACTORS, st.integers(1, 3))
    evs = draw(st.lists(event, max_size=40))
    authors = st.lists(st.sampled_from(["A", "Z", " Y ", "Y", "B "]), min_size=1, max_size=4)
    publication = st.builds(PublicationRecord, st.just("P"), _TIMES, authors.map(tuple))
    pubs = draw(st.lists(publication, max_size=8))
    breakpoints = sorted(draw(st.sets(st.integers(0, 10), min_size=1, max_size=5)))
    return evs, pubs, breakpoints


@pytest.mark.long
class TestBuildAgainstRescan:
    @settings(max_examples=examples(200, 3000), deadline=None)
    @given(_histories(), st.randoms(use_true_random=False))
    def test_matches_per_breakpoint_filter(self, history, rng):
        evs, pubs, breakpoints = history
        labels = [f"p{i}" for i in range(len(breakpoints))]
        expected = cumulative_snapshots_brute(evs, breakpoints, pubs)
        rng.shuffle(evs)
        rng.shuffle(pubs)
        snaps = build_cumulative_snapshots(evs, breakpoints, labels, publications=pubs)
        assert [s.label for s in snaps] == labels
        assert [(s.actors, s.edges) for s in snaps] == expected
        for s in snaps:  # ids in label order, each row strictly ascending
            assert list(s._names) == sorted(s._names)
            assert all(list(row) == sorted(set(row)) for row in s._rows())


@st.composite
def _weighted_edges(draw):
    """(a, b, weight) triples with repeated pairs in either order, plus
    isolated actors."""
    names = [f"{c}{i}" for i, c in enumerate("qZbA" * 5)][: draw(st.integers(2, 20))]
    pair = st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(lambda p: p[0] != p[1])
    triples = draw(st.lists(st.tuples(pair, st.integers(1, 4)), min_size=1, max_size=60))
    isolated = draw(st.lists(st.sampled_from(names + ["solo1", "solo2"]), max_size=3))
    return [(a, b, w) for (a, b), w in triples], isolated


def _fold_and_direct(triples, isolated):
    """The same graph folded from events and single-author publications, and
    built directly from labels."""
    events = [InteractionEvent(i % 7, a, b, w) for i, (a, b, w) in enumerate(triples)]
    solos = [PublicationRecord(f"S{i}", 3, (v,)) for i, v in enumerate(isolated)]
    (folded,) = build_cumulative_snapshots(events, [6], ["g"], publications=solos)
    return folded, GraphSnapshot.from_edge_list("g", triples, extra_actors=isolated)


def _assert_same_graph(folded, direct):
    assert folded == direct
    assert folded.sorted_actors() == direct.sorted_actors()
    assert folded.actors == direct.actors
    assert folded.edges == direct.edges
    assert list(folded.edges) == list(direct.edges)
    for v in direct.sorted_actors():
        assert (folded.degree(v), folded.strength(v)) == (direct.degree(v), direct.strength(v))
    assert repr(_all_sources(folded)) == repr(_all_sources(direct))
    assert repr(metrics_row(folded)) == repr(metrics_row(direct))


@pytest.mark.long
class TestFoldMatchesDirectBuild:
    @settings(max_examples=examples(150, 3000), deadline=None)
    @given(_weighted_edges())
    def test_random_graphs(self, graph):
        _assert_same_graph(*_fold_and_direct(*graph))

    def test_numpy_kernel_reads_both(self):
        s = barabasi_albert(200, 3, 11)
        triples = [(a, b, w) for (a, b), w in s.edges.items()]
        folded, direct = _fold_and_direct(triples, [])
        assert _all_sources(folded).kernel == "numpy"
        _assert_same_graph(folded, direct)


class TestDisasterSample:
    """The bundled synthetic disaster log must reproduce the published
    cumulative actor/link/interaction totals for its four periods."""

    def test_period_totals(self, disaster_snapshots):
        assert [s.n_actors for s in disaster_snapshots] == [43, 58, 76, 98]
        assert [s.n_links for s in disaster_snapshots] == [46, 86, 115, 153]
        assert [s.sum_links for s in disaster_snapshots] == [73, 153, 213, 286]

    @pytest.fixture
    def disaster_snapshots(self):
        config = sample_config("disaster")
        with open(config.input_path, "rb") as handle:
            snapshots, warnings = load_snapshots(config, handle)
        assert not warnings
        return snapshots


class TestSnapshotInvariants:
    @pytest.mark.parametrize("seed", range(12))
    def test_handshake_sums(self, seed):
        s = random_snapshot(seed)
        assert sum(s.degree(v) for v in s.actors) == 2 * s.n_links
        assert sum(s.strength(v) for v in s.actors) == 2 * s.sum_links

    @pytest.mark.parametrize("seed", range(8))
    def test_monotone_growth(self, seed):
        rng = random.Random(seed)
        evs = [
            InteractionEvent(rng.randint(0, 100), f"a{rng.randint(0, 30)}", f"b{rng.randint(0, 30)}")
            for _ in range(120)
        ]
        snaps = build_cumulative_snapshots(evs, [25, 50, 75, 100], list("wxyz"))
        for earlier, later in zip(snaps, snaps[1:]):
            assert earlier.actors <= later.actors
            assert earlier.n_links <= later.n_links
            assert earlier.sum_links <= later.sum_links
            for pair, w in earlier.edges.items():
                assert later.edges[pair] >= w

    @pytest.mark.parametrize("seed", range(8))
    def test_rebuild_determinism_under_shuffle(self, seed):
        rng = random.Random(seed)
        evs = [
            InteractionEvent(rng.randint(0, 50), f"a{rng.randint(0, 15)}", f"b{rng.randint(0, 15)}")
            for _ in range(60)
        ]
        snaps = build_cumulative_snapshots(evs, [20, 50], ["p1", "p2"])
        shuffled = evs[:]
        rng.shuffle(shuffled)
        assert build_cumulative_snapshots(shuffled, [20, 50], ["p1", "p2"]) == snaps


class TestGiantComponent:
    def test_tie_breaks_lexicographically(self):
        two_triangles = GraphSnapshot.from_edge_list(
            "tt",
            [("A", "B", 1), ("B", "C", 1), ("A", "C", 1),
             ("D", "E", 1), ("E", "F", 1), ("D", "F", 1)],
        )
        assert giant_component(two_triangles).actors == {"A", "B", "C"}

    def test_isolated_actor_is_size_one_component(self):
        s = GraphSnapshot.from_edge_list(
            "p", [("A", "B", 1), ("B", "C", 1)], extra_actors=["D"]
        )
        assert giant_component(s).actors == {"A", "B", "C"}

    def test_connected_graph_is_identity(self, k4):
        assert giant_component(k4) == k4

    def test_empty_snapshot(self):
        s = GraphSnapshot("e", frozenset(), {})
        assert giant_component(s) == s

    @pytest.mark.parametrize("seed", range(10))
    def test_idempotent(self, seed):
        s = random_snapshot(seed)
        g = giant_component(s)
        assert giant_component(g) == g


class TestDegreeStrength:
    def test_star_center_degree(self, star5):
        assert star5.degree("hub") == 5

    def test_isolated_degree_zero(self):
        s = GraphSnapshot("i", frozenset({"A"}), {})
        assert s.degree("A") == 0
        assert s.strength("A") == 0

    def test_k4_degree(self, k4):
        assert k4.degree("v0") == 3

    def test_strength_sums_weights(self):
        s = GraphSnapshot.from_edge_list("w", [("A", "B", 3), ("A", "C", 2)])
        assert s.strength("A") == 5

    def test_strength_equals_degree_when_unweighted(self, k4):
        assert k4.strength("v1") == k4.degree("v1") == 3

    def test_unknown_actor_raises(self, k4):
        with pytest.raises(KeyError):
            k4.degree("nope")
        with pytest.raises(KeyError):
            k4.strength("nope")
