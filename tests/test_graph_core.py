import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_snapshot
from oracles import cumulative_snapshots_brute
from netevolve import (
    GraphSnapshot,
    InteractionEvent,
    PublicationRecord,
    build_cumulative_snapshots,
    giant_component,
    parse_edge_events,
)

DISASTER_BREAKPOINTS = "2009-02-07T11:50,2009-02-07T13:05,2009-02-07T16:00,2009-02-08T00:00"


def events(*triples):
    return [InteractionEvent(t, a, b) for t, a, b in triples]


class TestInteractionEvent:
    def test_trims_whitespace(self):
        ev = InteractionEvent(1, "  A ", "B\t")
        assert (ev.a, ev.b) == ("A", "B")

    def test_pair_is_unordered(self):
        assert InteractionEvent(1, "B", "A").pair == InteractionEvent(1, "A", "B").pair

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            InteractionEvent(1, "A", "B", weight=0)

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError):
            InteractionEvent(1, "  ", "B")


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


class TestBuildAgainstRescan:
    @settings(max_examples=200, deadline=None)
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


class TestDisasterSample:
    """The bundled synthetic disaster log must reproduce the published
    cumulative actor/link/interaction totals for its four periods."""

    def test_period_totals(self, disaster_snapshots):
        assert [s.n_actors for s in disaster_snapshots] == [43, 58, 76, 98]
        assert [s.n_links for s in disaster_snapshots] == [46, 86, 115, 153]
        assert [s.sum_links for s in disaster_snapshots] == [73, 153, 213, 286]

    @pytest.fixture
    def disaster_snapshots(self):
        import importlib.resources as resources

        path = str(resources.files("netevolve") / "data" / "disaster_events.csv")
        evs, warnings = parse_edge_events(path)
        assert not warnings
        breakpoints = [
            __import__("datetime").datetime.fromisoformat(b)
            for b in DISASTER_BREAKPOINTS.split(",")
        ]
        return build_cumulative_snapshots(
            evs, breakpoints, ["T1", "T1-T2", "T1-T3", "T1-T4"]
        )


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
