import random

import numpy as np
import pytest

from conftest import complete, path_graph, random_snapshot, star
from netevolve import (
    GraphSnapshot,
    InteractionEvent,
    UndefinedMetricError,
    assortativity,
    avg_clustering,
    avg_neighbor_degree,
    avg_neighbor_degree_mean,
    betweenness,
    build_cumulative_snapshots,
    centralization,
    closeness,
    degree_histogram,
    density_simple,
    density_weighted,
    local_clustering,
    metrics_row,
    path_stats,
    transitivity,
)
from oracles import (
    avg_clustering_brute,
    betweenness_brute,
    floyd_warshall_path_stats,
    tree_betweenness_brute,
)


class TestDensity:
    def test_single_edge_weighted(self):
        s = GraphSnapshot.from_edge_list("e", [("A", "B", 1)])
        assert density_weighted(s) == 1.0

    def test_weighted_formula_on_published_pairs(self):
        # density = 2W/(N(N-1)), checked against the printed percentages
        for n, w, expected_pct in [(58, 153, 9.26), (98, 286, 6.02)]:
            value = 2.0 * w / (n * (n - 1))
            assert abs(100 * value - expected_pct) < 0.005

    def test_simple_density_k4(self, k4):
        assert density_simple(k4) == 1.0

    def test_simple_density_p4(self, p4):
        assert density_simple(p4) == 0.5

    def test_simple_differs_from_weighted_convention(self):
        # N=43, L=46: the simple form gives 92/1806, clearly not 8.08%
        value = 2.0 * 46 / (43 * 42)
        assert value == pytest.approx(92 / 1806)
        assert abs(value - 0.0808) > 0.02

    def test_weighted_at_least_simple(self):
        for seed in range(10):
            s = random_snapshot(seed)
            if s.n_actors >= 2:
                assert density_weighted(s) >= density_simple(s)
                assert 0.0 <= density_simple(s) <= 1.0

    def test_requires_two_actors(self):
        s = GraphSnapshot("one", frozenset({"A"}), {})
        with pytest.raises(UndefinedMetricError):
            density_weighted(s)
        with pytest.raises(UndefinedMetricError):
            density_simple(s)


class TestClustering:
    def test_k4_node_fully_clustered(self, k4):
        assert local_clustering(k4, "v0") == 1.0

    def test_star_center_zero(self, star5):
        assert local_clustering(star5, "hub") == 0.0

    def test_one_of_three_neighbor_pairs(self):
        s = GraphSnapshot.from_edge_list(
            "v3", [("v", "a", 1), ("v", "b", 1), ("v", "c", 1), ("a", "b", 1)]
        )
        assert local_clustering(s, "v") == pytest.approx(1 / 3)

    def test_unknown_actor(self, k4):
        with pytest.raises(KeyError):
            local_clustering(k4, "zz")

    def test_complete_graph_average_is_one(self):
        for n in (3, 5, 7):
            assert avg_clustering(complete(n)) == 1.0

    def test_trees_are_triangle_free(self, p4, star5):
        assert avg_clustering(p4) == 0.0
        assert avg_clustering(star5) == 0.0

    def test_triangle_with_pendant_matches_enumeration_oracle(self):
        s = GraphSnapshot.from_edge_list(
            "tp", [("A", "B", 1), ("B", "C", 1), ("A", "C", 1), ("A", "D", 1)]
        )
        expected = avg_clustering_brute(s)
        assert expected == pytest.approx((1 / 3 + 1 + 1 + 0) / 4)
        assert avg_clustering(s) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_on_random_graphs(self, seed):
        s = random_snapshot(seed, max_n=40)
        assert avg_clustering(s) == pytest.approx(avg_clustering_brute(s), abs=1e-12)

    def test_empty_graph_undefined(self):
        with pytest.raises(UndefinedMetricError):
            avg_clustering(GraphSnapshot("e", frozenset(), {}))

    def test_transitivity_k4(self, k4):
        assert transitivity(k4) == 1.0

    def test_transitivity_differs_from_mean_local_on_star_plus_triangle(self):
        s = GraphSnapshot.from_edge_list(
            "mix",
            [("A", "B", 1), ("B", "C", 1), ("A", "C", 1)]
            + [("hub", f"l{i}", 1) for i in range(5)],
        )
        assert transitivity(s) != pytest.approx(avg_clustering(s))


class TestPathStats:
    def test_p4(self, p4):
        diameter, avg = path_stats(p4)
        assert diameter == 3
        assert avg == pytest.approx((1 + 2 + 3 + 1 + 2 + 1) / 6)

    def test_two_disjoint_edges(self):
        s = GraphSnapshot.from_edge_list("dd", [("A", "B", 1), ("C", "D", 1)])
        diameter, avg = path_stats(s)
        assert diameter == 1
        assert avg == 1.0

    def test_no_edges_undefined(self):
        s = GraphSnapshot("none", frozenset({"A", "B"}), {})
        with pytest.raises(UndefinedMetricError):
            path_stats(s)

    def test_diameter_measured_on_giant_component(self):
        # the long path is the smaller component; its diameter must not leak
        s = GraphSnapshot.from_edge_list(
            "two",
            [(f"k{i}", f"k{j}", 1) for i in range(6) for j in range(i + 1, 6)]
            + [("q0", "q1", 1), ("q1", "q2", 1), ("q2", "q3", 1)],
        )
        diameter, _ = path_stats(s)
        assert diameter == 1

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_floyd_warshall_oracle(self, seed):
        s = random_snapshot(seed, max_n=45)
        if s.n_links == 0:
            return
        diameter, avg = path_stats(s)
        oracle_diameter, oracle_avg = floyd_warshall_path_stats(s)
        assert diameter == oracle_diameter
        assert avg == pytest.approx(oracle_avg, abs=1e-9)


class TestDegreeHistogram:
    def test_star(self, star5):
        assert degree_histogram(star5) == {5: 1, 1: 5}

    def test_k4(self, k4):
        assert degree_histogram(k4) == {3: 4}

    def test_empty(self):
        assert degree_histogram(GraphSnapshot("e", frozenset(), {})) == {}

    def test_includes_degree_zero_and_sums_to_n(self):
        s = GraphSnapshot.from_edge_list("z", [("A", "B", 1)], extra_actors=["C"])
        hist = degree_histogram(s)
        assert hist == {1: 2, 0: 1}
        for seed in range(6):
            r = random_snapshot(seed)
            assert sum(degree_histogram(r).values()) == r.n_actors


class TestAssortativity:
    def test_star_is_minus_one(self):
        for n in (3, 5, 9):
            assert assortativity(star(n)) == pytest.approx(-1.0, abs=1e-12)

    def test_regular_graph_undefined_marker(self, k4):
        assert assortativity(k4) is None

    def test_p4_matches_direct_summation_oracle(self, p4):
        xs, ys = [], []
        for a, b in p4.edges:
            xs += [p4.degree(a), p4.degree(b)]
            ys += [p4.degree(b), p4.degree(a)]
        expected = float(np.corrcoef(xs, ys)[0, 1])
        assert assortativity(p4) == pytest.approx(expected, abs=1e-12)
        assert assortativity(p4) == pytest.approx(-0.5, abs=1e-12)

    def test_invariant_under_relabeling(self):
        for seed in range(6):
            s = random_snapshot(seed, max_n=25)
            if s.n_links == 0:
                continue
            mapping = {v: f"zz-{hash(v) % 997}-{v[::-1]}" for v in s.actors}
            relabeled = GraphSnapshot.from_edge_list(
                "relab",
                [(mapping[a], mapping[b], w) for (a, b), w in s.edges.items()],
                extra_actors=[mapping[v] for v in s.actors],
            )
            original = assortativity(s)
            if original is None:
                assert assortativity(relabeled) is None
            else:
                assert assortativity(relabeled) == original

    def test_no_edges_raises(self):
        with pytest.raises(UndefinedMetricError):
            assortativity(GraphSnapshot("e", frozenset({"A", "B"}), {}))


class TestNeighborDegree:
    def test_star_leaf(self, star5):
        assert avg_neighbor_degree(star5, "leaf0") == 5.0

    def test_star_center(self, star5):
        assert avg_neighbor_degree(star5, "hub") == 1.0

    def test_k4(self, k4):
        assert avg_neighbor_degree(k4, "v2") == 3.0

    def test_isolated_undefined(self):
        s = GraphSnapshot.from_edge_list("i", [("A", "B", 1)], extra_actors=["C"])
        with pytest.raises(UndefinedMetricError):
            avg_neighbor_degree(s, "C")

    def test_network_mean_excludes_isolated(self):
        s = GraphSnapshot.from_edge_list("i", [("A", "B", 1)], extra_actors=["C"])
        assert avg_neighbor_degree_mean(s) == 1.0


class TestBetweenness:
    def test_p3_middle(self):
        p3 = path_graph(3, "P3")
        raw = betweenness(p3)
        norm = betweenness(p3, normalized=True)
        assert raw["p1"] == 1.0
        assert norm["p1"] == 1.0
        assert raw["p0"] == raw["p2"] == 0.0

    def test_star_center_counts_all_pairs(self, star5):
        assert betweenness(star5)["hub"] == 10.0
        assert betweenness(star5, normalized=True)["hub"] == 1.0

    def test_complete_graph_no_intermediaries(self, k4):
        assert set(betweenness(k4).values()) == {0.0}

    def test_isolated_scores_zero(self):
        s = GraphSnapshot.from_edge_list("i", [("A", "B", 1)], extra_actors=["Z"])
        assert betweenness(s)["Z"] == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_pair_combination_oracle(self, seed):
        s = random_snapshot(seed, max_n=25)
        result = betweenness(s)
        expected = betweenness_brute(s)
        for v in s.actors:
            assert result[v] == pytest.approx(expected[v], abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_trees_match_component_product_oracle(self, seed):
        rng = random.Random(seed)
        edges = [(f"t{i}", f"t{rng.randrange(i)}", 1) for i in range(1, rng.randint(5, 40))]
        tree = GraphSnapshot.from_edge_list("tree", edges)
        result = betweenness(tree)
        expected = tree_betweenness_brute(tree)
        for v in tree.actors:
            assert result[v] == pytest.approx(expected[v], abs=1e-9)

    def test_total_equals_excess_path_length_on_trees(self):
        rng = random.Random(99)
        edges = [(f"t{i}", f"t{rng.randrange(i)}", 1) for i in range(1, 30)]
        tree = GraphSnapshot.from_edge_list("tree", edges)
        _, avg = path_stats(tree)
        n = tree.n_actors
        pair_count = n * (n - 1) / 2
        # unique geodesics: sum of betweenness = sum over pairs of (d - 1)
        assert sum(betweenness(tree).values()) == pytest.approx(
            avg * pair_count - pair_count, abs=1e-6
        )


class TestCloseness:
    def test_p3_values(self):
        p3 = path_graph(3, "P3")
        values = closeness(p3)
        assert values["p1"] == 1.0
        assert values["p0"] == pytest.approx(2 / 3)

    def test_component_scaling_on_fragmented_graph(self):
        s = GraphSnapshot.from_edge_list("f", [("A", "B", 1)], extra_actors=["C"])
        values = closeness(s)
        assert values["A"] == pytest.approx(0.5)
        assert values["C"] == 0.0


class TestCentralization:
    def test_star_degree_is_one(self):
        for n in (4, 6, 10):
            s = star(n - 1)
            degrees = [float(s.degree(v)) for v in sorted(s.actors)]
            assert centralization(degrees, "degree", n) == pytest.approx(1.0)

    def test_regular_graph_is_zero(self, k4):
        degrees = [float(k4.degree(v)) for v in sorted(k4.actors)]
        assert centralization(degrees, "degree", 4) == 0.0

    def test_p4_hand_value(self, p4):
        degrees = [float(p4.degree(v)) for v in sorted(p4.actors)]
        assert centralization(degrees, "degree", 4) == pytest.approx(1 / 3)

    def test_star_betweenness_and_closeness_are_one(self):
        s = star(6)
        n = s.n_actors
        order = sorted(s.actors)
        btw = betweenness(s, normalized=True)
        assert centralization([btw[v] for v in order], "betweenness", n) == pytest.approx(1.0)
        close = closeness(s)
        assert centralization([close[v] for v in order], "closeness", n) == pytest.approx(1.0)

    def test_small_n_undefined(self):
        with pytest.raises(UndefinedMetricError):
            centralization([1.0, 2.0], "degree", 2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            centralization([1.0, 1.0, 1.0], "pagerank", 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            centralization([1.0, 1.0], "degree", 3)


class TestMetricsRow:
    def test_k4_row(self, k4):
        row = metrics_row(k4)
        assert (row.n_actors, row.n_links, row.sum_links) == (4, 6, 6)
        assert row.density_simple == 1.0
        assert row.clustering == 1.0
        assert row.diameter == 1
        assert row.avg_distance == 1.0
        assert row.assortativity is None  # regular graph
        assert row.centralization_degree == 0.0

    def test_weighted_density_58_153(self):
        # a path over 58 actors with extra repeat weight to reach W=153
        edges = [(f"n{i:02d}", f"n{i + 1:02d}", 1) for i in range(57)]
        edges[0] = ("n00", "n01", 1 + 96)
        s = GraphSnapshot.from_edge_list("t", edges)
        assert (s.n_actors, s.sum_links) == (58, 153)
        row = metrics_row(s)
        assert 100 * row.density_weighted == pytest.approx(9.26, abs=0.005)

    def test_edgeless_row_uses_undefined_markers(self):
        s = GraphSnapshot("iso", frozenset({"A", "B", "C"}), {})
        row = metrics_row(s)
        assert row.clustering is None
        assert row.diameter is None
        assert row.avg_distance is None
        assert row.assortativity is None
        assert row.avg_neighbor_degree is None
        assert row.density_simple == 0.0
        assert row.avg_strength == 0.0

    def test_single_actor_rejected(self):
        with pytest.raises(UndefinedMetricError):
            metrics_row(GraphSnapshot("one", frozenset({"A"}), {}))

    def test_row_is_order_independent(self):
        rng = random.Random(5)
        evs = [
            InteractionEvent(rng.randint(0, 40), f"x{rng.randint(0, 20)}", f"y{rng.randint(0, 20)}")
            for _ in range(80)
        ]
        (a,) = build_cumulative_snapshots(evs, [40], ["p"])
        shuffled = evs[:]
        rng.shuffle(shuffled)
        (b,) = build_cumulative_snapshots(shuffled, [40], ["p"])
        assert metrics_row(a) == metrics_row(b)
