"""The one all-sources pass: dense kernel against the pure-Python reference,
the sigma precision guard, and the per-snapshot kernel choice."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete, path_graph, star
from netevolve import GraphSnapshot, betweenness, closeness, giant_component, path_stats
from netevolve.generators import barabasi_albert
from netevolve.graph_core import _giant_and_depth, _indexed
from netevolve.metrics import _all_sources, _dense_pass, _reference_pass, _use_dense


def _adjacency(s):
    return _indexed(s)[1]


def _assert_agree(dense, reference):
    scores, *integers = dense
    ref_scores, *ref_integers = reference
    assert integers == ref_integers
    assert len(scores) == len(ref_scores)
    for got, want in zip(scores, ref_scores):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def _tree(n, picks):
    return [(f"t{i:02d}", f"t{picks[i - 1] % i:02d}", 1) for i in range(1, n)]


@st.composite
def graphs(draw):
    """Random graphs of every shape the metrics meet, with isolated actors."""
    kind = draw(st.sampled_from(["random", "tree", "star", "complete", "path"]))
    n = draw(st.integers(min_value=2, max_value=30))
    if kind == "random":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True))
        edges = [(f"r{i:02d}", f"r{j:02d}", 1) for i, j in chosen]
    elif kind == "tree":
        picks = draw(st.lists(st.integers(0, 10**6), min_size=n - 1, max_size=n - 1))
        edges = _tree(n, picks)
    else:
        shape = {"star": lambda: star(n - 1), "complete": lambda: complete(n)}
        s = shape.get(kind, lambda: path_graph(n))()
        edges = [(a, b, w) for (a, b), w in s.edges.items()]
    isolated = [f"z{i}" for i in range(draw(st.integers(0, 4)))]
    return GraphSnapshot.from_edge_list(kind, edges, extra_actors=isolated)


class TestDenseKernel:
    @settings(max_examples=150, deadline=None)
    @given(graphs(), st.sampled_from([1, 3, 7, 64]))
    def test_agrees_with_reference(self, s, batch):
        adj = _adjacency(s)
        _assert_agree(_dense_pass(adj, batch), _reference_pass(adj))
        paths = _all_sources(s)
        assert {paths.order[i] for i in paths.giant} == giant_component(s).actors

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_on_ba_graphs(self, seed):
        adj = _adjacency(barabasi_albert(150, 2, seed))
        _assert_agree(_dense_pass(adj), _reference_pass(adj))

    def test_isolated_actors_only(self):
        adj = [[] for _ in range(5)]
        assert _dense_pass(adj) == _reference_pass(adj)


def _layered(layers=23, width=6):
    """Consecutive layers fully joined: layer-0 to last-layer pairs have
    width**(layers - 2) shortest paths."""
    edges = [
        (f"L{k:02d}n{i}", f"L{k + 1:02d}n{j}", 1)
        for k in range(layers - 1)
        for i in range(width)
        for j in range(width)
    ]
    return GraphSnapshot.from_edge_list("layered", edges)


class TestSigmaGuard:
    def test_layered_graph_is_sent_to_dense_kernel(self):
        s = _layered()
        adj = _adjacency(s)
        _, depth = _giant_and_depth(adj)
        assert depth == 22
        assert 6**21 > 2**53
        assert _use_dense(len(adj), 2 * s.n_links, depth)

    def test_overflowing_path_counts_fall_back_to_reference(self):
        s = _layered()
        adj = _adjacency(s)
        assert _dense_pass(adj) is None
        paths = _all_sources(s)
        assert paths.kernel == "python"
        assert (paths.betweenness, paths.reach, paths.dist_sum, paths.ecc) == _reference_pass(adj)
        assert path_stats(s)[0] == 22

    def test_counts_below_the_limit_stay_dense(self):
        s = _layered(layers=21)  # at most 6**19 < 2**53 paths
        assert _all_sources(s).kernel == "dense"


class TestKernelChoice:
    def test_path_goes_to_python(self):
        assert _all_sources(path_graph(200)).kernel == "python"

    def test_ba_graph_goes_dense(self):
        assert _all_sources(barabasi_albert(200, 3, 1)).kernel == "dense"

    def test_small_graphs_stay_in_python(self):
        assert _all_sources(barabasi_albert(40, 3, 1)).kernel == "python"

    def test_public_views_match_reference_on_dense_graphs(self):
        s = barabasi_albert(120, 3, 5)
        order, adj = _indexed(s)
        scores, reach, dist_sum, _ = _reference_pass(adj)
        btw = betweenness(s)
        close = closeness(s)
        n = len(order)
        for i, v in enumerate(order):
            assert btw[v] == pytest.approx(scores[i] / 2.0, rel=1e-12)
            assert close[v] == (reach[i] - 1) / (n - 1) * ((reach[i] - 1) / dist_sum[i])
