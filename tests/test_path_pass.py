"""The one all-sources pass: the numpy kernel against the pure-Python
reference, its bitset levels around isolated actors and word boundaries,
the sigma precision guard, the closed-twin quotient and the per-snapshot
kernel choice; and every fractional measure of a snapshot against an exact
rational oracle, through both kernels where it reads them.

In test names, `dense` is the batched numpy kernel: it keeps a batch of up
to 64 sources as the bits of one word per actor, and its path counts and
dependencies as a dense N*64 array of (actor, source) slots. The kernel
takes no options, so tests patch its module values `_BATCH` to run other
batches and `_NUMPY_MIN_WORK` to send a snapshot's pass to either kernel.

The classes marked `long` hold the exact oracles, the betweenness sum on
large team graphs and the property test of the numpy kernel against the
reference; each `@settings` states its two hypothesis counts, tier-1 and
`LONG_TESTS=1` (see conftest.py).
"""

import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assortativity_regression, complete, examples, path_graph, run_python, sample_argv, star
from netevolve import (
    GraphSnapshot,
    UndefinedMetricError,
    assortativity,
    avg_clustering,
    avg_neighbor_degree,
    avg_neighbor_degree_mean,
    betweenness,
    cli,
    closeness,
    giant_component,
    metrics,
    path_stats,
    transitivity,
)
from netevolve.generators import barabasi_albert, erdos_renyi, watts_strogatz
from netevolve.graph_core import _giant
from netevolve.metrics import (
    _all_sources,
    _betweenness,
    _closeness,
    _frontier_pass,
    _path_stats,
    _PathPass,
    _reference_pass,
    centralization,
)
from oracles import (
    assortativity_exact,
    brandes_exact,
    centralization_betweenness_exact,
    centralization_closeness_exact,
    closeness_exact,
    clustering_exact,
    mean_distance_exact,
    neighbor_degree_exact,
)


def _csr(s):
    return s._indptr, s._indices


def _assert_agree(fast, reference):
    scores, *integers = fast
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


@st.composite
def teams(draw, most=7):
    """Up to `most` teams of one to six actors, each a clique, so team-mates
    are closed twins until a link sets one apart. Some links join one actor
    to every member of a team, which keeps that team's twins; others join
    two actors. With isolated actors."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=most))
    team = [[f"t{j:02d}m{k}" for k in range(size)] for j, size in enumerate(sizes)]
    actors = [v for members in team for v in members]
    edges = [(a, b, 1) for members in team for a, b in combinations(members, 2)]
    actor, whole = st.sampled_from(actors), st.integers(0, len(team) - 1)
    for a, j in draw(st.lists(st.tuples(actor, whole), max_size=len(team) + 1)):
        edges += [(a, b, 1) for b in team[j] if b != a]
    pairs = draw(st.lists(st.tuples(actor, actor), max_size=len(team) // 2 + 1))
    edges += [(a, b, 1) for a, b in pairs if a != b]
    isolated = [f"z{i}" for i in range(draw(st.integers(0, 2)))]
    return GraphSnapshot.from_edge_list("teams", edges, extra_actors=actors + isolated)


def _twin_free(s):
    """Whether no two actors of `s` have the same closed neighbourhood."""
    closed = {frozenset(row).union((v,)) for v, row in enumerate(s._rows())}
    return len(closed) == s.n_actors


def _quotient_pass(s):
    """`_all_sources(s)` through the Python kernel, which runs on the
    closed-twin quotient of `s`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_NUMPY_MIN_WORK", math.inf)
        paths = _all_sources(s)
    assert paths.kernel == "python"
    return paths


def _frontier_at(s, batch):
    """The numpy kernel on `s` with `batch` sources at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_BATCH", batch)
        return _frontier_pass(*_csr(s))


def _linked_except(n, isolated):
    """A path through actors a000 to a{n-1} that skips the ids in
    `isolated`, which stay actors without links."""
    linked = [f"a{i:03d}" for i in range(n) if i not in isolated]
    edges = [(a, b, 1) for a, b in zip(linked, linked[1:])]
    return GraphSnapshot.from_edge_list("gaps", edges, extra_actors=[f"a{i:03d}" for i in range(n)])


@pytest.mark.long
class TestDenseKernel:
    @settings(max_examples=examples(150, 5000), deadline=None)
    @given(graphs(), st.sampled_from([1, 3, 7, 64]))
    def test_agrees_with_reference(self, s, batch):
        _assert_agree(_frontier_at(s, batch), _reference_pass(s._rows()))
        paths = _all_sources(s)
        order = s.sorted_actors()
        assert {order[i] for i in paths.giant} == giant_component(s).actors

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_on_ba_graphs(self, seed):
        s = barabasi_albert(150, 2, seed)
        _assert_agree(_frontier_pass(*_csr(s)), _reference_pass(s._rows()))

    def test_isolated_actors_only(self):
        for n in (1, 5, 64, 65):
            s = GraphSnapshot.from_edge_list("isolated", [], extra_actors=[f"z{i}" for i in range(n)])
            assert _frontier_pass(*_csr(s)) == _reference_pass(s._rows())

    @pytest.mark.parametrize("batch", [1, 3, 7, 64])
    def test_isolated_actors_between_and_after_rows(self, batch):
        # an isolated actor's row is empty, so reduceat reads the next row's
        # first arc there, or the one trailing 0 past the last arc when it
        # sorts last; a kernel that clipped those reads to the last arc
        # dropped that arc, and gave a reach of 5 where the reference has 47
        s = erdos_renyi(120, 0.01, 0)
        degrees = [len(row) for row in s._rows()]
        assert degrees[0] == degrees[-1] == 0 and degrees[1] and degrees[-2]
        result = _frontier_at(s, batch)
        assert result == _reference_pass(s._rows())
        assert max(result[1]) == 47
        for isolated in ({0, 1, 2, 64, 65}, {63, 64, 128, 129, 130}):
            gaps = _linked_except(131, isolated)
            assert _frontier_at(gaps, batch) == _reference_pass(gaps._rows())

    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    @pytest.mark.parametrize("batch", [1, 3, 7, 64])
    def test_sizes_around_the_word(self, n, batch):
        # a batch of 64 sources fills one word per actor; 65 and 129 actors
        # leave a last batch of one source (one actor alone is linkless, above)
        for s in (erdos_renyi(n, 4 / n, n), path_graph(n)):
            _assert_agree(_frontier_at(s, batch), _reference_pass(s._rows()))

    def test_peak_memory_stays_bounded(self):
        # tracemalloc peak on BA(800, 3): 8.19 MB when each level expanded
        # all of its arcs at once, 4.67 MB in runs, 4.46 MB since a pull
        # lists the unvisited slots with one scan, 4.31 MB since path counts
        # and dependencies are kept per slot, 4.05 MB since each level finds
        # its DAG edges from the sources' bits (Python 3.11, numpy 2.4)
        s = barabasi_albert(800, 3, 1)
        _frontier_pass(*_csr(s))  # numpy is imported outside the trace
        tracemalloc.start()
        try:
            _frontier_pass(*_csr(s))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6


# Worst relative errors against exact Brandes over 6,000 hypothesis examples
# of `graphs`, on Python 3.11 and numpy 2.4 (x86-64), the larger of the
# reference pass and the numpy pass at batches 1, 3, 7 and 64: 2.90e-16 for
# the raw scores (numpy, batches 7 and 64) and 6.05e-16 for
# centralization_betweenness (numpy, batch 7). An exactly zero value came
# out exactly zero every time. The bounds are ten times these, rounded up.
# The Python pass on the closed-twin quotient, over 3,000 random graphs
# like `teams` (2,918 of them with twins), gave at worst 3.9e-16 and
# 4.1e-16, inside the same bounds.
BETWEENNESS_WORST = 2.9e-16
CENTRALIZATION_WORST = 6.1e-16


def _centralization_betweenness(scores):
    """centralization_betweenness as metrics_row computes it from raw scores."""
    n = len(scores)
    paths = _PathPass(scores, [], [], [], [], "test")
    return centralization(_betweenness(paths, normalized=True), "betweenness", n)


def _assert_near_exact(got, exact, worst):
    if exact == 0:
        assert got == 0.0
    else:
        assert abs(Fraction(got) - exact) <= 10 * worst * abs(exact)


@pytest.mark.long
class TestExactBrandes:
    """Both kernels against Brandes in exact rational arithmetic."""

    @settings(max_examples=examples(200, 5000), deadline=None)
    @given(st.one_of(graphs(), teams()))
    def test_kernels_match_exact_scores(self, s):
        exact = brandes_exact(s)
        reference = _reference_pass(s._rows())
        kernels = [reference[0]]
        kernels += [_frontier_at(s, batch)[0] for batch in (1, 3, 7, 64)]
        paths = _quotient_pass(s)
        assert [paths.reach, paths.dist_sum, paths.ecc] == list(reference[1:])
        kernels.append(paths.betweenness)
        for scores in kernels:
            for got, want in zip(scores, exact, strict=True):
                _assert_near_exact(got, want, BETWEENNESS_WORST)
            if len(exact) >= 3:
                _assert_near_exact(
                    _centralization_betweenness(scores),
                    centralization_betweenness_exact(exact),
                    CENTRALIZATION_WORST,
                )

    def test_star_centre_carries_every_pair(self):
        s = star(6)
        exact = brandes_exact(s)
        assert exact[s.sorted_actors().index("hub")] == 2 * 15
        assert centralization_betweenness_exact(exact) == 1


# Worst relative gap between math.fsum of the raw scores and their exact sum
# over 19 graphs of 300 to 800 actors (BA, WS and ER, the cases below among
# them), on Python 3.11 and numpy 2.4 (x86-64): 0.0 for the numpy kernel and
# 2.77e-16 for the reference pass (WS(600, 6, 0.2, 1)). The bound is ten
# times this, rounded up. The Python pass on the quotient, over 600 random
# graphs like `teams(most=80)`, gave at worst 1.7e-16.
BETWEENNESS_SUM_WORST = 2.8e-16


@pytest.mark.long
class TestBetweennessSum:
    """A shortest path of d steps passes d - 1 inner actors, so the raw
    scores sum to d - 1 over every ordered pair of actors joined by a path:
    Σ betweenness = Σ dist_sum − Σ (reach − 1), an exact integer of the
    pass's own counts. This checks both kernels on graphs beyond the reach
    of the exact oracles."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: barabasi_albert(800, 3, 7),
            lambda: barabasi_albert(300, 2, 1),
            lambda: watts_strogatz(500, 4, 0.1, 3),
            lambda: watts_strogatz(600, 6, 0.2, 1),
            lambda: erdos_renyi(400, 0.004, 5),  # disconnected
        ],
        ids=["ba800", "ba300", "ws500", "ws600", "er400"],
    )
    def test_scores_sum_to_the_inner_actor_count(self, build):
        s = build()
        for scores, reach, dist_sum, _ in (_reference_pass(s._rows()), _frontier_pass(*_csr(s))):
            self._assert_sum(scores, reach, dist_sum)

    @settings(max_examples=examples(30, 5000), deadline=None)
    @given(teams(most=80))
    def test_quotient_scores_sum_to_the_inner_actor_count(self, s):
        # up to 80 teams of six: 480 actors, passed as a quotient of at most
        # a few hundred classes, and through the numpy kernel uncompressed
        paths = _quotient_pass(s)
        self._assert_sum(paths.betweenness, paths.reach, paths.dist_sum)
        self._assert_sum(*_frontier_pass(*_csr(s))[:3])

    @staticmethod
    def _assert_sum(scores, reach, dist_sum):
        exact = sum(dist_sum) - sum(r - 1 for r in reach)
        assert abs(math.fsum(scores) - exact) <= 10 * BETWEENNESS_SUM_WORST * exact


# Worst relative errors against the exact oracles over 12,000 hypothesis
# examples of `graphs` (two runs of 6,000), on Python 3.11 and numpy 2.4
# (x86-64). Path-pass measures were taken through the reference pass and the
# numpy pass at batches 1, 3, 7 and 64, which agreed to the bit: reach and
# distance sums are integers. An exactly zero value came out exactly zero
# every time. Each worst is rounded up at two digits, and each bound is ten
# times its worst.
EXACT_WORST = {
    "clustering": 1.9e-16,
    "transitivity": 9.9e-17,
    "closeness": 2.5e-16,
    "centralization_closeness": 7.6e-16,
    "avg_distance": 1.1e-16,
    "neighbor_degree": 9.2e-17,
    "neighbor_degree_mean": 1.9e-16,
}


def _assert_exact_or_undefined(measure, s, exact, worst):
    """`measure(s)` is near `exact`, or raises UndefinedMetricError where
    the oracle gives None."""
    if exact is None:
        with pytest.raises(UndefinedMetricError):
            measure(s)
    else:
        _assert_near_exact(measure(s), exact, worst)


def _path_passes(s):
    """The all-sources pass of `s` from the reference kernel and from the
    numpy kernel at several batch sizes, and from the Python kernel on the
    closed-twin quotient of `s`."""
    giant = _giant(s._rows())
    results = [("python", _reference_pass(s._rows()))]
    results += [(f"numpy{b}", _frontier_at(s, b)) for b in (1, 3, 7, 64)]
    passes = [_PathPass(*result, giant, kernel) for kernel, result in results]
    return [*passes, _quotient_pass(s)]


@pytest.mark.long
class TestExactMeasures:
    """Clustering, closeness, distance, neighbour degree and assortativity
    against exact rational arithmetic."""

    @settings(max_examples=examples(200, 5000), deadline=None)
    @given(st.one_of(graphs(), teams()))
    @example(path_graph(4))
    @example(star(5))
    @example(complete(4))
    @example(assortativity_regression())
    def test_measures_match_exact_values(self, s):
        mean, ratio = clustering_exact(s)
        _assert_exact_or_undefined(avg_clustering, s, mean, EXACT_WORST["clustering"])
        _assert_exact_or_undefined(transitivity, s, ratio, EXACT_WORST["transitivity"])
        per_actor, neighbor_mean = neighbor_degree_exact(s)
        for v, want in per_actor.items():
            _assert_near_exact(avg_neighbor_degree(s, v), want, EXACT_WORST["neighbor_degree"])
        _assert_exact_or_undefined(
            avg_neighbor_degree_mean, s, neighbor_mean, EXACT_WORST["neighbor_degree_mean"]
        )
        if s.n_links == 0:
            with pytest.raises(UndefinedMetricError):
                assortativity(s)
        else:
            r = assortativity_exact(s)
            assert assortativity(s) == (None if r is None else float(r))
        wf = closeness_exact(s)
        distance = mean_distance_exact(s)
        n = s.n_actors
        for paths in _path_passes(s):
            scores = _closeness(paths)
            for got, want in zip(scores, wf, strict=True):
                _assert_near_exact(got, want, EXACT_WORST["closeness"])
            if n >= 3:
                _assert_near_exact(
                    centralization(scores, "closeness", n),
                    centralization_closeness_exact(wf),
                    EXACT_WORST["centralization_closeness"],
                )
            if distance is not None:
                _assert_near_exact(_path_stats(paths)[1], distance, EXACT_WORST["avg_distance"])

    def test_star_values(self):
        s = star(4)  # hub plus four leaves
        assert clustering_exact(s) == (0, 0)  # six open triads at the hub
        wf = closeness_exact(s)
        hub = s.sorted_actors().index("hub")
        assert wf[hub] == 1
        assert centralization_closeness_exact(wf) == 1
        # 8 ordered hub-leaf pairs at 1 hop, 12 ordered leaf pairs at 2
        assert mean_distance_exact(s) == Fraction(8 * 1 + 12 * 2, 20)
        leaves = {f"leaf{i}": 4 for i in range(4)}
        assert neighbor_degree_exact(s) == ({**leaves, "hub": 1}, Fraction(4 * 4 + 1, 5))


def _layered(layers=23, width=6, ends="L"):
    """Consecutive layers fully joined: layer-0 to last-layer pairs have
    width**(layers - 2) shortest paths. The two end layers' labels start
    with `ends`, the others' with L."""

    def label(k, i):
        return f"{ends if k in (0, layers - 1) else 'L'}{k:02d}n{i}"

    edges = [
        (label(k, i), label(k + 1, j), 1)
        for k in range(layers - 1)
        for i in range(width)
        for j in range(width)
    ]
    return GraphSnapshot.from_edge_list("layered", edges)


class TestSigmaGuard:
    def test_layered_graph_is_sent_to_dense_kernel(self):
        s = _layered()
        assert path_stats(s)[0] == 22
        assert 6**21 > 2**53
        assert s.n_actors * s.n_links >= metrics._NUMPY_MIN_WORK

    def test_overflowing_path_counts_fall_back_to_reference(self):
        s = _layered()
        assert _frontier_pass(*_csr(s)) is None
        paths = _all_sources(s)
        assert paths.kernel == "python"
        reference = _reference_pass(s._rows())
        assert (paths.betweenness, paths.reach, paths.dist_sum, paths.ecc) == reference
        assert path_stats(s)[0] == 22

    def test_only_a_later_batch_overflowing_falls_back_to_reference(self):
        # only end-layer sources reach 2**53 paths, and their labels sort last
        s = _layered(ends="Z")
        order = s.sorted_actors()
        assert all(v.startswith("L") for v in order[: metrics._BATCH])
        assert all(v.startswith("Z") for v in order[-2 * 6 :])
        assert _frontier_pass(*_csr(s)) is None
        paths = _all_sources(s)
        assert paths.kernel == "python"
        reference = _reference_pass(s._rows())
        assert (paths.betweenness, paths.reach, paths.dist_sum, paths.ecc) == reference

    def test_a_count_that_rounds_down_to_the_limit_falls_back(self):
        # 53 diamonds in series and a 106-hop path beside them join d00 to
        # d53: 265 actors and 318 links (N*L = 84,270, twin-free), and
        # 2**53 + 1 shortest paths between the ends, which float64 rounds
        # down to exactly 2**53; the guard must still see it
        edges = [(f"d{i:02d}", f"d{i:02d}{x}", 1) for i in range(53) for x in "ab"]
        edges += [(f"d{i:02d}{x}", f"d{i + 1:02d}", 1) for i in range(53) for x in "ab"]
        path = ["d00", *(f"p{k:03d}" for k in range(105)), "d53"]
        edges += [(a, b, 1) for a, b in zip(path, path[1:])]
        s = GraphSnapshot.from_edge_list("diamonds", edges)
        assert (s.n_actors, s.n_links) == (265, 318)
        assert _twin_free(s)
        order, rows = s.sorted_actors(), s._rows()
        count = {order.index("d00"): 1}  # shortest paths from d00, level by level
        level = list(count)
        while level:
            found = Counter()
            for v in level:
                found.update({x: count[v] for x in rows[v] if x not in count})
            count.update(found)
            level = list(found)
        assert count[order.index("d53")] == 2**53 + 1
        assert float(2**53 + 1) == 2.0**53
        assert _frontier_pass(*_csr(s)) is None
        paths = _all_sources(s)
        assert paths.kernel == "python"
        reference = _reference_pass(s._rows())
        assert (paths.betweenness, paths.reach, paths.dist_sum, paths.ecc) == reference

    def test_counts_below_the_limit_stay_dense(self):
        s = _layered(layers=21)  # at most 6**19 < 2**53 paths
        assert _all_sources(s).kernel == "numpy"

    def test_twins_past_the_limit_fall_back_to_their_quotient(self):
        # a chain of 230 two-actor cliques, each actor joined to both actors
        # of the next: 460 actors and 1146 links (N*L = 527,160), whose
        # quotient is a 230-vertex path (N*L = 52,670). So the numpy kernel
        # runs, and 2**(k - 1) paths lead from one clique to the k-th next
        edges = [(f"c{i:03d}a", f"c{i:03d}b", 1) for i in range(230)]
        edges += [(f"c{i:03d}{x}", f"c{i + 1:03d}{y}", 1) for i in range(229) for x in "ab" for y in "ab"]
        s = GraphSnapshot.from_edge_list("twin-chain", edges)
        assert (s.n_actors, s.n_links) == (460, 1146)
        assert _frontier_pass(*_csr(s)) is None
        paths = _all_sources(s)
        assert paths.kernel == "python"
        reference = _reference_pass(s._rows())
        assert (paths.betweenness, paths.reach, paths.dist_sum, paths.ecc) == reference


class TestKernelChoice:
    """A snapshot whose closed-twin quotient has N*L at or above 50,000
    takes the numpy kernel on its own CSR; any other passes the quotient in
    Python."""

    def test_long_path_goes_to_numpy(self):
        assert _all_sources(path_graph(250)).kernel == "numpy"

    def test_ba_graph_goes_dense(self):
        assert _all_sources(barabasi_albert(200, 3, 1)).kernel == "numpy"

    def test_small_graphs_stay_in_python(self):
        assert _all_sources(barabasi_albert(40, 3, 1)).kernel == "python"
        assert _all_sources(path_graph(224)).kernel == "python"  # N*L = 49,952
        assert _all_sources(path_graph(225)).kernel == "numpy"  # N*L = 50,400

    def test_linkless_graphs_stay_in_python(self):
        s = GraphSnapshot.from_edge_list("empty", [], extra_actors=[f"z{i}" for i in range(100)])
        assert _all_sources(s).kernel == "python"

    def test_a_clique_passes_one_vertex_in_python(self):
        # N*L = 7,781,250 on the clique, 0 on its one-vertex quotient
        paths = _all_sources(complete(250))
        assert paths.kernel == "python"
        assert paths.betweenness == [0.0] * 250
        assert (paths.reach, paths.dist_sum, paths.ecc) == ([250] * 250, [249] * 250, [1] * 250)

    def test_twins_with_a_large_quotient_go_to_numpy_uncompressed(self):
        # a path of 260 actors and one actor joined to both ends of its first
        # link: that actor and p0 are twins, and the quotient is the path,
        # N*L = 67,340
        path = path_graph(260)
        edges = [(a, b, 1) for a, b in path.edges] + [("x", "p0", 1), ("x", "p1", 1)]
        s = GraphSnapshot.from_edge_list("path-with-twins", edges)
        assert not _twin_free(s)
        paths = _all_sources(s)
        assert paths.kernel == "numpy"
        assert (paths.betweenness, paths.reach, paths.dist_sum, paths.ecc) == _frontier_pass(*_csr(s))

    def test_public_views_match_reference_on_dense_graphs(self):
        s = barabasi_albert(150, 3, 5)
        assert _all_sources(s).kernel == "numpy"
        order = s.sorted_actors()
        scores, reach, dist_sum, _ = _reference_pass(s._rows())
        btw = betweenness(s)
        close = closeness(s)
        n = len(order)
        for i, v in enumerate(order):
            assert btw[v] == pytest.approx(scores[i] / 2.0, rel=1e-12)
            assert close[v] == (reach[i] - 1) / (n - 1) * ((reach[i] - 1) / dist_sum[i])


def test_analyze_runs_without_scipy(tmp_path):
    """`analyze` on a graph that takes the numpy kernel never imports scipy:
    with `sys.modules["scipy"] = None`, any attempt would raise ImportError."""
    data = tmp_path / "ba.csv"
    assert cli.main(["generate", "--model", "ba", "-n", "200", "-m", "3", "--seed", "2", "--out", str(data)]) == 0
    argv = ["analyze", "--input", str(data), "--out", str(tmp_path / "out.csv")]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from netevolve import cli\n"
        f"status = cli.main({argv!r})\n"
        "print(status, 'numpy' in sys.modules, [m for m in sys.modules if m.startswith('scipy.')])\n"
    )
    result = run_python(code)
    assert result.stdout == "0 True []\n", result.stderr
    assert (tmp_path / "out.csv").read_text().count("\n") == 2


def _digest(result):
    """A short digest of a pass's (scores, reach, dist_sum, ecc), which
    reads each score's exact bits."""
    scores, *rest = result
    text = repr(([x.hex() for x in scores], *map(list, rest)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _ba_period(cut):
    """The cumulative period of BA(800, 3, 7) up to actor `cut`, as the
    `ba_growth` benchmark cuts it."""
    edges = [(a, b, 1) for a, b in barabasi_albert(800, 3, 7).edges if b < f"n{cut:06d}"]
    return GraphSnapshot.from_edge_list(f"T{cut}", edges)


# Digests of the unweighted pure-Python Brandes pass (one loop per source
# that walks each actor's row, with no class sizes) on twin-free graphs.
TWIN_FREE_DIGESTS = {
    "ba300": (lambda: barabasi_albert(300, 2, 1), "631c67a0d5decd00"),
    "er200": (lambda: erdos_renyi(200, 0.03, 2), "f51bfac16c15d7ff"),
    "ws240": (lambda: watts_strogatz(240, 6, 0.2, 1), "27f708fb45dce2bb"),
    "ba800-period1": (lambda: _ba_period(100), "945759e62c6f0b1e"),
    "ba800-period2": (lambda: _ba_period(200), "45e410760f02cb8a"),
    "ba800-period3": (lambda: _ba_period(300), "ce204c2776776fcf"),
    "ba800-period4": (lambda: _ba_period(400), "7ec39951df42cff0"),
    "ba800-period5": (lambda: _ba_period(500), "f69e12112c50d8c7"),
    "ba800-period6": (lambda: _ba_period(600), "bff93c25f981e264"),
    "ba800-period7": (lambda: _ba_period(700), "c2e93bb71c94d5af"),
    "ba800-period8": (lambda: _ba_period(800), "edcd3c2fee2e6a5e"),
}


class TestTwinFreeUnchanged:
    """A snapshot with no closed twins is its own quotient, with sizes 1:
    the Python kernel gives the pinned bits of the unweighted pass, and the
    numpy kernel those of `_frontier_pass` on the snapshot's CSR arrays."""

    @pytest.mark.parametrize("name", list(TWIN_FREE_DIGESTS))
    def test_pass_is_the_uncompressed_kernel(self, name, monkeypatch):
        build, digest = TWIN_FREE_DIGESTS[name]
        s = build()
        assert _twin_free(s)
        monkeypatch.setattr(metrics, "_NUMPY_MIN_WORK", math.inf)
        python = _all_sources(s)
        monkeypatch.setattr(metrics, "_NUMPY_MIN_WORK", 0)
        dense = _all_sources(s)
        assert (python.kernel, dense.kernel) == ("python", "numpy")
        assert _digest((python.betweenness, python.reach, python.dist_sum, python.ecc)) == digest
        assert _digest(_reference_pass(s._rows())) == digest
        assert (dense.betweenness, dense.reach, dense.dist_sum, dense.ecc) == _frontier_pass(*_csr(s))


def test_small_analyze_never_imports_numpy(tmp_path):
    """A snapshot whose pass has N*L below 50,000 stays in Python, as all of
    these, with 63 actors, do: with `sys.modules["numpy"] = None`, any
    attempt to import numpy would raise ImportError."""
    data = tmp_path / "small.csv"
    assert cli.main(["generate", "--model", "ba", "-n", "63", "-m", "2", "--seed", "4", "--out", str(data)]) == 0
    argv = ["analyze", "--input", str(data), "--breakpoints", "40,200", "--format", "json"]
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from netevolve import cli\n"
        f"sys.exit(cli.main({argv!r}))\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert '"n_actors": 63' in result.stdout


def _team_corpus(seed, years=24, teams=36, papers=1200):
    """JSON Lines of papers by teams that start one after another over
    `years` years. A paper is some of one team's members, and one paper in
    twenty adds the first member of the next team."""
    rng = random.Random(seed)
    members = [[f"T{j:02d} {k}" for k in range(rng.randint(2, 7))] for j in range(teams)]
    lines = []
    for p in range(papers):
        year = rng.randrange(years)
        j = rng.randrange(1 + year * teams // years)
        authors = rng.sample(members[j], rng.randint(1, len(members[j])))
        if rng.random() < 0.05:
            authors.append(members[(j + 1) % teams][0])
        date = f"{2000 + year}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
        lines.append(json.dumps({"pub_id": f"P{p:05d}", "date": date, "authors": authors}))
    return "\n".join(lines) + "\n"


def test_paper_scale_runs_never_import_numpy(tmp_path):
    """The README's disaster command and a 24-year team corpus pass every
    period in Python: with `sys.modules["numpy"] = None`, any attempt to
    import numpy would raise ImportError. The corpus's last period has 168
    actors and 460 links, N*L = 77,280, and stays in Python only through
    its closed-twin quotient. Each run writes the bundle a run with numpy at
    hand writes."""
    corpus = tmp_path / "teams.jsonl"
    corpus.write_text(_team_corpus(24))
    calls = [
        ["analyze", *sample_argv("disaster"), "--format", "csv"],
        ["analyze", "--input", str(corpus), "--kind", "publications", "--yearly",
         "--format", "json"],
    ]
    blocked = [[*argv, "--out", str(tmp_path / f"blocked{i}")] for i, argv in enumerate(calls)]
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from netevolve import cli\n"
        f"print([cli.main(argv) for argv in {blocked!r}])\n"
    )
    result = run_python(code)
    assert result.stdout == "[0, 0]\n", result.stderr
    for i, argv in enumerate(calls):
        assert cli.main([*argv, "--out", str(tmp_path / f"normal{i}")]) == 0
        assert (tmp_path / f"blocked{i}").read_bytes() == (tmp_path / f"normal{i}").read_bytes()
