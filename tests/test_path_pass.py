"""The one all-sources pass: the numpy kernel against the pure-Python
reference, its push and pull steps, the sigma precision guard, and the
per-snapshot kernel choice; and every fractional measure of a snapshot
against an exact rational oracle, through both kernels where it reads them.

In test names, `dense` is the batched numpy kernel: it keeps each block of
64 sources as a dense b*N array of (source, actor) slots. The kernel takes
no options, so tests patch its module values `_BATCH`, `_pushes` and
`_BLOCK_ARCS` to run other batches, forced step directions and blocks.

`EXACT_ORACLE_EXAMPLES` sets the number of hypothesis examples each exact
oracle test draws (200 by default).
"""

import os
from fractions import Fraction
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assortativity_regression, complete, path_graph, star
from netevolve import (
    GraphSnapshot,
    UndefinedMetricError,
    assortativity,
    avg_clustering,
    avg_neighbor_degree,
    avg_neighbor_degree_mean,
    betweenness,
    closeness,
    giant_component,
    metrics,
    path_stats,
    transitivity,
)
from netevolve.generators import barabasi_albert
from netevolve.graph_core import InteractionEvent, _giant
from netevolve.ingest import write_edge_events_text
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


EXACT_EXAMPLES = int(os.environ.get("EXACT_ORACLE_EXAMPLES", "200"))


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


def _frontier_at(s, batch, pushes=None):
    """The numpy kernel on `s` with `batch` sources at a time and, when
    given, `pushes` in place of its step rule."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_BATCH", batch)
        if pushes is not None:
            mp.setattr(metrics, "_pushes", pushes)
        return _frontier_pass(*_csr(s))


def _steps(s):
    """Run the numpy kernel on `s` in one block with its own step rule; True
    for each push, False for each pull."""
    rule = metrics._pushes
    steps = []
    _frontier_at(s, len(s.actors), lambda f, u: steps.append(rule(f, u)) or steps[-1])
    return steps


class TestDenseKernel:
    @settings(max_examples=150, deadline=None)
    @given(graphs(), st.sampled_from([1, 3, 7, 64]))
    def test_agrees_with_reference(self, s, batch):
        _assert_agree(_frontier_at(s, batch), _reference_pass(s._rows()))
        paths = _all_sources(s)
        assert {paths.order[i] for i in paths.giant} == giant_component(s).actors

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_on_ba_graphs(self, seed):
        s = barabasi_albert(150, 2, seed)
        _assert_agree(_frontier_pass(*_csr(s)), _reference_pass(s._rows()))

    def test_isolated_actors_only(self):
        s = GraphSnapshot.from_edge_list("isolated", [], extra_actors=[f"z{i}" for i in range(5)])
        assert _frontier_pass(*_csr(s)) == _reference_pass(s._rows())

    @pytest.mark.parametrize("pushes", [True, False], ids=["push-only", "pull-only"])
    @settings(max_examples=60, deadline=None)
    @given(s=graphs(), batch=st.sampled_from([1, 3, 64]))
    def test_each_step_direction_alone_agrees(self, pushes, s, batch):
        result = _frontier_at(s, batch, lambda frontier_deg, unvisited_deg: pushes)
        _assert_agree(result, _reference_pass(s._rows()))

    def test_a_path_pushes_until_its_ends(self):
        # the frontier of a path has at most two slots per source, so only
        # the last levels, where fewer unvisited edges remain, pull
        steps = _steps(path_graph(200))
        assert steps.count(False) * 20 < steps.count(True)

    @pytest.mark.parametrize("s", [star(99), barabasi_albert(200, 3, 1)], ids=["star", "ba"])
    def test_hubs_make_the_last_level_pull(self, s):
        steps = _steps(s)
        assert steps[0] is True
        assert steps[-1] is False

    @settings(max_examples=100, deadline=None)
    @given(graphs(), st.sampled_from([1, 3, 64]))
    def test_expansion_blocks_leave_results_unchanged(self, s, batch):
        # every level keeps its DAG edges in edge order, however it is cut
        whole = _frontier_at(s, batch)
        for block in (1, 7):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(metrics, "_BLOCK_ARCS", block)
                assert _frontier_at(s, batch) == whole

    @pytest.mark.parametrize(
        "s, blocks",
        [(barabasi_albert(150, 2, 0), (1, 7)), (barabasi_albert(800, 3, 1), (97, 2**20))],
        ids=["ba150", "ba800"],
    )
    def test_blocks_split_wide_levels_alike(self, s, blocks, monkeypatch):
        # the widest levels of BA(800, 3) expand over 10**5 arcs, many default
        # blocks each; blocks of 1 and 7 arcs take too long there and run on
        # BA(150, 2)
        whole = _frontier_pass(*_csr(s))
        for block in blocks:
            monkeypatch.setattr(metrics, "_BLOCK_ARCS", block)
            assert _frontier_pass(*_csr(s)) == whole

    def test_peak_memory_stays_bounded(self):
        # tracemalloc peak on BA(800, 3): 8.19 MB when each level expanded
        # all of its arcs at once, 4.67 MB in runs, 4.46 MB since a pull
        # lists the unvisited slots with one scan (Python 3.11, numpy 2.4)
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
BETWEENNESS_WORST = 2.9e-16
CENTRALIZATION_WORST = 6.1e-16


def _centralization_betweenness(scores):
    """centralization_betweenness as metrics_row computes it from raw scores."""
    n = len(scores)
    paths = _PathPass([str(i) for i in range(n)], scores, [], [], [], [], "test")
    return centralization(list(_betweenness(paths, normalized=True).values()), "betweenness", n)


def _assert_near_exact(got, exact, worst):
    if exact == 0:
        assert got == 0.0
    else:
        assert abs(Fraction(got) - exact) <= 10 * worst * abs(exact)


class TestExactBrandes:
    """Both kernels against Brandes in exact rational arithmetic."""

    @settings(max_examples=EXACT_EXAMPLES, deadline=None)
    @given(graphs())
    def test_kernels_match_exact_scores(self, s):
        exact = brandes_exact(s)
        kernels = [_reference_pass(s._rows())[0]]
        kernels += [_frontier_at(s, batch)[0] for batch in (1, 3, 7, 64)]
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
    numpy kernel at several batch sizes."""
    giant = _giant(s._rows())
    results = [("python", _reference_pass(s._rows()))]
    results += [(f"numpy{b}", _frontier_at(s, b)) for b in (1, 3, 7, 64)]
    return [_PathPass(s.sorted_actors(), *result, giant, kernel) for kernel, result in results]


class TestExactMeasures:
    """Clustering, closeness, distance, neighbour degree and assortativity
    against exact rational arithmetic."""

    @settings(max_examples=EXACT_EXAMPLES, deadline=None)
    @given(graphs())
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
            scores = list(_closeness(paths).values())
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
        assert path_stats(s)[0] == 22
        assert 6**21 > 2**53
        assert s.n_actors >= metrics._NUMPY_MIN_ACTORS and s.n_links > 0

    def test_overflowing_path_counts_fall_back_to_reference(self):
        s = _layered()
        assert _frontier_pass(*_csr(s)) is None
        paths = _all_sources(s)
        assert paths.kernel == "python"
        reference = _reference_pass(s._rows())
        assert (paths.betweenness, paths.reach, paths.dist_sum, paths.ecc) == reference
        assert path_stats(s)[0] == 22

    def test_counts_below_the_limit_stay_dense(self):
        s = _layered(layers=21)  # at most 6**19 < 2**53 paths
        assert _all_sources(s).kernel == "numpy"


class TestKernelChoice:
    def test_long_path_goes_to_numpy(self):
        assert _all_sources(path_graph(200)).kernel == "numpy"

    def test_ba_graph_goes_dense(self):
        assert _all_sources(barabasi_albert(200, 3, 1)).kernel == "numpy"

    def test_small_graphs_stay_in_python(self):
        assert _all_sources(barabasi_albert(40, 3, 1)).kernel == "python"
        assert _all_sources(path_graph(63)).kernel == "python"
        assert _all_sources(path_graph(64)).kernel == "numpy"

    def test_linkless_graphs_stay_in_python(self):
        s = GraphSnapshot.from_edge_list("empty", [], extra_actors=[f"z{i}" for i in range(100)])
        assert _all_sources(s).kernel == "python"

    def test_public_views_match_reference_on_dense_graphs(self):
        s = barabasi_albert(120, 3, 5)
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
    s = barabasi_albert(200, 3, 2)
    events = [InteractionEvent(i, a, b, w) for i, ((a, b), w) in enumerate(sorted(s.edges.items()))]
    data = tmp_path / "ba.csv"
    data.write_text(write_edge_events_text(events))
    argv = ["analyze", "--input", str(data), "--out", str(tmp_path / "out.csv")]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from netevolve import cli\n"
        f"status = cli.main({argv!r})\n"
        "print(status, 'numpy' in sys.modules, [m for m in sys.modules if m.startswith('scipy.')])\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "0 True []\n"
    assert (tmp_path / "out.csv").read_text().count("\n") == 2


def test_small_analyze_never_imports_numpy(tmp_path):
    """Snapshots below 64 actors stay in Python: with `sys.modules["numpy"]
    = None`, any attempt to import numpy would raise ImportError."""
    s = barabasi_albert(63, 2, 4)
    events = [InteractionEvent(i, a, b, w) for i, ((a, b), w) in enumerate(s.edges.items())]
    data = tmp_path / "small.csv"
    data.write_text(write_edge_events_text(events))
    argv = ["analyze", "--input", str(data), "--breakpoints", "40,200", "--format", "json"]
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from netevolve import cli\n"
        f"sys.exit(cli.main({argv!r}))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert '"n_actors": 63' in result.stdout
