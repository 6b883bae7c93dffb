"""Every reported measure convention against networkx (Hagberg, Schult &
Swart 2008), an implementation that shares no code with netevolve.

Skipped when networkx is not installed. Values agree to 1e-12 relative.
"""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netevolve import (
    GraphSnapshot,
    UndefinedMetricError,
    avg_neighbor_degree,
    betweenness,
    closeness,
    local_clustering,
    metrics_row,
    transitivity,
)
from netevolve.generators import barabasi_albert, erdos_renyi, watts_strogatz
from netevolve.metrics import _all_sources

nx = pytest.importorskip("networkx")


def _close(got, want, floor=0.0):
    return got == pytest.approx(want, rel=1e-12, abs=floor)


def _to_nx(s: GraphSnapshot):
    g = nx.Graph()
    g.add_nodes_from(s.sorted_actors())
    g.add_edges_from(s.edges)
    return g


@st.composite
def linked_graphs(draw):
    """Random graphs with at least one link, often fragmented, with up to
    four isolated actors."""
    n = draw(st.integers(min_value=2, max_value=25))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3 * n, unique=True))
    edges = [(f"r{i:02d}", f"r{j:02d}", draw(st.integers(1, 3))) for i, j in chosen]
    isolated = [f"z{i}" for i in range(draw(st.integers(0, 4)))]
    return GraphSnapshot.from_edge_list("oracle", edges, extra_actors=isolated)


def _check_against_networkx(s: GraphSnapshot) -> None:
    g = _to_nx(s)
    n = s.n_actors
    row = metrics_row(s)

    nx_clustering = nx.clustering(g)
    for v in s.sorted_actors():
        assert _close(local_clustering(s, v), nx_clustering[v])
    assert _close(row.clustering, nx.average_clustering(g))
    if any(s.degree(v) >= 2 for v in s.actors):
        assert _close(transitivity(s), nx.transitivity(g))
    else:  # networkx reports 0 where there is no triple to close
        with pytest.raises(UndefinedMetricError):
            transitivity(s)

    with warnings.catch_warnings():
        # networkx divides by a zero variance on degree-regular edge sets
        warnings.simplefilter("ignore", RuntimeWarning)
        nx_assortativity = nx.degree_assortativity_coefficient(g)
    if row.assortativity is None:
        assert math.isnan(nx_assortativity)
    else:
        # where it is exactly 0, netevolve's fsum gives 0.0 and networkx's
        # mixing-matrix sums leave rounding of about 1e-15
        assert _close(row.assortativity, nx_assortativity, floor=1e-14)

    nx_betweenness = nx.betweenness_centrality(g, normalized=True)
    for v, score in betweenness(s, normalized=True).items():
        assert _close(score, nx_betweenness[v])
    nx_closeness = nx.closeness_centrality(g, wf_improved=True)
    for v, score in closeness(s).items():
        assert _close(score, nx_closeness[v])
    nx_harmonic = nx.harmonic_centrality(g)
    for v, score in closeness(s, harmonic=True).items():
        assert _close(score, nx_harmonic[v] / (n - 1))

    # the giant component: largest, ties to the one holding the smallest label
    components = list(nx.connected_components(g))
    size = max(map(len, components))
    giant = min((c for c in components if len(c) == size), key=min)
    assert row.diameter == nx.diameter(g.subgraph(giant))
    lengths = [
        d
        for _, dist in nx.all_pairs_shortest_path_length(g)
        for d in dist.values()
        if d > 0
    ]
    assert _close(row.avg_distance, sum(lengths) / len(lengths))

    nx_neighbor = nx.average_neighbor_degree(g)
    linked = [v for v in s.sorted_actors() if s.degree(v) >= 1]
    for v in linked:
        assert _close(avg_neighbor_degree(s, v), nx_neighbor[v])
    assert _close(row.avg_neighbor_degree, math.fsum(nx_neighbor[v] for v in linked) / len(linked))


@settings(max_examples=200, deadline=None)
@given(linked_graphs())
def test_python_pass_matches_networkx(s):
    _check_against_networkx(s)


@pytest.mark.parametrize(
    "make",
    [
        lambda: barabasi_albert(150, 2, 3),
        lambda: watts_strogatz(120, 6, 0.2, 4),
        lambda: erdos_renyi(120, 0.08, 5),
    ],
    ids=["ba", "ws", "er"],
)
def test_dense_pass_matches_networkx(make):
    """`dense` is the batched numpy kernel, as in tests/test_path_pass.py."""
    s = make()
    assert _all_sources(s).kernel == "numpy"
    _check_against_networkx(s)
