"""Every reported measure convention against networkx (Hagberg, Schult &
Swart 2008), an implementation that shares no code with netevolve.

Skipped when networkx is not installed. Values agree to 1e-12 relative.
Assortativity must instead equal the float nearest the exact rational value
from `oracles.assortativity_exact`: networkx's own rounding can reach 1e-12
on a correct value (see `test_assortativity_regression_graph`).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assortativity_regression
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
from oracles import assortativity_exact

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

    _check_assortativity(s, row.assortativity)

    nx_betweenness = nx.betweenness_centrality(g, normalized=True)
    for v, score in betweenness(s, normalized=True).items():
        assert _close(score, nx_betweenness[v])
    nx_closeness = nx.closeness_centrality(g, wf_improved=True)
    for v, score in closeness(s).items():
        assert _close(score, nx_closeness[v])

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


def _check_assortativity(s: GraphSnapshot, got) -> None:
    exact = assortativity_exact(s)
    if exact is None:
        assert got is None
    else:
        assert got == float(exact)


def test_assortativity_regression_graph():
    """Exact r is -1/55. netevolve gives it to the last bit; networkx is
    1.0016e-12 relative off, which failed a 1e-12 check on a correct value."""
    s = assortativity_regression()
    assert assortativity_exact(s) == Fraction(-1, 55)
    row = metrics_row(s)
    assert row.assortativity == -1 / 55
    _check_assortativity(s, row.assortativity)


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
