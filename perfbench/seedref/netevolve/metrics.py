"""Per-snapshot structural measures.

Everything here is a pure function of an immutable snapshot. Shortest paths
are unweighted hop counts throughout; edge weights only enter the weighted
density and strength measures. Iteration is always over sorted actors and
math.fsum is used for floating reductions, so results are bit-identical
regardless of input ordering or thread count.

Two density variants are reported side by side: the weighted form
2W/(N(N-1)) over the total interaction count W (the headline figure for
collaboration logs, which may exceed 1) and the standard simple form
2L/(N(N-1)) over distinct pairs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .errors import UndefinedMetricError
from .graph_core import GraphSnapshot, giant_component


@dataclass(frozen=True)
class MetricsRow:
    """All network measures for one snapshot; None marks an undefined metric
    (never silently zero)."""

    label: str
    n_actors: int
    n_links: int
    sum_links: int
    density_weighted: Optional[float] = None
    density_simple: Optional[float] = None
    clustering: Optional[float] = None
    diameter: Optional[int] = None
    avg_distance: Optional[float] = None
    assortativity: Optional[float] = None
    avg_neighbor_degree: Optional[float] = None
    avg_strength: Optional[float] = None
    centralization_degree: Optional[float] = None
    centralization_betweenness: Optional[float] = None
    centralization_closeness: Optional[float] = None


def _indexed(s: GraphSnapshot) -> tuple[list[str], list[list[int]]]:
    """Sorted actor labels and integer adjacency lists (neighbors ascending)."""
    order = s.sorted_actors()
    index = {v: i for i, v in enumerate(order)}
    adj = [[index[u] for u in s.neighbors(v)] for v in order]
    return order, adj


def _bfs_distances(adj: list[list[int]], source: int) -> list[int]:
    """Hop distances from `source`; -1 marks unreachable."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        dv = dist[v]
        for u in adj[v]:
            if dist[u] < 0:
                dist[u] = dv + 1
                queue.append(u)
    return dist


def density_weighted(s: GraphSnapshot) -> float:
    """2W/(N(N-1)) over the total interaction count W.

    May exceed 1 for heavily multi-interacting graphs.
    """
    n = s.n_actors
    if n < 2:
        raise UndefinedMetricError("density needs at least two actors")
    return 2.0 * s.sum_links / (n * (n - 1))


def density_simple(s: GraphSnapshot) -> float:
    """2L/(N(N-1)) over the distinct-pair count L; always in [0, 1]."""
    n = s.n_actors
    if n < 2:
        raise UndefinedMetricError("density needs at least two actors")
    return 2.0 * s.n_links / (n * (n - 1))


def local_clustering(s: GraphSnapshot, v: str) -> float:
    """Fraction of neighbor pairs of `v` that are themselves connected;
    0.0 when deg(v) < 2. Raises KeyError for unknown actors."""
    nbrs = list(s.neighbors(v))
    k = len(nbrs)
    if k < 2:
        return 0.0
    closed = 0
    for i in range(k):
        for j in range(i + 1, k):
            if s.has_edge(nbrs[i], nbrs[j]):
                closed += 1
    return closed / (k * (k - 1) / 2)


def avg_clustering(s: GraphSnapshot) -> float:
    """Unweighted mean of local clustering over ALL actors (degree-<2 actors
    contribute 0)."""
    if s.n_actors == 0:
        raise UndefinedMetricError("clustering needs at least one actor")
    return math.fsum(local_clustering(s, v) for v in s.sorted_actors()) / s.n_actors


def transitivity(s: GraphSnapshot) -> float:
    """Global transitivity 3*triangles / open-or-closed triads, offered for
    comparison with the mean-local coefficient."""
    closed = 0
    triads = 0
    for v in s.sorted_actors():
        nbrs = list(s.neighbors(v))
        k = len(nbrs)
        triads += k * (k - 1) // 2
        for i in range(k):
            for j in range(i + 1, k):
                if s.has_edge(nbrs[i], nbrs[j]):
                    closed += 1
    if triads == 0:
        raise UndefinedMetricError("no connected triples")
    return closed / triads


def path_stats(s: GraphSnapshot) -> tuple[int, float]:
    """(diameter, average distance) from all-sources BFS.

    Diameter is the longest shortest path within the giant component;
    average distance is the mean over every reachable unordered pair in the
    whole graph (unreachable pairs are excluded, so the average can sit well
    below the diameter on fragmented graphs).
    """
    if s.n_links == 0:
        raise UndefinedMetricError("path statistics need at least one edge")
    order, adj = _indexed(s)
    giant = giant_component(s).actors
    total = 0
    reachable_ordered = 0
    diameter = 0
    for src, label in enumerate(order):
        dist = _bfs_distances(adj, src)
        for d in dist:
            if d > 0:
                total += d
                reachable_ordered += 1
        if label in giant:
            diameter = max(diameter, max(dist))
    return diameter, total / reachable_ordered


def degree_histogram(s: GraphSnapshot) -> dict[int, int]:
    """degree -> actor count, including degree 0; counts sum to N."""
    hist: dict[int, int] = {}
    for v in s.sorted_actors():
        d = s.degree(v)
        hist[d] = hist.get(d, 0) + 1
    return hist


def assortativity(s: GraphSnapshot) -> Optional[float]:
    """Pearson correlation of endpoint degrees over edges, each undirected
    edge contributing both (deg u, deg v) and (deg v, deg u).

    Returns None (undefined) when endpoint degrees have zero variance, e.g.
    on regular graphs. Exactly -1 on stars.
    """
    if s.n_links == 0:
        raise UndefinedMetricError("assortativity needs at least one edge")
    xs: list[int] = []
    ys: list[int] = []
    for a, b in sorted(s.edges):
        da, db = s.degree(a), s.degree(b)
        xs.extend((da, db))
        ys.extend((db, da))
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        return None
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    r = sxy / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def avg_neighbor_degree(s: GraphSnapshot, v: str) -> float:
    """Mean degree of the neighbors of `v`; undefined for isolated actors."""
    nbrs = s.neighbors(v)
    if not nbrs:
        raise UndefinedMetricError(f"actor {v!r} has no neighbors")
    return sum(s.degree(u) for u in nbrs) / len(nbrs)


def avg_neighbor_degree_mean(s: GraphSnapshot) -> float:
    """Network-level mean of avg_neighbor_degree over actors with degree >= 1
    (isolated actors are excluded)."""
    values = [avg_neighbor_degree(s, v) for v in s.sorted_actors() if s.degree(v) >= 1]
    if not values:
        raise UndefinedMetricError("no actor has neighbors")
    return math.fsum(values) / len(values)


def betweenness(s: GraphSnapshot, normalized: bool = False) -> dict[str, float]:
    """Shortest-path betweenness via Brandes single-source accumulation.

    Undirected convention: each unordered pair's contribution is counted once
    (the two-endpoint accumulation is halved). Raw scores by default; the
    normalized variant divides by (N-1)(N-2)/2, the star-center maximum.
    Isolated actors score 0.
    """
    order, adj = _indexed(s)
    n = len(order)
    scores = [0.0] * n
    for src in range(n):
        stack: list[int] = []
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma = [0] * n
        dist = [-1] * n
        sigma[src] = 1
        dist[src] = 0
        queue = deque([src])
        while queue:
            v = queue.popleft()
            stack.append(v)
            dv = dist[v]
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dv + 1
                    queue.append(w)
                if dist[w] == dv + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * n
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != src:
                scores[w] += delta[w]
    scale = 2.0
    if normalized:
        denom = (n - 1) * (n - 2) / 2.0
        if denom <= 0:
            return {v: 0.0 for v in order}
        scale *= denom
    return {order[i]: scores[i] / scale for i in range(n)}


def closeness(s: GraphSnapshot, harmonic: bool = False) -> dict[str, float]:
    """Per-actor closeness computed within each actor's component.

    The standard form (|C|-1)/sum-of-distances is scaled by the component's
    share of the graph, (|C|-1)/(N-1), so values stay comparable across
    components of a fragmented graph; isolated actors score 0. The harmonic
    alternative sums reciprocal distances over reachable actors, divided by
    (N-1).
    """
    order, adj = _indexed(s)
    n = len(order)
    out: dict[str, float] = {}
    for i, v in enumerate(order):
        dist = _bfs_distances(adj, i)
        reached = [d for d in dist if d > 0]
        if not reached or n < 2:
            out[v] = 0.0
        elif harmonic:
            out[v] = math.fsum(1.0 / d for d in reached) / (n - 1)
        else:
            others = len(reached)
            out[v] = (others / (n - 1)) * (others / sum(reached))
    return out


_CENTRALIZATION_KINDS = ("degree", "betweenness", "closeness")


def centralization(values: list[float], kind: str, n: int) -> float:
    """Freeman centralization: sum of (c_max - c_i) over the theoretical
    maximum of that sum for `kind` on n actors.

    Degree expects raw degrees (maximum (n-1)(n-2), attained by a star);
    betweenness and closeness expect the normalized per-actor measures
    (star maxima n-1 and (n-1)(n-2)/(2n-3) respectively). 1.0 on stars,
    0.0 on regular graphs.
    """
    if kind not in _CENTRALIZATION_KINDS:
        raise ValueError(f"unknown centralization kind {kind!r}")
    if n < 3:
        raise UndefinedMetricError("centralization needs at least three actors")
    if len(values) != n:
        raise ValueError(f"expected {n} values, got {len(values)}")
    c_max = max(values)
    spread = math.fsum(c_max - c for c in values)
    if kind == "degree":
        denom = (n - 1) * (n - 2)
    elif kind == "betweenness":
        denom = n - 1
    else:
        denom = (n - 1) * (n - 2) / (2 * n - 3)
    # clamp: disconnected-graph closeness can nudge past the star maximum
    return max(0.0, min(1.0, spread / denom))


def metrics_row(s: GraphSnapshot) -> MetricsRow:
    """Assemble the full measure battery for one snapshot.

    A snapshot with no links reports the link-dependent metrics (clustering,
    path statistics, assortativity, neighbor degree) as None rather than
    zero. Centralizations need N >= 3 and are None below that.
    """
    n = s.n_actors
    if n < 2:
        raise UndefinedMetricError("a metrics row needs at least two actors")
    dens_w = density_weighted(s)
    dens_s = density_simple(s)
    if s.n_links == 0:
        clustering = diameter = avg_dist = assort = neighbor_mean = None
    else:
        clustering = avg_clustering(s)
        diameter, avg_dist = path_stats(s)
        assort = assortativity(s)
        neighbor_mean = avg_neighbor_degree_mean(s)
    strength_mean = 2.0 * s.sum_links / n
    if n >= 3:
        order = s.sorted_actors()
        cent_deg = centralization([float(s.degree(v)) for v in order], "degree", n)
        btw = betweenness(s, normalized=True)
        cent_btw = centralization([btw[v] for v in order], "betweenness", n)
        close = closeness(s)
        cent_close = centralization([close[v] for v in order], "closeness", n)
    else:
        cent_deg = cent_btw = cent_close = None
    return MetricsRow(
        label=s.label,
        n_actors=n,
        n_links=s.n_links,
        sum_links=s.sum_links,
        density_weighted=dens_w,
        density_simple=dens_s,
        clustering=clustering,
        diameter=diameter,
        avg_distance=avg_dist,
        assortativity=assort,
        avg_neighbor_degree=neighbor_mean,
        avg_strength=strength_mean,
        centralization_degree=cent_deg,
        centralization_betweenness=cent_btw,
        centralization_closeness=cent_close,
    )
