"""Per-snapshot structural measures.

Everything here is a pure function of an immutable snapshot. Shortest paths
are unweighted hop counts throughout; edge weights only enter the weighted
density and strength measures. Iteration is always over sorted actors and
math.fsum is used for floating reductions, so results are bit-identical
regardless of input ordering. Degree statistics (assortativity, the degree
histogram) are exact integer sums.

Diameter, average distance, betweenness and closeness all read one
all-sources pass per snapshot (_all_sources), and only the giant-component
search traverses the graph besides it. The pass runs on a batched numpy
kernel for graphs with 64 actors or more and at least one link, and on the
pure-Python reference otherwise; neither takes options.

Two density variants are reported side by side: the weighted form
2W/(N(N-1)) over the total interaction count W (the headline figure for
collaboration logs, which may exceed 1) and the standard simple form
2L/(N(N-1)) over distinct pairs.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import pairwise
from typing import Optional, Sequence

from .errors import UndefinedMetricError
from .graph_core import GraphSnapshot, _giant


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


@dataclass(frozen=True)
class _PathPass:
    """One all-sources sweep over a snapshot, indexed like `order`.

    `betweenness` holds the raw Brandes sums over both endpoints (halve them
    for the undirected score). Per source, `reach` counts the actors it
    reaches (itself included), `dist_sum` adds up their hop distances and
    `ecc` is the largest of them. `kernel` names the implementation used.
    """

    order: list[str]
    betweenness: list[float]
    reach: list[int]
    dist_sum: list[int]
    ecc: list[int]
    giant: list[int]
    kernel: str


def _reference_pass(adj: list[array]) -> tuple[list[float], list[int], list[int], list[int]]:
    """Pure-Python Brandes over every source, with per-source hop summaries.

    Python integers keep path counts exact, and each dependency receives its
    terms in reverse BFS order, so the scores are the reference bit pattern.
    """
    n = len(adj)
    scores = [0.0] * n
    reach = [1] * n
    dist_sum = [0] * n
    ecc = [0] * n
    for src in range(n):
        if not adj[src]:
            continue
        sigma = [0] * n
        dist = [-1] * n
        sigma[src] = 1
        dist[src] = 0
        order = [src]
        for v in order:
            dv1 = dist[v] + 1
            sv = sigma[v]
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dv1
                    order.append(w)
                if dist[w] == dv1:
                    sigma[w] += sv
        delta = [0.0] * n
        for w in order[:0:-1]:
            dw = dist[w] - 1
            for v in adj[w]:
                if dist[v] == dw:
                    delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            scores[w] += delta[w]
        reach[src] = len(order)
        dist_sum[src] = sum(dist) + n - len(order)
        ecc[src] = dist[order[-1]]
    return scores, reach, dist_sum, ecc


# float64 counts paths exactly only below 2**53.
_SIGMA_EXACT = 2.0**53
# Below this many actors the Python pass takes less time than importing numpy.
_NUMPY_MIN_ACTORS = 64
# Arcs a level expands at once, which bounds the kernel's working set: a run
# of slots holds at most this many plus one actor's degree. Blocks of 2**13
# to 2**14 arcs ran fastest.
_BLOCK_ARCS = 1 << 13
# Sources the kernel runs side by side.
_BATCH = 64


def _pushes(frontier_deg: int, unvisited_deg: int) -> bool:
    """Whether a level steps along the frontier's edges rather than along the
    unvisited slots' edges: the smaller degree sum wins (Beamer, Asanovic &
    Patterson 2012)."""
    return frontier_deg <= unvisited_deg


def _frontier_pass(indptr, indices):
    """Batched Brandes in numpy over a snapshot's CSR arrays (`_indptr`,
    `_indices`, read without a copy) that touches only each level's frontier.

    A batch of _BATCH sources is one flat array of (source, actor) slots, and
    one `dist` and one `row` buffer serve every batch of the snapshot. Each
    forward level steps along the frontier's edges (push) or along the
    unvisited slots' edges (pull), as _pushes decides; a pull lists the
    unvisited slots with one scan of `dist`. A step expands about _BLOCK_ARCS
    arcs at a time and keeps only the shortest-path DAG edges of each run, in
    edge order, so every bincount adds its terms in the same order whatever
    the block. A level marks its new slots in `dist` and lists them with one
    scan. Path counts forward and dependencies backward take one bincount per
    level. The kernel takes no options. Returns the same tuple as
    _reference_pass, or None when a path count reaches 2**53 and float64 can
    no longer hold it exactly.
    """
    import numpy as np

    indptr = np.frombuffer(indptr, dtype=np.int64)
    indices = np.frombuffer(indices, dtype=np.int64)
    n = len(indptr) - 1
    deg = np.diff(indptr)
    starts = indptr[:-1]

    def expand(slots, actors, keep):
        """The edges out of `slots` whose far slot passes `keep`: their rows
        in `slots` and the slots they reach, in edge order."""
        counts = deg.take(actors)
        rows = np.repeat(np.arange(len(slots)), counts)
        first = np.repeat(starts.take(actors) - np.cumsum(counts) + counts, counts)
        reached = np.repeat(slots - actors, counts) + indices.take(np.arange(len(rows)) + first)
        edges = np.flatnonzero(keep(reached))
        return rows.take(edges), reached.take(edges)

    def dag_edges(slots, actors, arcs, keep):
        """`expand` over slots that own `arcs` arcs, one run of slots at a
        time: a run starts at the slot that owns each _BLOCK_ARCS-th arc."""
        if arcs <= _BLOCK_ARCS:
            return expand(slots, actors, keep)
        ends = range(_BLOCK_ARCS, arcs, _BLOCK_ARCS)
        cuts = np.cumsum(deg.take(actors)).searchsorted(ends, "right")
        runs = [
            (r0, *expand(slots[r0:r1], actors[r0:r1], keep))
            for r0, r1 in pairwise([0, *cuts, len(slots)])
        ]
        return (
            np.concatenate([rows + r0 for r0, rows, _ in runs]),
            np.concatenate([reached for _, _, reached in runs]),
        )

    scores = np.zeros(n)
    stats = np.zeros((3, n), dtype=np.int64)  # per source: reach, distance sum, eccentricity
    dist_buffer = np.empty(min(_BATCH, n) * n, dtype=np.int32)
    row_buffer = np.empty(len(dist_buffer), dtype=np.int64)  # a visited slot's row in its level
    for lo in range(0, n, _BATCH):
        b = min(_BATCH, n - lo)
        # slot j*n + v holds actor v as seen from source lo + j
        frontier, actors = np.arange(b) * (n + 1) + lo, np.arange(lo, lo + b)
        dist, row = dist_buffer[: b * n], row_buffer[: b * n]
        dist.fill(-1)
        dist[frontier], row[frontier] = 0, np.arange(b)
        # per level: its actors, their path counts, and the tail and head rows of
        # the DAG edges into it
        levels = [(actors, np.ones(b), None, None)]
        frontier_deg = int(deg.take(actors).sum())
        unvisited_deg = b * len(indices) - frontier_deg
        # a new slot is an unvisited one with an edge to the frontier
        while frontier_deg and unvisited_deg:
            depth = len(levels)
            if _pushes(frontier_deg, unvisited_deg):
                tails, heads = dag_edges(
                    frontier, actors, frontier_deg, lambda far: dist.take(far) < 0
                )
            else:
                unvisited = np.flatnonzero(dist < 0)
                heads, tails = dag_edges(
                    unvisited, unvisited % n, unvisited_deg, lambda far: dist.take(far) == depth - 1
                )
                tails, heads = row.take(tails), unvisited.take(heads)
            if not len(heads):
                break
            dist[heads] = depth
            frontier = np.flatnonzero(dist == depth)
            row[frontier] = np.arange(len(frontier))
            heads = row.take(heads)
            sigma = np.bincount(heads, weights=levels[-1][1].take(tails), minlength=len(frontier))
            if sigma.max() >= _SIGMA_EXACT:
                return None
            actors = frontier % n
            levels.append((actors, sigma, tails, heads))
            frontier_deg = int(deg.take(actors).sum())
            unvisited_deg -= frontier_deg
        hops = dist.reshape(b, n)  # -1 where unreached
        stats[:, lo : lo + b] = (hops >= 0).sum(1), np.maximum(hops, 0).sum(1), hops.max(1)
        delta = np.zeros(len(levels[-1][0]))
        for depth in range(len(levels) - 1, 0, -1):
            actors, sigma, tails, heads = levels[depth]
            scores += np.bincount(actors, weights=delta, minlength=n)
            up_sigma = levels[depth - 1][1]
            terms = up_sigma.take(tails) / sigma.take(heads) * (1.0 + delta.take(heads))
            delta = np.bincount(tails, weights=terms, minlength=len(up_sigma))
    return scores.tolist(), *stats.tolist()


def _all_sources(s: GraphSnapshot) -> _PathPass:
    """The one all-sources pass every path-based measure reads from."""
    order, adj = s.sorted_actors(), s._rows()
    giant = _giant(adj)
    if len(adj) >= _NUMPY_MIN_ACTORS and s.n_links:
        result = _frontier_pass(s._indptr, s._indices)
        if result is not None:
            return _PathPass(order, *result, giant, "numpy")
    return _PathPass(order, *_reference_pass(adj), giant, "python")


def _degrees(s: GraphSnapshot) -> list[int]:
    """Degree of every actor, in label order."""
    return [hi - lo for lo, hi in pairwise(s._indptr)]


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


def _closed_pairs(s: GraphSnapshot) -> list[tuple[int, int]]:
    """Per actor in label order: (connected pairs among its neighbors, its
    degree). Each such pair is seen from both of its ends."""
    nbrs = [set(row) for row in s._rows()]
    return [(sum(len(nbrs[u] & mine) for u in mine) // 2, len(mine)) for mine in nbrs]


def _local_clustering(closed: int, k: int) -> float:
    return 0.0 if k < 2 else closed / (k * (k - 1) / 2)


def local_clustering(s: GraphSnapshot, v: str) -> float:
    """Fraction of neighbor pairs of `v` that are themselves connected;
    0.0 when deg(v) < 2. Raises KeyError for unknown actors."""
    i = s._index(v)
    return _local_clustering(*_closed_pairs(s)[i])


def avg_clustering(s: GraphSnapshot) -> float:
    """Unweighted mean of local clustering over ALL actors (degree-<2 actors
    contribute 0)."""
    if s.n_actors == 0:
        raise UndefinedMetricError("clustering needs at least one actor")
    return math.fsum(_local_clustering(*pair) for pair in _closed_pairs(s)) / s.n_actors


def transitivity(s: GraphSnapshot) -> float:
    """Global transitivity 3*triangles / open-or-closed triads, offered for
    comparison with the mean-local coefficient."""
    pairs = _closed_pairs(s)
    closed = sum(c for c, _ in pairs)
    triads = sum(k * (k - 1) // 2 for _, k in pairs)
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
    return _path_stats(_all_sources(s))


def _path_stats(p: _PathPass) -> tuple[int, float]:
    diameter = max(p.ecc[i] for i in p.giant)
    return diameter, sum(p.dist_sum) / (sum(p.reach) - len(p.reach))


def degree_histogram(s: GraphSnapshot) -> dict[int, int]:
    """degree -> actor count, including degree 0; counts sum to N."""
    return dict(Counter(_degrees(s)))


def assortativity(s: GraphSnapshot) -> Optional[float]:
    """Pearson correlation of endpoint degrees over edges, each undirected
    edge contributing both (deg u, deg v) and (deg v, deg u).

    Over those M = 2L arcs the coefficient is a ratio of integer degree sums
    (Newman 2002): r = (M*P - S2**2) / (M*S3 - S2**2), where S2 and S3 sum k**2
    and k**3 over actors and P sums each actor's degree times the degree sum
    of its neighbors. The sums are exact, so r is rounded once, to the
    nearest float. Returns None (undefined) when endpoint degrees have zero
    variance, e.g. on regular graphs. Exactly -1 on stars.
    """
    if s.n_links == 0:
        raise UndefinedMetricError("assortativity needs at least one edge")
    deg = _degrees(s)
    arcs = 2 * s.n_links
    s2 = sum(k * k for k in deg)
    s3 = sum(k * k * k for k in deg)
    p = sum(k * sum(map(deg.__getitem__, row)) for k, row in zip(deg, s._rows()))
    var = arcs * s3 - s2 * s2
    return (arcs * p - s2 * s2) / var if var else None


def _neighbor_degree(deg: list[int], row: Sequence[int]) -> float:
    return sum(map(deg.__getitem__, row)) / len(row)


def avg_neighbor_degree(s: GraphSnapshot, v: str) -> float:
    """Mean degree of the neighbors of `v`; undefined for isolated actors."""
    row = s._rows()[s._index(v)]
    if not row:
        raise UndefinedMetricError(f"actor {v!r} has no neighbors")
    return _neighbor_degree(_degrees(s), row)


def avg_neighbor_degree_mean(s: GraphSnapshot) -> float:
    """Network-level mean of avg_neighbor_degree over actors with degree >= 1
    (isolated actors are excluded)."""
    deg = _degrees(s)
    values = [_neighbor_degree(deg, row) for row in s._rows() if row]
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
    return _betweenness(_all_sources(s), normalized)


def _betweenness(p: _PathPass, normalized: bool) -> dict[str, float]:
    n = len(p.order)
    scale = 2.0
    if normalized:
        denom = (n - 1) * (n - 2) / 2.0
        if denom <= 0:
            return {v: 0.0 for v in p.order}
        scale *= denom
    return {v: score / scale for v, score in zip(p.order, p.betweenness)}


def closeness(s: GraphSnapshot) -> dict[str, float]:
    """Per-actor closeness computed within each actor's component.

    The standard form (|C|-1)/sum-of-distances is scaled by the component's
    share of the graph, (|C|-1)/(N-1), so values stay comparable across
    components of a fragmented graph; isolated actors score 0.
    """
    return _closeness(_all_sources(s))


def _closeness(p: _PathPass) -> dict[str, float]:
    n = len(p.order)
    out: dict[str, float] = {}
    for v, reach, total in zip(p.order, p.reach, p.dist_sum):
        others = reach - 1
        out[v] = 0.0 if others == 0 else (others / (n - 1)) * (others / total)
    return out


CENTRALIZATION_KINDS = ("degree", "betweenness", "closeness")


def centralization(values: list[float], kind: str, n: int) -> float:
    """Freeman centralization: sum of (c_max - c_i) over the theoretical
    maximum of that sum for `kind` on n actors.

    Degree expects raw degrees (maximum (n-1)(n-2), attained by a star);
    betweenness and closeness expect the normalized per-actor measures
    (star maxima n-1 and (n-1)(n-2)/(2n-3) respectively). 1.0 on stars,
    0.0 on regular graphs.
    """
    if kind not in CENTRALIZATION_KINDS:
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
    paths = _all_sources(s)
    if s.n_links == 0:
        clustering = diameter = avg_dist = assort = neighbor_mean = None
    else:
        clustering = avg_clustering(s)
        diameter, avg_dist = _path_stats(paths)
        assort = assortativity(s)
        neighbor_mean = avg_neighbor_degree_mean(s)
    strength_mean = 2.0 * s.sum_links / n
    if n >= 3:
        cent_deg = centralization(list(map(float, _degrees(s))), "degree", n)
        btw = _betweenness(paths, normalized=True)
        cent_btw = centralization(list(btw.values()), "betweenness", n)
        close = _closeness(paths)
        cent_close = centralization(list(close.values()), "closeness", n)
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
