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
kernel over the snapshot's own CSR when its closed-twin quotient has N*L at
or above _NUMPY_MIN_WORK, and otherwise, or when a path count reaches 2**53,
on the pure-Python reference over that quotient. Neither kernel takes
options. The numpy kernel keeps distances, path counts and dependencies per
(source, actor) slot of a batch of sources, and adds each batch into the
betweenness sums once.

Two density variants are reported side by side: the weighted form
2W/(N(N-1)) over the total interaction count W (the headline figure for
collaboration logs, which may exceed 1) and the standard simple form
2L/(N(N-1)) over distinct pairs.
"""

from __future__ import annotations

import math
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
    """One all-sources sweep over a snapshot, indexed by actor id.

    `betweenness` holds the raw Brandes sums over both endpoints (halve them
    for the undirected score). Per source, `reach` counts the actors it
    reaches (itself included), `dist_sum` adds up their hop distances and
    `ecc` is the largest of them. `kernel` names the implementation used.
    """

    betweenness: list[float]
    reach: list[int]
    dist_sum: list[int]
    ecc: list[int]
    giant: list[int]
    kernel: str


def _reference_pass(
    adj: Sequence[Sequence[int]], w: Optional[list[int]] = None
) -> tuple[list[float], list[int], list[int], list[int]]:
    """Pure-Python Brandes over every source, with per-source hop summaries.

    Python integers keep path counts exact, and each dependency receives its
    terms in reverse BFS order, so the scores are the reference bit pattern.
    With class sizes `w` (see _all_sources), vertex v stands for w[v] actors:
    sigma(v) counts paths from one actor of the source class to one of v, so
    v passes on sigma(v)*w(v) of them (the source on one), and delta(v), the
    dependency of one actor of v, takes sigma(v)/sigma(x)*(1 + delta(x))*w(x)
    from each successor x. The source adds its dependencies once per actor;
    reach and distance sums count w(v) per vertex, and leave the hop to the
    source's own twins to the caller. Without `w` every size is 1, and
    multiplying by 1 changes no bit.
    """
    n = len(adj)
    w = w or [1] * n
    scores = [0.0] * n
    reach = list(w)
    dist_sum = [0] * n
    ecc = [0] * n
    for src in range(n):
        if not adj[src]:
            continue
        sigma = [0] * n
        dist = [-1] * n
        preds = [None] * n
        sigma[src] = 1
        dist[src] = 0
        order = [src]
        for v in order:
            dv1 = dist[v] + 1
            sv = sigma[v] * w[v] if dv1 > 1 else 1  # the source counts once
            for x in adj[v]:
                dx = dist[x]
                if dx < 0:
                    dist[x] = dv1
                    order.append(x)
                    sigma[x] = sv
                    preds[x] = [v]
                elif dx == dv1:
                    sigma[x] += sv
                    preds[x].append(v)
        delta = [0.0] * n
        for x in order[:0:-1]:
            sx = sigma[x]
            cx = (1.0 + delta[x]) * w[x]
            for v in preds[x]:
                delta[v] += sigma[v] / sx * cx
            scores[x] += delta[x] * w[src]
        reach[src] = sum(w[v] for v in order)
        dist_sum[src] = sum(dist[v] * w[v] for v in order)
        ecc[src] = dist[order[-1]]
    return scores, reach, dist_sum, ecc


# float64 counts paths exactly only below 2**53.
_SIGMA_EXACT = 2.0**53
# The numpy kernel runs on a snapshot whose closed-twin quotient of N classes
# and L links has N*L at or above this, and the Python reference on the
# quotient below it. Measured on uncompressed snapshots: the co-authorship
# sample ran slower all in Python (0.68-1.06 s against 0.31-0.39 s), and
# this sits in the gap between its 2004 (N*L = 40,981: 15.3 ms in Python,
# 3.6 in numpy) and 2005 (84,475: 30.6 against 6.2 ms).
_NUMPY_MIN_WORK = 50_000
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
    one `dist`, one `sigma` (path count) and one `delta` (dependency) buffer
    over those slots serve every batch of the snapshot. Each forward level
    steps along the frontier's edges (push) or along the unvisited slots'
    edges (pull), as _pushes decides; a pull lists the unvisited slots with
    one scan of `dist`. A step expands about _BLOCK_ARCS arcs at a time and
    keeps only the shortest-path DAG edges of each run, as (tail slot, head
    slot) pairs in edge order, so every `np.add.at` adds its terms in the
    same order whatever the block. A level marks its new slots in `dist` and
    lists them with one scan. Path counts forward and dependencies backward
    take one `np.add.at` per level, and a batch adds its dependencies into
    the scores once. The kernel takes no options. Returns the same tuple as
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
        """The edges out of `slots` whose far slot passes `keep`, as (near
        slot, far slot) pairs in edge order."""
        counts = deg.take(actors)
        first = np.repeat(starts.take(actors) - np.cumsum(counts) + counts, counts)
        near = np.repeat(slots, counts)
        far = np.repeat(slots - actors, counts) + indices.take(np.arange(len(near)) + first)
        edges = np.flatnonzero(keep(far))
        return near.take(edges), far.take(edges)

    def dag_edges(slots, actors, arcs, keep):
        """`expand` over slots that own `arcs` arcs, one run of slots at a
        time: a run starts at the slot that owns each _BLOCK_ARCS-th arc."""
        if arcs <= _BLOCK_ARCS:
            return expand(slots, actors, keep)
        ends = range(_BLOCK_ARCS, arcs, _BLOCK_ARCS)
        cuts = np.cumsum(deg.take(actors)).searchsorted(ends, "right")
        bounds = pairwise([0, *cuts, len(slots)])
        runs = [expand(slots[r0:r1], actors[r0:r1], keep) for r0, r1 in bounds]
        return tuple(map(np.concatenate, zip(*runs)))

    scores = np.zeros(n)
    stats = np.zeros((3, n), dtype=np.int64)  # per source: reach, distance sum, eccentricity
    dist_buffer = np.empty(min(_BATCH, n) * n, dtype=np.int32)
    sigma_buffer, delta_buffer = np.empty((2, len(dist_buffer)))
    for lo in range(0, n, _BATCH):
        b = min(_BATCH, n - lo)
        # slot j*n + v holds actor v as seen from source lo + j
        sources, actors = np.arange(b) * (n + 1) + lo, np.arange(lo, lo + b)
        dist, sigma, delta = dist_buffer[: b * n], sigma_buffer[: b * n], delta_buffer[: b * n]
        dist.fill(-1)
        sigma.fill(0.0)
        delta.fill(0.0)
        dist[sources], sigma[sources] = 0, 1.0
        frontier = sources
        levels = []  # per level past the sources: the tail and head slots of its DAG edges
        frontier_deg = int(deg.take(actors).sum())
        unvisited_deg = b * len(indices) - frontier_deg
        # a new slot is an unvisited one with an edge to the frontier
        while frontier_deg and unvisited_deg:
            depth = len(levels) + 1
            if _pushes(frontier_deg, unvisited_deg):
                tails, heads = dag_edges(
                    frontier, actors, frontier_deg, lambda far: dist.take(far) < 0
                )
            else:
                unvisited = np.flatnonzero(dist < 0)
                heads, tails = dag_edges(
                    unvisited, unvisited % n, unvisited_deg, lambda far: dist.take(far) == depth - 1
                )
            if not len(heads):
                break
            dist[heads] = depth
            frontier = np.flatnonzero(dist == depth)
            np.add.at(sigma, heads, sigma.take(tails))
            levels.append((tails, heads))
            actors = frontier % n
            frontier_deg = int(deg.take(actors).sum())
            unvisited_deg -= frontier_deg
        # a slot's count is final once its level is done, so one check sees them all
        if sigma.max() >= _SIGMA_EXACT:
            return None
        hops = dist.reshape(b, n)  # -1 where unreached
        stats[:, lo : lo + b] = (hops >= 0).sum(1), np.maximum(hops, 0).sum(1), hops.max(1)
        for tails, heads in reversed(levels):
            terms = sigma.take(tails) / sigma.take(heads) * (1.0 + delta.take(heads))
            np.add.at(delta, tails, terms)
        delta[sources] = 0.0
        scores += delta.reshape(b, n).sum(0)
    return scores.tolist(), *stats.tolist()


def _all_sources(s: GraphSnapshot) -> _PathPass:
    """The one all-sources pass every path-based measure reads from.

    Closed twins (N[u] = N[v], such as co-authors who only ever publish as
    one team) have the same distances and path counts to every other actor.
    So the pass reads the snapshot's quotient: one vertex per class, numbered
    by its first actor and weighted by its size (Puzis et al. 2012, Sariyuce
    et al. 2013); a twin-free snapshot is its own quotient, with sizes 1.
    """
    adj = s._rows()
    giant = _giant(adj)
    classes: dict[frozenset, int] = {}
    of = [classes.setdefault(frozenset(row).union((v,)), len(classes)) for v, row in enumerate(adj)]
    first = dict(zip(reversed(of), reversed(range(len(of)))))  # class -> its first actor
    # a class's first actor neighbours every actor of each neighbouring class,
    # so its row cut to first actors lists those classes in class order
    quotient = [[of[u] for u in adj[first[c]] if first[of[u]] == u] for c in range(len(first))]
    if len(quotient) * sum(map(len, quotient)) // 2 >= _NUMPY_MIN_WORK:
        result = _frontier_pass(s._indptr, s._indices)
        if result is not None:
            return _PathPass(*result, giant, "numpy")
    w = list(Counter(of).values())
    scores, reach, dist_sum, ecc = _reference_pass(quotient, w)
    # each actor takes its class's results, and one hop to each twin
    dist_sum = [dist_sum[c] + w[c] - 1 for c in of]
    ecc = [ecc[c] or min(w[c] - 1, 1) for c in of]
    scores, reach = [scores[c] for c in of], [reach[c] for c in of]
    return _PathPass(scores, reach, dist_sum, ecc, giant, "python")


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
    return dict(zip(s._names, _betweenness(_all_sources(s), normalized)))


def _betweenness(p: _PathPass, normalized: bool) -> list[float]:
    n = len(p.betweenness)
    scale = 2.0
    if normalized:
        denom = (n - 1) * (n - 2) / 2.0
        if denom <= 0:
            return [0.0] * n
        scale *= denom
    return [score / scale for score in p.betweenness]


def closeness(s: GraphSnapshot) -> dict[str, float]:
    """Per-actor closeness computed within each actor's component.

    The standard form (|C|-1)/sum-of-distances is scaled by the component's
    share of the graph, (|C|-1)/(N-1), so values stay comparable across
    components of a fragmented graph; isolated actors score 0.
    """
    return dict(zip(s._names, _closeness(_all_sources(s))))


def _closeness(p: _PathPass) -> list[float]:
    n = len(p.reach)
    out: list[float] = []
    for reach, total in zip(p.reach, p.dist_sum):
        others = reach - 1
        out.append(0.0 if others == 0 else (others / (n - 1)) * (others / total))
    return out


CENTRALIZATION_KINDS = ("degree", "betweenness", "closeness")


def centralization(values: Sequence[float], kind: str, n: int) -> float:
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
        cent_deg = centralization(_degrees(s), "degree", n)
        cent_btw = centralization(_betweenness(paths, normalized=True), "betweenness", n)
        cent_close = centralization(_closeness(paths), "closeness", n)
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
