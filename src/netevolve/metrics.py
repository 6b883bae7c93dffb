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
options. The numpy kernel runs a batch of up to 64 sources as the bits of
one word per actor, keeps path counts and dependencies per (actor, source)
slot, and adds each batch into the betweenness sums once.

Two density variants are reported side by side: the weighted form
2W/(N(N-1)) over the total interaction count W (the headline figure for
collaboration logs, which may exceed 1) and the standard simple form
2L/(N(N-1)) over distinct pairs.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import pairwise
from typing import NamedTuple, Optional, Sequence

from .errors import UndefinedMetricError
from .graph_core import GraphSnapshot, _giant


class MetricsRow(NamedTuple):
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


class _PathPass(NamedTuple):
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
# quotient below it. A run that sends no snapshot to numpy never imports it
# (61-87 ms on a 2-CPU Xeon VM), and a lower value would import it on
# paper-scale runs: the last periods of the seed-7 `pubs_yearly` benchmark
# input have quotients of N*L up to 27,984 (8.7 ms in Python, 20 ms in numpy
# on their 360 actors and 1262 links), and the disaster sample's last
# period, 98 actors and 153 links, has N*L = 14,994 before any quotient.
_NUMPY_MIN_WORK = 50_000
# Sources the kernel runs side by side: one bit each of a 64-bit word, so at
# most 64.
_BATCH = 64


def _frontier_pass(indptr, indices):
    """Batched Brandes in numpy over a snapshot's CSR arrays (`_indptr`,
    `_indices`, read without a copy), with a batch's sources as bits.

    Bit j of an actor's uint64 words stands for source lo + j of the batch
    (Then et al., VLDB 2014): `front` holds the sources whose BFS frontier
    the actor is on, and `unseen` those that have not reached it. A level is
    one `np.bitwise_or.reduceat` of the frontier words over the CSR rows,
    masked by `unseen`. An arc from row v to u is a shortest-path DAG edge for
    the sources `front[u] & next[v]`, and only those bits are unpacked, into
    (tail slot, head slot) pairs in edge order; slot u*64 + j holds actor u
    as seen from source lo + j. Path counts forward and dependencies backward
    take one `np.add.at` per level over one `sigma` and one `delta` buffer of
    slots, so each dependency adds its terms in the order of its successors'
    ids, and a batch adds its dependencies into the scores once, summed over
    its sources in source order. The kernel takes no options. Returns the
    same tuple as _reference_pass, or None when a path count reaches 2**53
    and float64 can no longer hold it exactly.
    """
    import numpy as np

    def unpack(words):
        """The bits of `words`, 64 per word, bit j of word i at 64*i + j."""
        return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), bitorder="little")

    indptr = np.frombuffer(indptr, dtype=np.int64)
    indices = np.frombuffer(indices, dtype=np.int64)
    n = len(indptr) - 1
    deg = np.diff(indptr)
    rows = np.repeat(np.arange(n), deg)  # the row of each arc
    tail_slots, head_slots = indices * 64, rows * 64
    # reduceat reads an empty row as the one word at its start (the next
    # row's first arc, or the trailing 0), so isolated actors stay out of
    # `unseen`
    linked = np.where(deg > 0, ~np.uint64(0), np.uint64(0))
    gathered = np.zeros(len(indices) + 1, dtype=np.uint64)
    scores = np.zeros(n)
    stats = np.zeros((3, n), dtype=np.int64)  # per source: reach, distance sum, eccentricity
    sigma, delta = np.empty((2, n * 64))
    for lo in range(0, n, _BATCH):
        b = min(_BATCH, n - lo)
        sources = lo * 64 + np.arange(b) * 65  # slot (lo + j)*64 + j
        front = np.zeros(n, dtype=np.uint64)
        front[lo : lo + b] = np.uint64(1) << np.arange(b, dtype=np.uint64)
        unseen = linked & ~front
        sigma.fill(0.0)
        delta.fill(0.0)
        sigma[sources] = 1.0
        reach, dist_sum, ecc = stats[:, lo : lo + b]
        reach += 1
        levels = []  # per level past the sources: the tail and head slots of its DAG edges
        while True:
            np.take(front, indices, out=gathered[:-1])
            front = np.bitwise_or.reduceat(gathered, indptr[:-1]) & unseen
            if not front.any():
                break
            unseen ^= front
            dag = gathered[:-1] & front.take(rows)
            arcs = np.flatnonzero(dag)
            bits = np.flatnonzero(unpack(dag.take(arcs)).view(bool))
            arcs, bits = arcs.take(bits >> 6), bits & 63
            tails, heads = tail_slots.take(arcs) + bits, head_slots.take(arcs) + bits
            np.add.at(sigma, heads, sigma.take(tails))
            levels.append((tails, heads))
            found = unpack(front).reshape(n, 64)[:, :b].sum(0, dtype=np.int64)  # per source
            reach += found
            dist_sum += len(levels) * found
            ecc[found > 0] = len(levels)
        # a slot's count is final once its level is done, so one check sees them all
        if sigma.max() >= _SIGMA_EXACT:
            return None
        for tails, heads in reversed(levels):
            terms = sigma.take(tails) / sigma.take(heads) * (1.0 + delta.take(heads))
            np.add.at(delta, tails, terms)
        delta[sources] = 0.0
        # as a (source, actor) array, whose sum over axis 0 adds source by source
        scores += np.ascontiguousarray(delta.reshape(n, 64)[:, :b].T).sum(0)
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
    # clamp: disconnected-graph closeness can nudge past the star maximum;
    # every c_max - c is at least 0, so the spread needs no lower clamp
    return min(1.0, spread / denom)


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
