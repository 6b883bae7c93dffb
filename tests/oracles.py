"""Brute-force reference implementations used as independent oracles.

Everything here deliberately recomputes from the raw edge map with naive
algorithms (Floyd-Warshall, pair enumeration, component products) so that a
bug in the library's BFS/Brandes/fsum paths cannot hide in the expected
values.
"""

import itertools
import json
import math
from collections import deque
from datetime import datetime
from fractions import Fraction

import numpy as np

from netevolve import (
    InsufficientDataError,
    ParseError,
    PublicationRecord,
    UndefinedMetricError,
    assortativity,
    avg_neighbor_degree_mean,
    degree_histogram,
    fit_powerlaw,
    parse_timestamp,
)


def adjacency_sets(snapshot):
    """Fresh adjacency built from the edge map only."""
    adj = {v: set() for v in snapshot.actors}
    for a, b in snapshot.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def floyd_warshall_path_stats(snapshot):
    """(diameter over the largest component, mean distance over reachable
    pairs) via dense all-pairs dynamic programming."""
    order = sorted(snapshot.actors)
    n = len(order)
    index = {v: i for i, v in enumerate(order)}
    inf = float("inf")
    dist = np.full((n, n), inf)
    np.fill_diagonal(dist, 0.0)
    for (a, b) in snapshot.edges:
        i, j = index[a], index[b]
        dist[i, j] = dist[j, i] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])

    finite = np.isfinite(dist)
    # components from reachability; tie on size -> smallest member label
    assigned = [False] * n
    components = []
    for i in range(n):
        if assigned[i]:
            continue
        members = [j for j in range(n) if finite[i, j]]
        for j in members:
            assigned[j] = True
        components.append(members)
    largest = max(components, key=lambda c: (len(c), -min(c)))
    sub = dist[np.ix_(largest, largest)]
    diameter = int(sub.max()) if len(largest) > 1 else 0

    mask = finite & (dist > 0)
    total = dist[mask].sum()
    count = int(mask.sum())
    return diameter, total / count


def assortativity_exact(snapshot):
    """Degree assortativity in exact rational arithmetic, over both
    orientations of every edge: r as a Fraction, or None when the endpoint
    degrees have zero variance. Both orientations give the two series one
    variance, so r is the covariance over it and nothing is rounded."""
    adj = adjacency_sets(snapshot)
    pairs = [(len(adj[a]), len(adj[b])) for a, b in snapshot.edges]
    pairs += [(y, x) for x, y in pairs]
    n = len(pairs)
    sx = sum(x for x, _ in pairs)
    sy = sum(y for _, y in pairs)
    # n**2 times the covariance and the variance, as integers
    cov = n * sum(x * y for x, y in pairs) - sx * sy
    var = n * sum(x * x for x, _ in pairs) - sx * sx
    return Fraction(cov, var) if var else None


def local_clustering_brute(snapshot, v):
    adj = adjacency_sets(snapshot)
    nbrs = sorted(adj[v])
    if len(nbrs) < 2:
        return 0.0
    closed = sum(
        1 for x, y in itertools.combinations(nbrs, 2) if y in adj[x]
    )
    return closed / (len(nbrs) * (len(nbrs) - 1) / 2)


def avg_clustering_brute(snapshot):
    vals = [local_clustering_brute(snapshot, v) for v in snapshot.actors]
    return sum(vals) / len(vals)


def _bfs_sigma(adj, source):
    """Distances and shortest-path counts from one source."""
    dist = {v: -1 for v in adj}
    sigma = {v: 0 for v in adj}
    dist[source] = 0
    sigma[source] = 1
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] += sigma[v]
    return dist, sigma


def betweenness_brute(snapshot):
    """Raw betweenness by combining per-pair path counts: for each pair
    (s, t) and interior vertex v, sigma_s(v) * sigma_t(v) / sigma_s(t)
    whenever v sits on a geodesic. Independent of the dependency-accumulation
    recursion."""
    adj = adjacency_sets(snapshot)
    nodes = sorted(adj)
    scores = {v: 0.0 for v in nodes}
    per_source = {s: _bfs_sigma(adj, s) for s in nodes}
    for s, t in itertools.combinations(nodes, 2):
        dist_s, sigma_s = per_source[s]
        dist_t, sigma_t = per_source[t]
        d = dist_s[t]
        if d < 0:
            continue
        for v in nodes:
            if v in (s, t) or dist_s[v] < 0 or dist_t[v] < 0:
                continue
            if dist_s[v] + dist_t[v] == d:
                scores[v] += sigma_s[v] * sigma_t[v] / sigma_s[t]
    return scores


def tree_betweenness_brute(snapshot):
    """On forests the geodesic through v is unique, so raw betweenness of v
    is the number of pairs split across the components of (component - v)."""
    adj = adjacency_sets(snapshot)
    scores = {}
    for v in adj:
        remaining = {u: adj[u] - {v} for u in adj if u != v}
        seen = set()
        sizes = []
        for start in adj[v]:
            if start in seen:
                continue
            comp = {start}
            queue = deque([start])
            while queue:
                x = queue.popleft()
                for y in remaining[x]:
                    if y not in comp:
                        comp.add(y)
                        queue.append(y)
            seen |= comp
            sizes.append(len(comp))
        total = sum(sizes)
        scores[v] = (total * total - sum(s * s for s in sizes)) / 2
    return scores


def pearson_brute(x, y):
    n = len(x)
    mean_x = sum(x) / n
    mean_y = sum(y) / n
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    var_x = sum((a - mean_x) ** 2 for a in x)
    var_y = sum((b - mean_y) ** 2 for b in y)
    return cov / math.sqrt(var_x * var_y)


def ranks_brute(values):
    """Rank of v = 1 + (# strictly smaller) + (# equal - 1)/2."""
    return [
        1
        + sum(1 for w in values if w < v)
        + (sum(1 for w in values if w == v) - 1) / 2
        for v in values
    ]


def spearman_brute(x, y):
    return pearson_brute(ranks_brute(x), ranks_brute(y))


def loglog_fit_brute(hist):
    """Reference regression with numpy over the same exported points."""
    ks = sorted(k for k, c in hist.items() if k >= 1 and c >= 1)
    xs = np.log10(ks)
    ys = np.log10([hist[k] for k in ks])
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = intercept + slope * xs
    ss_res = float(((ys - predicted) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return -float(slope), float(intercept), r_squared


def cumulative_snapshots_brute(events, breakpoints, publications=()):
    """(actors, edges) per breakpoint, each filtered afresh from every event
    and every publication: the O(P*E) rescan the one-pass build replaced.
    Each publication is expanded here into one unit-weight event per pair of
    its authors."""
    timed = [(ev.time, ev.a, ev.b, ev.weight) for ev in events if ev.a != ev.b]
    timed += [
        (pub.date, a, b, 1)
        for pub in publications
        for a, b in itertools.combinations(pub.authors, 2)
    ]
    out = []
    for bp in breakpoints:
        actors = {author for pub in publications if pub.date <= bp for author in pub.authors}
        edges = {}
        for t, a, b, w in timed:
            if t <= bp:
                key = tuple(sorted((a, b)))
                edges[key] = edges.get(key, 0) + w
                actors.update((a, b))
        out.append((frozenset(actors), edges))
    return out


def proxies_by_recomputation(snapshots):
    """(label, pref_attachment, homophily, embedding, multi_connectivity) per
    snapshot, recomputed from the snapshot itself: the fit exponent of its
    degree histogram, assortativity, 2W/N and the mean neighbor degree."""
    out = []
    for s in snapshots:
        try:
            pref = fit_powerlaw(degree_histogram(s)).exponent
        except InsufficientDataError:
            pref = None
        homophily = assortativity(s) if s.n_links > 0 else None
        embedding = 2.0 * s.sum_links / s.n_actors if s.n_actors else None
        try:
            multi = avg_neighbor_degree_mean(s)
        except UndefinedMetricError:
            multi = None
        out.append((s.label, pref, homophily, embedding, multi))
    return out


def brandes_exact(snapshot):
    """Raw betweenness (both endpoints, as `_reference_pass` sums it) per
    actor in sorted label order, by Brandes with integer path counts and
    `Fraction` dependencies: nothing is rounded."""
    adj = adjacency_sets(snapshot)
    order = sorted(adj)
    scores = {v: Fraction(0) for v in order}
    for s in order:
        dist, sigma = _bfs_sigma(adj, s)
        reached = sorted((v for v in order if dist[v] > 0), key=dist.__getitem__, reverse=True)
        delta = {v: Fraction(0) for v in order}
        for w in reached:
            for v in adj[w]:
                if dist[v] == dist[w] - 1:
                    delta[v] += Fraction(sigma[v], sigma[w]) * (1 + delta[w])
            scores[w] += delta[w]
    return [scores[v] for v in order]


def centralization_betweenness_exact(raw):
    """Freeman betweenness centralization of raw scores as `brandes_exact`
    gives them, as a Fraction: each normalised score is raw / ((n-1)(n-2)),
    and the spread is divided by n - 1, then clamped to [0, 1]."""
    n = len(raw)
    scores = [b / ((n - 1) * (n - 2)) for b in raw]
    spread = sum(max(scores) - b for b in scores)
    return min(Fraction(1), max(Fraction(0), spread / (n - 1)))


def clustering_exact(snapshot):
    """(mean local clustering over every actor, transitivity) as Fractions,
    from each actor's neighbour pairs; the mean is None without actors, and
    transitivity None when no actor has two neighbours."""
    adj = adjacency_sets(snapshot)
    closed = {v: sum(y in adj[x] for x, y in itertools.combinations(adj[v], 2)) for v in adj}
    triads = {v: len(adj[v]) * (len(adj[v]) - 1) // 2 for v in adj}
    local = [Fraction(closed[v], triads[v]) for v in adj if triads[v]]
    mean = sum(local, Fraction(0)) / len(adj) if adj else None
    total = sum(triads.values())
    return mean, Fraction(sum(closed.values()), total) if total else None


def _hops(adj, source):
    """Hop distances from `source` to every other actor it reaches."""
    return [d for d in _bfs_sigma(adj, source)[0].values() if d > 0]


def closeness_exact(snapshot):
    """Per actor in sorted label order, as Fractions: Wasserman-Faust
    closeness (r - 1)**2 / ((n - 1) * distance sum) over the r actors its
    component holds, 0 when isolated."""
    adj = adjacency_sets(snapshot)
    n = len(adj)
    hops = [_hops(adj, v) for v in sorted(adj)]
    return [Fraction(len(h) ** 2, (n - 1) * sum(h)) if h else Fraction(0) for h in hops]


def centralization_closeness_exact(wf):
    """Freeman closeness centralization of Wasserman-Faust scores as
    `closeness_exact` gives them, over the star maximum (n-1)(n-2)/(2n-3),
    clamped to [0, 1]."""
    n = len(wf)
    spread = sum(max(wf) - c for c in wf)
    return min(Fraction(1), max(Fraction(0), spread * (2 * n - 3) / ((n - 1) * (n - 2))))


def mean_distance_exact(snapshot):
    """Mean hop distance over every ordered pair of distinct actors that
    reach each other, as a Fraction; None without a link."""
    adj = adjacency_sets(snapshot)
    hops = [d for v in adj for d in _hops(adj, v)]
    return Fraction(sum(hops), len(hops)) if hops else None


def neighbor_degree_exact(snapshot):
    """({actor: mean degree of its neighbours} over the actors that have
    neighbours, the mean of those values or None), as Fractions."""
    adj = adjacency_sets(snapshot)
    per_actor = {v: Fraction(sum(len(adj[u]) for u in adj[v]), len(adj[v])) for v in adj if adj[v]}
    mean = sum(per_actor.values()) / len(per_actor) if per_actor else None
    return per_actor, mean


def _json_text(value, field):
    if type(value) is str:
        return value
    if type(value) not in (int, float):
        raise ValueError(f"{field} {json.dumps(value)} is not a string or number")
    if type(value) is float and not math.isfinite(value):
        raise ValueError(f"{field} {json.dumps(value)} is not finite")
    return str(value)


def _time_kind(t):
    if isinstance(t, datetime):
        return "offset-aware date" if t.tzinfo is not None else "naive date"
    return "non-finite" if isinstance(t, float) and not math.isfinite(t) else "numeric"


def parse_publications_reference(text, source="<string>"):
    """The per-line `json.loads` decoder that `parse_publications_text`
    replaced: (records, warnings), or ParseError past the 10% budget or on
    mixed time kinds. Each author name is trimmed, the blank and repeated
    ones dropped, and kept as the first string object of its text in the
    parse."""
    interned = {}
    seen_ids = set()
    lines = [(n, line) for n, line in enumerate(text.split("\n"), start=1) if line.strip()]
    records, warnings = [], []
    malformed = 0
    for lineno, line in lines:
        noise = False
        try:
            try:
                obj = json.loads(line)
                pub_id = _json_text(obj["pub_id"], "pub_id").strip()
                if not pub_id:
                    raise ValueError("blank pub_id")
                date = parse_timestamp(str(obj["date"]))
                authors = obj["authors"]
            except (KeyError, TypeError) as exc:
                raise ValueError(exc) from None
            if not isinstance(authors, list):
                raise ValueError("authors must be a list")
            names = [_json_text(name, "author").strip() for name in authors]
            names = [interned.setdefault(name, name) for name in names if name]
            record = PublicationRecord(pub_id, date, list(dict.fromkeys(names)))
            noise = True
            if not record.authors:
                raise ValueError("empty author list")
            if pub_id in seen_ids:
                raise ValueError(f"duplicate pub_id {pub_id!r}")
        except ValueError as exc:
            warnings.append(f"{source}:{lineno}: {exc}, record skipped")
            malformed += not noise
            continue
        seen_ids.add(pub_id)
        records.append(record)
    if lines and malformed / len(lines) > 0.10:
        raise ParseError(f"{source}: {malformed} of {len(lines)} records malformed (> 10%)")
    kinds = {_time_kind(r.date) for r in records}
    if len(kinds) > 1:
        raise ParseError(f"{source}: times mix " + " and ".join(sorted(kinds)) + " times")
    return records, warnings
