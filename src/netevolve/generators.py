"""Seeded synthetic graph generators: random, small-world, preferential
attachment.

These serve as ground-truth oracles for metric and fit validation. All
randomness comes from SplitMix64 (see rng.py), so a given seed reproduces
the same graph on every platform and run. Actor labels are zero-padded
("n000017") so lexicographic and numeric order coincide.
"""

from __future__ import annotations

import math

from .graph_core import GraphSnapshot
from .rng import SplitMix64


def _label(i: int) -> str:
    return f"n{i:06d}"


def _snapshot(label: str, n: int, pairs: set[tuple[int, int]]) -> GraphSnapshot:
    actors = frozenset(_label(i) for i in range(n))
    edges = {(_label(i), _label(j)): 1 for i, j in pairs}
    return GraphSnapshot(label, actors, edges)


def _pair_from_index(idx: int, n: int) -> tuple[int, int]:
    """The idx-th pair (i < j) in lexicographic order over n nodes."""
    total = n * (n - 1) // 2
    r = total - 1 - idx
    k = (math.isqrt(8 * r + 1) - 1) // 2
    offset = r - k * (k + 1) // 2
    return n - 2 - k, n - 1 - offset


def erdos_renyi(n: int, p: float, seed: int) -> GraphSnapshot:
    """Each of the n(n-1)/2 pairs is an edge independently with probability p.

    Sampled with geometric index skipping, so only O(edges) draws are made;
    the joint distribution equals per-pair Bernoulli draws.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    rng = SplitMix64(seed)
    total = n * (n - 1) // 2
    pairs: set[tuple[int, int]] = set()
    if p >= 1.0:
        pairs = {(i, j) for i in range(n) for j in range(i + 1, n)}
    elif p > 0.0:
        log_q = math.log1p(-p)
        idx = -1
        while True:
            skip = int(math.log1p(-rng.random()) / log_q)
            idx += 1 + skip
            if idx >= total:
                break
            pairs.add(_pair_from_index(idx, n))
    return _snapshot(f"er-n{n}-s{seed}", n, pairs)


def watts_strogatz(n: int, k: int, beta: float, seed: int) -> GraphSnapshot:
    """Ring lattice with k nearest neighbors, each lattice edge rewired with
    probability beta to a uniform non-duplicate, non-self target.

    An edge whose source already neighbors every other node is retained
    unchanged. Connectivity is not enforced.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if k % 2 != 0 or not 2 <= k < n:
        raise ValueError("neighbor count k must be even with 2 <= k < n")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("rewiring probability must be in [0, 1]")
    rng = SplitMix64(seed)
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for lane in range(1, k // 2 + 1):
        for i in range(n):
            j = (i + lane) % n
            adjacency[i].add(j)
            adjacency[j].add(i)
    if beta > 0.0:
        for lane in range(1, k // 2 + 1):
            for i in range(n):
                j = (i + lane) % n
                if rng.random() >= beta:
                    continue
                if len(adjacency[i]) >= n - 1:
                    continue  # no valid target; keep the lattice edge
                while True:
                    target = rng.randrange(n)
                    if target != i and target not in adjacency[i]:
                        break
                adjacency[i].discard(j)
                adjacency[j].discard(i)
                adjacency[i].add(target)
                adjacency[target].add(i)
    pairs = {(i, j) for i in range(n) for j in adjacency[i] if i < j}
    return _snapshot(f"ws-n{n}-s{seed}", n, pairs)


def barabasi_albert(n: int, m: int, seed: int) -> GraphSnapshot:
    """Growth with preferential attachment: start from a clique on m+1 nodes,
    then attach each arriving node to m distinct existing nodes chosen with
    probability proportional to current degree.

    Selection indexes uniformly into a degree-weighted multiset (one entry
    per degree unit), redrawing on duplicates -- the O(1) equivalent of
    cumulative-weight inversion. Edge count is exactly
    m(m+1)/2 + (n-m-1)*m.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if not 1 <= m < n:
        raise ValueError("edges-per-arrival m must satisfy 1 <= m < n")
    rng = SplitMix64(seed)
    pairs: set[tuple[int, int]] = set()
    weighted: list[int] = []
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            pairs.add((i, j))
        weighted.extend([i] * m)
    for new in range(m + 1, n):
        chosen: set[int] = set()
        while len(chosen) < m:  # a repeat draw leaves the set as it is
            chosen.add(weighted[rng.randrange(len(weighted))])
        for target in sorted(chosen):
            pairs.add((target, new))
            weighted.append(target)
        weighted.extend([new] * m)
    return _snapshot(f"ba-n{n}-s{seed}", n, pairs)

