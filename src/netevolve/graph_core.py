"""Actor/edge storage, cumulative snapshot construction, and components.

Graphs are undirected and simple with positive integer weights: repeated
interactions between the same pair accumulate weight instead of creating
parallel edges, so the distinct-pair count (`n_links`) and the total
interaction count (`sum_links`) stay separately queryable.

Snapshots are immutable after construction and safe to share across threads;
every consumer takes read-only references. Adjacency is stored with sorted
neighbor order so that all downstream iteration (and therefore every floating
point reduction) is independent of the order events arrived in.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from datetime import datetime
from itertools import chain, combinations
from operator import itemgetter
from typing import Iterable, Mapping, Sequence, Union

Timestamp = Union[datetime, int, float]

logger = logging.getLogger(__name__)


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _time_category(t: Timestamp) -> str:
    if isinstance(t, datetime):
        return "offset-aware date" if t.tzinfo is not None else "naive date"
    if isinstance(t, float) and not math.isfinite(t):
        return "non-finite"
    return "numeric"


@dataclass(frozen=True)
class InteractionEvent:
    """One timestamped, weighted, undirected interaction between two actors.

    Actor labels are trimmed of surrounding whitespace; (a, b) and (b, a)
    describe the same interaction. Self-loops (a == b) are representable so
    that ingest layers can reject them with a warning instead of crashing.
    """

    time: Timestamp
    a: str
    b: str
    weight: int = 1

    def __post_init__(self):
        object.__setattr__(self, "a", self.a.strip())
        object.__setattr__(self, "b", self.b.strip())
        if not self.a or not self.b:
            raise ValueError("empty actor label")
        if self.weight < 1:
            raise ValueError(f"weight {self.weight} < 1")


@dataclass(frozen=True)
class PublicationRecord:
    """One publication: an id, a date, and its author list.

    Author names are trimmed, blank names dropped and repeats removed
    case-sensitively, first occurrence kept. The authors form a clique: each
    pair of them shares one unit of edge weight per joint publication.
    """

    pub_id: str
    date: Timestamp
    authors: tuple[str, ...]

    def __post_init__(self):
        names = dict.fromkeys(map(str.strip, self.authors))
        names.pop("", None)
        object.__setattr__(self, "authors", tuple(names))


@dataclass(frozen=True)
class GraphSnapshot:
    """Immutable weighted undirected simple graph at one breakpoint.

    `edges` maps canonically ordered actor pairs to accumulated positive
    weights; every endpoint must be present in `actors` (which may also
    contain isolated actors).
    """

    label: str
    actors: frozenset[str]
    edges: dict[tuple[str, str], int]
    _adj: dict[str, dict[str, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        normalized: dict[tuple[str, str], int] = {}
        for (a, b), w in self.edges.items():
            if a == b:
                raise ValueError(f"self-loop on actor {a!r}")
            if a not in self.actors or b not in self.actors:
                raise ValueError(f"edge endpoint not registered as actor: ({a!r}, {b!r})")
            if w < 1:
                raise ValueError(f"edge weight must be >= 1, got {w} for ({a!r}, {b!r})")
            key = _pair(a, b)
            if key in normalized:
                raise ValueError(f"duplicate edge {key!r}")
            normalized[key] = w
        adj: dict[str, dict[str, int]] = {v: {} for v in sorted(self.actors)}
        for (a, b), w in sorted(normalized.items()):
            adj[a][b] = w
            adj[b][a] = w
        object.__setattr__(self, "edges", normalized)
        object.__setattr__(self, "_adj", adj)

    @classmethod
    def from_edge_list(
        cls,
        label: str,
        weighted_edges: Iterable[tuple[str, str, int]],
        extra_actors: Iterable[str] = (),
    ) -> "GraphSnapshot":
        """Build a snapshot from (a, b, weight) triples plus optional isolated
        actors; repeated pairs accumulate weight."""
        edges: dict[tuple[str, str], int] = {}
        actors = {a.strip() for a in extra_actors}
        for a, b, w in weighted_edges:
            a, b = a.strip(), b.strip()
            actors.add(a)
            actors.add(b)
            key = _pair(a, b)
            edges[key] = edges.get(key, 0) + w
        return cls(label, frozenset(actors), edges)

    @property
    def n_actors(self) -> int:
        return len(self.actors)

    @property
    def n_links(self) -> int:
        """Number of distinct connected pairs."""
        return len(self.edges)

    @property
    def sum_links(self) -> int:
        """Total interaction count (sum of edge weights)."""
        return sum(self.edges.values())

    def neighbors(self, v: str) -> Mapping[str, int]:
        """Neighbor -> edge weight for `v`, in sorted neighbor order.

        Raises KeyError for unknown actors. Treat the result as read-only.
        """
        return self._adj[v]

    def degree(self, v: str) -> int:
        """Number of distinct neighbors (unweighted)."""
        return len(self._adj[v])

    def strength(self, v: str) -> int:
        """Sum of incident edge weights."""
        return sum(self._adj[v].values())

    def sorted_actors(self) -> list[str]:
        return list(self._adj)


def _check_times(times: Iterable[Timestamp], what: str) -> None:
    """Only finite times of one kind can be ordered against each other."""
    categories = {_time_category(t) for t in times}
    if "non-finite" in categories:
        raise ValueError(f"{what} must be finite (got NaN or infinity)")
    if len(categories) > 1:
        raise ValueError(f"{what} mix " + " and ".join(sorted(categories)) + " times")


def check_breakpoints(breakpoints: Sequence[Timestamp], labels: Sequence[str] | None) -> None:
    """Raise ValueError unless there is at least one breakpoint, the
    breakpoints are finite, of one time kind and strictly increasing, and
    the labels, unless None, name them one to one, each label once and none
    blank: a label names its period's output, so a repeat would overwrite
    another period.
    """
    if not breakpoints:
        raise ValueError("at least one breakpoint is required")
    if labels is not None and len(labels) != len(breakpoints):
        raise ValueError(f"got {len(labels)} labels for {len(breakpoints)} breakpoints")
    if labels is not None and not all(label.strip() for label in labels):
        raise ValueError(f"period labels must not be blank, got {list(labels)!r}")
    if labels is not None and len(set(labels)) != len(labels):
        raise ValueError(f"period labels must be distinct, got {list(labels)!r}")
    _check_times(breakpoints, "breakpoints")
    for earlier, later in zip(breakpoints, breakpoints[1:]):
        if not earlier < later:
            raise ValueError("breakpoints must be strictly increasing")


def build_cumulative_snapshots(
    events: Iterable[InteractionEvent],
    breakpoints: Sequence[Timestamp],
    labels: Sequence[str],
    *,
    publications: Iterable[PublicationRecord] = (),
) -> list[GraphSnapshot]:
    """Build one cumulative snapshot per breakpoint.

    Snapshot k contains every event and publication with time <=
    breakpoints[k] (inclusive). An event links its two actors; a publication
    adds its authors as actors and links every pair of them, so a single
    author joins with no link. Repeated pairs accumulate into edge weight.
    Input may arrive in any order: it is sorted by time once and folded into
    the running graph, each event and publication exactly once. Self-loop
    events are dropped with a logged warning rather than raising: raw
    interaction logs may contain noise. Breakpoints and labels must pass
    `check_breakpoints`. A NaN or infinite time anywhere is a ValueError, as
    is a mix of numbers, naive dates and offset-aware dates.
    """
    check_breakpoints(breakpoints, labels)

    # (time, members, weight): every pair of members gains `weight`
    groups: list[tuple[Timestamp, tuple[str, ...], int]] = []
    for ev in events:
        if ev.a == ev.b:
            logger.warning("dropping self-loop interaction on %r at %s", ev.a, ev.time)
            continue
        groups.append((ev.time, (ev.a, ev.b), ev.weight))
    groups.extend((pub.date, pub.authors, 1) for pub in publications)

    _check_times(chain(breakpoints, map(itemgetter(0), groups)), "event times and breakpoints")

    # latest first, so the next group due is popped off the end
    groups.sort(key=itemgetter(0), reverse=True)
    edges: dict[tuple[str, str], int] = {}
    actors: set[str] = set()
    snapshots = []
    for bp, label in zip(breakpoints, labels):
        while groups and groups[-1][0] <= bp:
            _, members, weight = groups.pop()
            actors.update(members)
            for key in combinations(sorted(members), 2):
                edges[key] = edges.get(key, 0) + weight
        snapshots.append(GraphSnapshot(label, frozenset(actors), dict(edges)))
    return snapshots


def _indexed(s: GraphSnapshot) -> tuple[list[str], list[list[int]]]:
    """Sorted actor labels and integer adjacency lists (neighbors ascending)."""
    order = s.sorted_actors()
    index = {v: i for i, v in enumerate(order)}
    adj = [[index[u] for u in s.neighbors(v)] for v in order]
    return order, adj


def _levels(adj: list[list[int]], source: int, seen: list[bool]) -> list[list[int]]:
    """BFS frontiers from `source`, one list per hop distance (level 0 is
    [source]); marks every reached index in `seen`."""
    seen[source] = True
    levels = [[source]]
    while True:
        frontier = []
        for v in levels[-1]:
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    frontier.append(w)
        if not frontier:
            return levels
        levels.append(frontier)


def _giant_and_depth(adj: list[list[int]]) -> tuple[list[int], int]:
    """Indices of the giant component and the deepest BFS level reached from
    any component's first actor.

    On a size tie the first component discovered wins: over the sorted actor
    list, the one holding the smallest label.
    """
    seen = [False] * len(adj)
    components = [_levels(adj, start, seen) for start in range(len(adj)) if not seen[start]]
    largest = max(components, key=lambda levels: sum(map(len, levels)), default=[])
    return list(chain.from_iterable(largest)), max(map(len, components), default=1) - 1


def giant_component(s: GraphSnapshot) -> GraphSnapshot:
    """Induced subgraph on the largest connected component.

    Size ties break toward the component containing the lexicographically
    smallest actor label. An empty snapshot is returned unchanged; the
    operation is idempotent.
    """
    if not s.actors:
        return s
    order, adj = _indexed(s)
    best = {order[i] for i in _giant_and_depth(adj)[0]}
    edges = {pair: w for pair, w in s.edges.items() if pair[0] in best}
    return GraphSnapshot(s.label, frozenset(best), edges)
