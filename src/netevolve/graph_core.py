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
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterable, Mapping, Sequence, Union

Timestamp = Union[datetime, int, float]

logger = logging.getLogger(__name__)


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _time_category(t: Timestamp) -> str:
    if isinstance(t, datetime):
        return "offset-aware date" if t.tzinfo is not None else "naive date"
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
            raise ValueError("actor labels must be non-empty")
        if self.weight < 1:
            raise ValueError(f"event weight must be >= 1, got {self.weight}")

    @property
    def pair(self) -> tuple[str, str]:
        """The endpoints as a canonically ordered pair."""
        return _pair(self.a, self.b)


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

    def has_edge(self, a: str, b: str) -> bool:
        return _pair(a, b) in self.edges

    def sorted_actors(self) -> list[str]:
        return list(self._adj)


def build_cumulative_snapshots(
    events: Iterable[InteractionEvent],
    breakpoints: Sequence[Timestamp],
    labels: Sequence[str],
    *,
    actor_arrivals: Iterable[tuple[Timestamp, str]] = (),
) -> list[GraphSnapshot]:
    """Build one cumulative snapshot per breakpoint.

    Snapshot k contains every event with time <= breakpoints[k] (inclusive);
    duplicate pair occurrences accumulate into edge weight. Events may arrive
    in any order. Self-loop events are dropped with a logged warning rather
    than raising: raw interaction logs may contain noise.

    `actor_arrivals` registers actors that appear without any interaction
    (e.g. single-author publications) so they are counted from their arrival
    time onward.
    """
    if not breakpoints:
        raise ValueError("at least one breakpoint is required")
    if len(labels) != len(breakpoints):
        raise ValueError(
            f"got {len(labels)} labels for {len(breakpoints)} breakpoints"
        )
    for earlier, later in zip(breakpoints, breakpoints[1:]):
        if not earlier < later:
            raise ValueError("breakpoints must be strictly increasing")

    usable: list[InteractionEvent] = []
    for ev in events:
        if ev.a == ev.b:
            logger.warning("dropping self-loop interaction on %r at %s", ev.a, ev.time)
            continue
        usable.append(ev)
    arrivals = [(t, label.strip()) for t, label in actor_arrivals]

    categories = {_time_category(t) for t in breakpoints}
    categories |= {_time_category(ev.time) for ev in usable}
    categories |= {_time_category(t) for t, _ in arrivals}
    if len(categories) > 1:
        raise ValueError(
            "event times and breakpoints mix " + " and ".join(sorted(categories)) + " times"
        )

    snapshots = []
    for bp, label in zip(breakpoints, labels):
        edges: dict[tuple[str, str], int] = {}
        actors: set[str] = set()
        for ev in usable:
            if ev.time <= bp:
                key = ev.pair
                edges[key] = edges.get(key, 0) + ev.weight
                actors.add(ev.a)
                actors.add(ev.b)
        for t, actor in arrivals:
            if t <= bp:
                actors.add(actor)
        snapshots.append(GraphSnapshot(label, frozenset(actors), edges))
    return snapshots


def connected_components(s: GraphSnapshot) -> list[set[str]]:
    """All connected components, ordered by discovery from the sorted actor
    list; isolated actors form size-1 components."""
    seen: set[str] = set()
    components = []
    for start in s.sorted_actors():
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in s.neighbors(v):
                if u not in comp:
                    comp.add(u)
                    queue.append(u)
        seen |= comp
        components.append(comp)
    return components


def giant_component(s: GraphSnapshot) -> GraphSnapshot:
    """Induced subgraph on the largest connected component.

    Size ties break toward the component containing the lexicographically
    smallest actor label. An empty snapshot is returned unchanged; the
    operation is idempotent.
    """
    if not s.actors:
        return s
    best: set[str] | None = None
    for comp in connected_components(s):
        if best is None or len(comp) > len(best):
            best = comp
    assert best is not None
    edges = {pair: w for pair, w in s.edges.items() if pair[0] in best}
    return GraphSnapshot(s.label, frozenset(best), edges)
