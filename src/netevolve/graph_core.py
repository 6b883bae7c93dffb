"""Actor/edge storage, cumulative snapshot construction, and components.

Graphs are undirected and simple with positive integer weights: repeated
interactions between the same pair accumulate weight instead of creating
parallel edges, so the distinct-pair count (`n_links`) and the total
interaction count (`sum_links`) stay separately queryable.

A snapshot is one integer core: its actor labels in sorted order, so an
actor's id is its rank in label order, plus CSR arrays of the ids' sorted
neighbors and the matching edge weights. Snapshots are immutable after
construction and safe to share across threads. Because ids follow label
order, every downstream iteration (and therefore every floating point
reduction) is independent of the order events arrived in.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from datetime import datetime
from itertools import chain, combinations, repeat
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

Timestamp = Union[datetime, int, float]


def _time_category(t: Timestamp) -> str:
    if isinstance(t, datetime):
        return "offset-aware date" if t.tzinfo is not None else "naive date"
    if not isinstance(t, (int, float)) or isinstance(t, bool):
        raise ValueError(f"time {t!r} is not an int, a float or a datetime")
    if isinstance(t, float) and not math.isfinite(t):
        return "non-finite"
    return "numeric"


def _label(value) -> str:
    """An actor label trimmed of surrounding whitespace and interned, so each
    label is one string object while any record holds it; a value that is
    not a string is a ValueError naming it."""
    if not isinstance(value, str):
        raise ValueError(f"actor label {value!r} is not a string")
    return sys.intern(str.strip(value))


def _integer(weight) -> int:
    """A weight as an int (numpy integers convert); a bool, float or string
    is a ValueError naming it."""
    index = getattr(type(weight), "__index__", None)
    if index is None or isinstance(weight, bool):
        raise ValueError(f"weight {weight!r} is not an integer")
    return index(weight)


def _edge_weight(weight, a: str, b: str) -> int:
    """The weight of the edge (a, b) as an int of at least 1."""
    if (weight := _integer(weight)) < 1:
        raise ValueError(f"edge weight must be >= 1, got {weight} for ({a!r}, {b!r})")
    return weight


def _event(a: str, b: str, weight) -> tuple[str, str, int]:
    """The event rule: both labels trimmed and not blank, and the weight an
    int of at least 1; a ValueError names the first fault, labels first."""
    a, b = a.strip(), b.strip()
    if not a or not b:
        raise ValueError("empty actor label")
    if (weight := _integer(weight)) < 1:
        raise ValueError(f"weight {weight} < 1")
    return a, b, weight


def _refuse(self, name, value=None):
    from dataclasses import FrozenInstanceError  # loaded only to raise it
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _make(cls, iterable):
    """A record's `_make`, and so its `_replace`, through its constructor:
    NamedTuple's own calls `tuple.__new__`, which would skip the rules. Its
    name is the attribute's, as pickle finds a bound method by name."""
    return cls(*iterable)


def _rebuild(self):
    """Pickle and copy a record through `_make`, and so its constructor, in
    every protocol: below protocol 2 a tuple's own reduction calls
    `tuple.__new__`."""
    return self._make, (tuple(self),)


class _EventFields(NamedTuple):
    time: Timestamp
    a: str
    b: str
    weight: int = 1


class InteractionEvent(_EventFields):
    """One timestamped, weighted, undirected interaction between two actors.

    Actor labels are strings, trimmed of surrounding whitespace and
    interned, and must not be blank; the weight is an integer of at least 1. (a, b) and (b, a)
    describe the same interaction. Self-loops (a == b) are representable: the
    file decoders reject them before any record exists, and
    `build_cumulative_snapshots` drops them with a logged warning.
    """

    __slots__ = ()

    def __new__(cls, time: Timestamp, a: str, b: str, weight: int = 1):
        return super().__new__(cls, time, *_event(_label(a), _label(b), weight))

    _make = classmethod(_make)
    __setattr__ = __delattr__ = _refuse
    __reduce__ = _rebuild


class _PublicationFields(NamedTuple):
    pub_id: str
    date: Timestamp
    authors: tuple[str, ...]


class PublicationRecord(_PublicationFields):
    """One publication: an id, a date, and its author list.

    `authors` is a sequence of string names, not one string. Names follow
    the actor label rule and are trimmed and interned; blank names are
    dropped and repeats removed case-sensitively, first occurrence kept. The
    authors form a clique: each pair of them shares one unit of edge weight
    per joint publication.
    """

    __slots__ = ()

    def __new__(cls, pub_id: str, date: Timestamp, authors: Sequence[str]):
        if isinstance(authors, str):
            raise ValueError(f"authors must be a sequence of names, not {authors!r}")
        names = _author_names(list(authors))
        return super().__new__(cls, pub_id, date, tuple(map(sys.intern, names)))

    _make = classmethod(_make)
    __setattr__ = __delattr__ = _refuse
    __reduce__ = _rebuild


def _author_names(values: list) -> dict[str, None]:
    """The author rule, as the keys of a dict: each name trimmed, blanks
    dropped, the first of repeats kept; a value that is not a string is a
    ValueError naming it."""
    try:
        names = dict.fromkeys(map(str.strip, values))
    except TypeError:  # `_label` names the value that is not a string
        names = dict.fromkeys(map(_label, values))
    names.pop("", None)
    return names


class GraphSnapshot:
    """Immutable weighted undirected simple graph at one breakpoint.

    `GraphSnapshot(label, actors, edges)` checks its input and applies the
    actor label rule: every actor and edge endpoint is a string, trimmed of
    surrounding whitespace and interned, and no actor is blank. `edges` maps
    actor pairs, in either order, to integer weights of at least 1, one
    weight per pair once trimmed, and every endpoint must be in `actors`
    (which may also hold isolated actors). The graph is kept as integer
    CSR: actor i is `_names[i]`, the labels sorted, and its neighbors,
    ascending, and their edge weights sit at positions `_indptr[i]` to
    `_indptr[i + 1]` of `_indices` and `_weights`. `sum_links` is the total
    interaction count (the sum of edge weights).
    """

    __slots__ = ("label", "_names", "_indptr", "_indices", "_weights", "sum_links")
    __setattr__ = __delattr__ = _refuse

    def __init__(self, label: str, actors: Iterable[str], edges: Mapping[tuple[str, str], int]):
        actors = set(map(_label, actors))
        if "" in actors:
            raise ValueError("empty actor label")
        names = sorted(actors)
        ids = {v: i for i, v in enumerate(names)}
        links: dict[tuple[int, int], int] = {}
        for (a, b), w in edges.items():
            a, b = _label(a), _label(b)
            if a == b:
                raise ValueError(f"self-loop on actor {a!r}")
            if a not in ids or b not in ids:
                raise ValueError(f"edge endpoint not registered as actor: ({a!r}, {b!r})")
            w = _edge_weight(w, a, b)
            i, j = pair = tuple(sorted((ids[a], ids[b])))
            if pair in links:
                raise ValueError(f"duplicate edge {(names[i], names[j])!r}")
            links[pair] = w
        self._store(label, names, range(len(names)), links)

    def _store(self, label: str, names: Sequence[str], ids: Iterable[int], links: dict):
        """Keep the graph on the actors `ids`, in any order, of the label table
        `names`, whose links map id pairs, in either order, to a weight. Only
        here are actors ordered: by label, so an actor's id is its label's
        rank. The fold calls this on a bare instance."""
        ids = sorted(ids, key=names.__getitem__)
        rank = dict(zip(ids, range(len(ids))))
        half = [(rank[i], rank[j], w) for (i, j), w in links.items()]
        arcs = sorted(half + [(j, i, w) for i, j, w in half])  # both directions, row by row
        indptr = [bisect_left(arcs, (i,)) for i in range(len(ids) + 1)]
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_names", tuple(map(names.__getitem__, ids)))
        object.__setattr__(self, "_indptr", array("q", indptr))
        object.__setattr__(self, "_indices", array("q", [j for _, j, _ in arcs]))
        object.__setattr__(self, "_weights", [w for _, _, w in arcs])
        object.__setattr__(self, "sum_links", sum(links.values()))

    @classmethod
    def from_edge_list(
        cls,
        label: str,
        weighted_edges: Iterable[tuple[str, str, int]],
        extra_actors: Iterable[str] = (),
    ) -> "GraphSnapshot":
        """Build a snapshot from (a, b, weight >= 1) triples plus optional
        isolated actors, with labels trimmed; repeated pairs accumulate weight."""
        edges: dict[tuple[str, str], int] = {}
        actors = set(map(_label, extra_actors))
        for a, b, w in weighted_edges:
            a, b = _label(a), _label(b)
            actors.add(a)
            actors.add(b)
            key = (a, b) if a <= b else (b, a)
            edges[key] = edges.get(key, 0) + _edge_weight(w, a, b)
        return cls(label, actors, edges)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(label={self.label!r}, "
            f"_names={self._names!r}, sum_links={self.sum_links!r})"
        )

    def __reduce__(self):
        """Pickle and copy through the constructor, which checks the graph again."""
        return type(self), (self.label, self._names, self.edges)

    @property
    def n_actors(self) -> int:
        return len(self._names)

    @property
    def n_links(self) -> int:
        """Number of distinct connected pairs."""
        return len(self._indices) // 2

    @property
    def actors(self) -> frozenset[str]:
        return frozenset(self._names)

    @property
    def edges(self) -> dict[tuple[str, str], int]:
        """(a, b) -> edge weight with a < b, in sorted pair order."""
        names, indices = self._names, self._indices
        return {
            (names[i], names[indices[k]]): self._weights[k]
            for i in range(len(names))
            for k in range(self._indptr[i], self._indptr[i + 1])
            if indices[k] > i
        }

    def _index(self, v: str) -> int:
        """The id of actor `v`; KeyError for unknown actors."""
        i = bisect_left(self._names, v)
        if self._names[i : i + 1] != (v,):
            raise KeyError(v)
        return i

    def _rows(self) -> list[array]:
        """Each actor's neighbor ids, ascending, in id order."""
        indptr, indices = self._indptr, self._indices
        return [indices[indptr[i] : indptr[i + 1]] for i in range(len(self._names))]

    def degree(self, v: str) -> int:
        """Number of distinct neighbors (unweighted)."""
        i = self._index(v)
        return self._indptr[i + 1] - self._indptr[i]

    def strength(self, v: str) -> int:
        """Sum of incident edge weights."""
        i = self._index(v)
        return sum(self._weights[self._indptr[i] : self._indptr[i + 1]])

    def sorted_actors(self) -> list[str]:
        return list(self._names)


def _check_times(times: Iterable[Timestamp], what: str) -> None:
    """Only finite times of one kind can be ordered against each other."""
    # once per distinct time: times of two kinds never compare equal
    categories = set(map(_time_category, set(times)))
    if "non-finite" in categories:
        raise ValueError(f"{what} must be finite (got NaN or infinity)")
    if len(categories) > 1:
        raise ValueError(f"{what} mix " + " and ".join(sorted(categories)) + " times")


def check_labels(labels: Sequence[str]) -> None:
    """Raise ValueError unless the period labels are a sequence of strings,
    not one string, each distinct, not blank and free of tabs, CRs and LFs:
    a label names its period's output, so a repeat would overwrite another
    period, and it is one cell of the tab-separated report."""
    if isinstance(labels, str) or not all(isinstance(label, str) for label in labels):
        raise ValueError(f"period labels must be a sequence of strings, got {labels!r}")
    if not all(label.strip() for label in labels):
        raise ValueError(f"period labels must not be blank, got {list(labels)!r}")
    if any(c in label for label in labels for c in "\t\r\n"):
        raise ValueError(f"period labels must not hold a tab, CR or LF, got {list(labels)!r}")
    if len(set(labels)) != len(labels):
        raise ValueError(f"period labels must be distinct, got {list(labels)!r}")


def check_breakpoints(breakpoints: Sequence[Timestamp], labels: Sequence[str] | None) -> None:
    """Raise ValueError unless the breakpoints are a sequence of at least
    one time, not one string, finite, of one kind and strictly increasing,
    and the labels, unless None, name them one to one and pass
    `check_labels`."""
    if isinstance(breakpoints, str):
        raise ValueError(f"breakpoints must be a sequence of times, got {breakpoints!r}")
    if not breakpoints:
        raise ValueError("at least one breakpoint is required")
    if labels is not None and len(labels) != len(breakpoints):
        raise ValueError(f"got {len(labels)} labels for {len(breakpoints)} breakpoints")
    if labels is not None:
        check_labels(labels)
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

    def groups():
        for ev in events:
            if ev.a == ev.b:
                import logging  # only this warning logs, so the CLI never imports it
                logging.getLogger(__name__).warning(
                    "dropping self-loop interaction on %r at %s", ev.a, ev.time
                )
            else:
                yield ev.time, (ev.a, ev.b), ev.weight
        for pub in publications:
            yield pub.date, pub.authors, 1

    store = _Interactions()
    store.add(groups())
    # no decoder checked these times, and the store reads only one of them
    _check_times(chain(breakpoints, store.times), "event times and breakpoints")
    return store.snapshots(breakpoints, labels)


class _Interactions:
    """Interactions kept as they stream in, one entry per event or
    publication and no record object: its time in `times` (equal times
    decoded from one string share an object), its weight in `weights`, and
    its members' ids in the flat `members`, entry k's at
    `members[offsets[k]:offsets[k + 1]]`. Ids count labels in first-seen
    order; each snapshot ranks its own actors by label. Every pair of an
    entry's members gains its weight."""

    def __init__(self):
        self.times: list[Timestamp] = []
        self.weights: list[int] = []
        self.members = array("q")
        self.offsets = array("q", [0])
        self._ids: defaultdict[str, int] = defaultdict()
        self._ids.default_factory = self._ids.__len__  # a new label takes the next id

    def add(self, groups: Iterable[tuple]) -> None:
        """Keep each group of `groups`: a time, the member labels (trimmed,
        not blank) and a weight, and any further fields, which are not kept."""
        times, weights, members, offsets = self.times, self.weights, self.members, self.offsets
        member_id = self._ids.__getitem__
        for time, names, weight, *_ in groups:
            times.append(time)
            weights.append(weight)
            members.extend(map(member_id, names))
            offsets.append(len(members))

    def snapshots(self, breakpoints: Sequence[Timestamp], labels: Sequence[str]) -> list[GraphSnapshot]:
        """One cumulative snapshot per breakpoint, as in
        `build_cumulative_snapshots`, whose checks of breakpoints and labels
        the caller has made. Every time added must be finite and of one kind,
        as the decoders and `build_cumulative_snapshots` check, so one stored
        time stands for them all against the breakpoints."""
        times, weights, members, offsets = self.times, self.weights, self.members, self.offsets
        _check_times(chain(breakpoints, times[:1]), "event times and breakpoints")

        # first-seen ids, which each snapshot ranks by label; links are keyed
        # by id pairs (i, j), i < j. Each label is interned once, so it is one
        # string object across loads
        names = list(map(sys.intern, self._ids))
        order = sorted(range(len(times)), key=times.__getitem__)  # stable: input order within a time
        links: Counter[tuple[int, int]] = Counter()
        present: set[int] = set()
        snapshots = []
        done = 0
        for bp, label in zip(breakpoints, labels):
            due = bisect_right(order, bp, done, key=times.__getitem__)
            unit = []  # the period's unit-weight groups, whose pairs are counted at once
            for k in order[done:due]:
                group = sorted(members[offsets[k] : offsets[k + 1]])
                present.update(group)
                if weights[k] == 1:
                    unit.append(group)
                else:
                    for pair in combinations(group, 2):
                        links[pair] += weights[k]
            links.update(chain.from_iterable(map(combinations, unit, repeat(2))))
            done = due
            snapshot = GraphSnapshot.__new__(GraphSnapshot)  # built by the fold, not checked again
            snapshot._store(label, names, present, links)
            snapshots.append(snapshot)
        return snapshots


def _giant(adj: Sequence[Sequence[int]]) -> list[int]:
    """Indices of the largest connected component, in BFS order from its
    first index.

    On a size tie the first component discovered wins: over the sorted actor
    list, the one holding the smallest label.
    """
    seen = [False] * len(adj)
    largest: list[int] = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        for v in component:
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    component.append(w)
        if len(component) > len(largest):
            largest = component
    return largest


def giant_component(s: GraphSnapshot) -> GraphSnapshot:
    """Induced subgraph on the largest connected component.

    Size ties break toward the component containing the lexicographically
    smallest actor label. An empty snapshot is returned unchanged; the
    operation is idempotent.
    """
    if not s.n_actors:
        return s
    best = {s._names[i] for i in _giant(s._rows())}
    edges = {pair: w for pair, w in s.edges.items() if pair[0] in best}
    return GraphSnapshot(s.label, best, edges)
