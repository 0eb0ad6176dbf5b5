"""Kripke structures, tracks, and descriptor elements.

A track is represented as a plain tuple of state names (length >= 2 with
every consecutive pair an edge of the owning structure). Descriptor
elements abstract a track by its first state, the set of states occurring
strictly in between, and its last state.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import NotWitnessed, ParseError, ValidationError

Track = tuple[str, ...]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class KripkeStructure:
    """Finite state-transition system with a left-total edge relation.

    Values are immutable after construction; the constructor enforces all
    structure invariants (left-totality, declared states/propositions,
    initial state membership).
    """

    __slots__ = ("ap", "states", "edges", "labels", "init", "_succ", "_pred")

    def __init__(self, ap, states, edges, labels, init):
        self.ap = frozenset(ap)
        self.states = tuple(dict.fromkeys(states))
        self.edges = frozenset((str(a), str(b)) for a, b in edges)
        self.labels = {s: frozenset(labels.get(s, ())) for s in self.states}
        self.init = init
        self._validate()
        succ: dict[str, list[str]] = {s: [] for s in self.states}
        pred: dict[str, list[str]] = {s: [] for s in self.states}
        for a, b in sorted(self.edges):
            succ[a].append(b)
            pred[b].append(a)
        self._succ = {s: tuple(v) for s, v in succ.items()}
        self._pred = {s: tuple(sorted(v)) for s, v in pred.items()}

    def _validate(self):
        if not self.states:
            raise ValidationError("UnknownState", message="structure has no states")
        if len(self.states) != len(set(self.states)):
            raise ValidationError("DuplicateState")
        known = set(self.states)
        for name in self.states:
            if not _NAME_RE.match(name):
                raise ValidationError("UnknownState", name, "invalid state name")
        if self.init not in known:
            raise ValidationError("UnknownState", self.init, "initial state is not declared")
        for a, b in self.edges:
            if a not in known:
                raise ValidationError("UnknownState", a, "edge source is not declared")
            if b not in known:
                raise ValidationError("UnknownState", b, "edge target is not declared")
        sources = {a for a, _ in self.edges}
        for s in self.states:
            if s not in sources:
                raise ValidationError("NotLeftTotal", s, "state has no outgoing edge")
        for s, letters in self.labels.items():
            stray = letters - self.ap
            if stray:
                raise ValidationError("UnknownProposition", sorted(stray)[0])

    def successors(self, v: str) -> tuple[str, ...]:
        return self._succ[v]

    def predecessors(self, v: str) -> tuple[str, ...]:
        return self._pred[v]

    def label(self, v: str) -> frozenset:
        return self.labels[v]

    def __eq__(self, other):
        if not isinstance(other, KripkeStructure):
            return NotImplemented
        return (
            self.ap == other.ap
            and set(self.states) == set(other.states)
            and self.edges == other.edges
            and self.labels == other.labels
            and self.init == other.init
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"KripkeStructure(states={len(self.states)}, edges={len(self.edges)}, "
            f"init={self.init!r})"
        )


@dataclass(frozen=True)
class DescriptorElement:
    """(first state, interior state set, last state) abstraction of a track.

    The interior set records states occurring strictly between the
    endpoints; it may contain the endpoint states when they recur there.
    """

    v_in: str
    interior: frozenset
    v_fin: str

    def sort_key(self):
        return (self.v_in, self.v_fin, tuple(sorted(self.interior)))

    def __repr__(self):
        inner = ",".join(sorted(self.interior))
        return f"({self.v_in}, {{{inner}}}, {self.v_fin})"


def is_track(K: KripkeStructure, seq: Iterable[str]) -> bool:
    """True when `seq` is a valid track of `K` (length >= 2, edges respected)."""
    t = tuple(seq)
    if len(t) < 2:
        return False
    if any(s not in K.labels for s in t):
        return False
    return all((a, b) in K.edges for a, b in zip(t, t[1:]))


def require_track(K: KripkeStructure, seq: Iterable[str]) -> Track:
    t = tuple(seq)
    if not is_track(K, t):
        raise ValueError(f"not a valid track of the structure: {t!r}")
    return t


def track_label(K: KripkeStructure, rho: Iterable[str]) -> frozenset:
    """Intersection of the labels of all states occurring on the track."""
    rho = tuple(rho)
    letters = K.labels[rho[0]]
    for s in rho[1:]:
        letters = letters & K.labels[s]
    return letters


def descriptor_of(rho: Iterable[str]) -> DescriptorElement:
    rho = tuple(rho)
    return DescriptorElement(rho[0], frozenset(rho[1:-1]), rho[-1])


def concat_desc(d1: DescriptorElement, d2: DescriptorElement) -> DescriptorElement:
    interior = d1.interior | {d1.v_fin, d2.v_in} | d2.interior
    return DescriptorElement(d1.v_in, frozenset(interior), d2.v_fin)


def witnessed_descriptors(K: KripkeStructure, v: str, direction: str = "forward"):
    """All descriptor elements witnessed by tracks starting (or ending) at `v`.

    Computed as a fixpoint over (endpoint, interior set) pairs, so every
    element of the result is realized by some track and every track's
    descriptor is included. Returned sorted in a canonical order.
    """
    if v not in K.labels:
        raise ValidationError("UnknownState", v)
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    forward = direction == "forward"
    seeds = K.successors(v) if forward else K.predecessors(v)
    seen = {(u, frozenset()) for u in seeds}
    frontier = list(seen)
    while frontier:
        nxt = []
        for u, interior in frontier:
            grown = interior | {u}
            for w in K.successors(u) if forward else K.predecessors(u):
                pair = (w, grown)
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
    if forward:
        found = [DescriptorElement(v, interior, u) for u, interior in seen]
    else:
        found = [DescriptorElement(u, interior, v) for u, interior in seen]
    return tuple(sorted(found, key=DescriptorElement.sort_key))


def shortest_witness(K: KripkeStructure, d: DescriptorElement) -> Track:
    """A shortest track associated with `d`, found by breadth-first search
    over (endpoint, interior-so-far) pairs.

    A pair (u, I) stands for any partial track from d.v_in ending at u
    whose states strictly between the endpoints form exactly I; all such
    partial tracks extend identically, so each pair is visited once.
    """
    for s in (d.v_in, d.v_fin, *d.interior):
        if s not in K.labels:
            raise ValidationError("UnknownState", s)
    target = frozenset(d.interior)
    empty = frozenset()
    parents: dict = {}
    frontier = []
    for w in K.successors(d.v_in):
        pair = (w, empty)
        if pair not in parents:
            parents[pair] = None
            if w == d.v_fin and target == empty:
                return (d.v_in, w)
            frontier.append(pair)
    while frontier:
        nxt = []
        for pair in frontier:
            u, interior = pair
            grown = interior | {u}
            if not grown <= target:
                continue
            for w in K.successors(u):
                child = (w, grown)
                if child in parents:
                    continue
                parents[child] = pair
                if w == d.v_fin and grown == target:
                    track = [w]
                    cur = pair
                    while cur is not None:
                        track.append(cur[0])
                        cur = parents[cur]
                    track.append(d.v_in)
                    return tuple(reversed(track))
                nxt.append(child)
        frontier = nxt
    raise NotWitnessed(f"no track of the structure realizes {d!r}")


def is_witnessed(K: KripkeStructure, d: DescriptorElement) -> bool:
    try:
        shortest_witness(K, d)
    except NotWitnessed:
        return False
    return True


def enumerate_tracks(
    K: KripkeStructure, max_len: int, start: Optional[str] = None
) -> Iterator[Track]:
    """Yield every track of length 2..max_len exactly once, in
    length-then-lexicographic order (lexicographic by state name).
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    if start is not None and start not in K.labels:
        raise ValidationError("UnknownState", start)
    starts = (start,) if start is not None else tuple(sorted(K.states))

    def extend(prefix: Track, remaining: int) -> Iterator[Track]:
        for w in K.successors(prefix[-1]):
            t = prefix + (w,)
            if remaining == 1:
                yield t
            else:
                yield from extend(t, remaining - 1)

    for length in range(2, max_len + 1):
        for s in starts:
            yield from extend((s,), length - 1)


def restrict_labels(K: KripkeStructure, letters: Iterable[str]) -> KripkeStructure:
    """Same states and edges, with every label intersected with `letters`."""
    keep = frozenset(letters)
    return KripkeStructure(
        ap=K.ap & keep,
        states=K.states,
        edges=K.edges,
        labels={s: K.labels[s] & keep for s in K.states},
        init=K.init,
    )


def reach_from(K: KripkeStructure, v: str) -> KripkeStructure:
    """Subgraph on the states reachable from `v` (inclusive), rooted at `v`."""
    if v not in K.labels:
        raise ValidationError("UnknownState", v)
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            for w in K.successors(u):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    states = tuple(s for s in K.states if s in seen)
    return KripkeStructure(
        ap=K.ap,
        states=states,
        edges={(a, b) for (a, b) in K.edges if a in seen and b in seen},
        labels={s: K.labels[s] for s in states},
        init=v,
    )


def isomorphic(K1: KripkeStructure, K2: KripkeStructure) -> bool:
    """True when a label-, edge-, and init-preserving bijection exists.

    Backtracking with degree/label pruning; meant for desk-scale inputs.
    """
    if len(K1.states) != len(K2.states) or len(K1.edges) != len(K2.edges):
        return False

    def signature(K, s):
        return (
            tuple(sorted(K.labels[s])),
            len(K.successors(s)),
            len(K.predecessors(s)),
        )

    sig1 = {s: signature(K1, s) for s in K1.states}
    sig2 = {s: signature(K2, s) for s in K2.states}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return False
    if sig1[K1.init] != sig2[K2.init]:
        return False

    candidates = {s: [t for t in K2.states if sig2[t] == sig1[s]] for s in K1.states}
    candidates[K1.init] = [K2.init]
    order = sorted(K1.states, key=lambda s: len(candidates[s]))
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def consistent(s, t):
        for u, v in mapping.items():
            if ((s, u) in K1.edges) != ((t, v) in K2.edges):
                return False
            if ((u, s) in K1.edges) != ((v, t) in K2.edges):
                return False
        return (((s, s) in K1.edges) == ((t, t) in K2.edges))

    def assign(i):
        if i == len(order):
            return True
        s = order[i]
        for t in candidates[s]:
            if t in used or not consistent(s, t):
                continue
            mapping[s] = t
            used.add(t)
            if assign(i + 1):
                return True
            del mapping[s]
            used.remove(t)
        return False

    return assign(0)


def parse_kripke(text: str) -> KripkeStructure:
    """Parse the line-oriented Kripke file format.

    Sections appear in a fixed order: one `ap:` line, one `init:` line,
    the `state NAME:` lines, then the `edge: A B` lines. `#` starts a
    comment and blank lines are ignored.
    """
    ap: list[str] = []
    init = None
    states: list[str] = []
    labels: dict[str, list[str]] = {}
    edges: list[tuple[str, str]] = []
    section = "ap"
    saw_ap = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        if line.startswith("ap:"):
            if section != "ap" or saw_ap:
                raise ParseError("misplaced ap: line", line=lineno)
            saw_ap = True
            for name in line[len("ap:"):].split():
                if not _NAME_RE.match(name):
                    raise ParseError(f"invalid proposition name {name!r}", line=lineno)
                if name not in ap:
                    ap.append(name)
            section = "init"
        elif line.startswith("init:"):
            if not saw_ap or section not in ("init",):
                raise ParseError("misplaced init: line", line=lineno)
            parts = line[len("init:"):].split()
            if len(parts) != 1 or not _NAME_RE.match(parts[0]):
                raise ParseError("init: expects exactly one state name", line=lineno)
            init = parts[0]
            section = "states"
        elif line.startswith("state "):
            if section == "init":
                raise ValidationError("MissingInit", message="state section before any init: line")
            if section not in ("states",):
                raise ParseError("misplaced state line", line=lineno)
            head, colon, rest = line[len("state "):].partition(":")
            name = head.strip()
            if not colon or not _NAME_RE.match(name):
                raise ParseError(f"invalid state declaration {line!r}", line=lineno)
            if name in labels:
                raise ValidationError("DuplicateState", name)
            letters = rest.split()
            for p in letters:
                if not _NAME_RE.match(p):
                    raise ParseError(f"invalid proposition name {p!r}", line=lineno)
            states.append(name)
            labels[name] = letters
        elif line.startswith("edge:"):
            if section == "states" and states:
                section = "edges"
            if section != "edges":
                raise ParseError("misplaced edge line", line=lineno)
            parts = line[len("edge:"):].split()
            if len(parts) != 2:
                raise ParseError("edge: expects exactly two state names", line=lineno)
            edges.append((parts[0], parts[1]))
        else:
            raise ParseError(f"unrecognized line {line!r}", line=lineno)

    if not saw_ap:
        raise ParseError("missing ap: line", line=None)
    if init is None:
        raise ValidationError("MissingInit")
    if not states:
        raise ParseError("no state lines")
    # The constructor rejects unknown propositions, states and edge ends.
    return KripkeStructure(ap=ap, states=states, edges=edges, labels=labels, init=init)


def format_kripke(K: KripkeStructure) -> str:
    """Serialize to the file format accepted by `parse_kripke`."""
    lines = ["ap: " + " ".join(sorted(K.ap)), f"init: {K.init}"]
    for s in K.states:
        letters = " ".join(sorted(K.labels[s]))
        lines.append(f"state {s}:" + (f" {letters}" if letters else ""))
    for a, b in sorted(K.edges):
        lines.append(f"edge: {a} {b}")
    return "\n".join(lines) + "\n"
