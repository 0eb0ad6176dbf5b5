"""Kripke structures, tracks, and descriptor elements.

A track is represented as a plain tuple of state names (length >= 2 with
every consecutive pair an edge of the owning structure). Descriptor
elements abstract a track by its first state, the set of states occurring
strictly in between, and its last state.

A `KripkeStructure` numbers its states when it is built, in sorted-name
order, so that id order is name order, and keeps the label masks and the
successor and predecessor id lists by id; every engine runs on these ids.
Every function that takes a state name looks it up with
`KripkeStructure.id_of`, the one place that refuses what is not a state.
The descriptor fixpoint `_pairs` runs over (endpoint id, interior mask)
pairs. `witnessed_descriptors`, `witness_lengths` and `shortest_witness`
convert its result to and from state names; the descriptor engine uses it
directly. `enumerate_tracks`
and the bounded oracle draw their tracks from `extend_tracks`.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Optional

from .errors import NotWitnessed, ParseError, ValidationError
from .record import Record

Track = tuple[str, ...]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _strays(names, known: set) -> list:
    """The members of `names` that are not strings in `known`, in order; only
    strings are hashed, and when all are known the check runs in C."""
    if all(map(str.__instancecheck__, names)) and known.issuperset(names):
        return []
    return [s for s in names if not (isinstance(s, str) and s in known)]


class KripkeStructure:
    """Finite state-transition system with a left-total edge relation.

    Values are immutable after construction; the constructor enforces every
    invariant: names are strings matching `_NAME_RE`, edges and labels use
    declared states and letters, the initial state is declared, left-totality.
    """

    __slots__ = ("ap", "states", "edges", "labels", "init", "names", "ids", "letter_bit", "masks", "succ", "pred")

    def __init__(self, ap, states, edges, labels, init):
        self.states = tuple(states)
        self.init = init
        ap, edges = tuple(ap), tuple(edges)
        self._validate(ap, edges, labels)
        self.ap = frozenset(ap)
        self.edges = frozenset((a, b) for a, b in edges)
        self.labels = {s: frozenset(labels.get(s, ())) for s in self.states}
        # States are numbered in sorted-name order and letters in sorted
        # order, so that comparing ids compares names.
        self.names = names = tuple(sorted(self.states))  # id -> state name
        self.ids = ids = {s: i for i, s in enumerate(names)}
        self.letter_bit = bit = {p: 1 << i for i, p in enumerate(sorted(self.ap))}
        self.masks = tuple(sum(bit[p] for p in self.labels[s]) for s in names)  # id -> label mask
        # id -> successor (predecessor) ids, ascending: the edges come in id order.
        succ: list = [[] for _ in names]
        pred: list = [[] for _ in names]
        for a, b in sorted((ids[a], ids[b]) for a, b in self.edges):
            succ[a].append(b)
            pred[b].append(a)
        self.succ = tuple(map(tuple, succ))
        self.pred = tuple(map(tuple, pred))

    def _validate(self, ap, edges, labels):
        if not self.states:
            raise ValidationError("UnknownState", message="structure has no states")
        # Names come first, so that no later check hashes a name that is not a string.
        for name in self.states:
            if not (isinstance(name, str) and _NAME_RE.match(name)):
                raise ValidationError("UnknownState", name, "invalid state name")
        for p in ap:
            if not (isinstance(p, str) and _NAME_RE.match(p)):
                raise ValidationError("UnknownProposition", p, "invalid proposition name")
        known = set(self.states)
        if len(known) != len(self.states):
            first = next(s for i, s in enumerate(self.states) if s in self.states[:i])
            raise ValidationError("DuplicateState", first)
        sources, targets = [a for a, _ in edges], [b for _, b in edges]
        for what, names in (
            ("initial state", (self.init,)), ("edge source", sources), ("edge target", targets), ("labelled state", labels)
        ):
            stray = _strays(names, known)
            if stray:
                raise ValidationError("UnknownState", stray[0], f"{what} is not declared")
        stray = _strays([p for letters in labels.values() for p in letters], set(ap))
        if stray:
            raise ValidationError("UnknownProposition", stray[0])
        sources = set(sources)
        for s in self.states:
            if s not in sources:
                raise ValidationError("NotLeftTotal", s, "state has no outgoing edge")

    def id_of(self, name) -> int:
        """The id of the state `name`; ValidationError("UnknownState", name)
        for anything else, a string or not, hashable or not."""
        if isinstance(name, str) and name in self.ids:
            return self.ids[name]
        raise ValidationError("UnknownState", name)

    def successors(self, v: str) -> tuple[str, ...]:
        return tuple(map(self.names.__getitem__, self.succ[self.id_of(v)]))

    def predecessors(self, v: str) -> tuple[str, ...]:
        return tuple(map(self.names.__getitem__, self.pred[self.id_of(v)]))

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


class DescriptorElement(Record):
    """(first state, interior state set, last state) abstraction of a track.

    The interior set records states occurring strictly between the
    endpoints; it may contain the endpoint states when they recur there.
    """

    __slots__ = ("v_in", "interior", "v_fin")

    def __init__(self, v_in: str, interior: frozenset, v_fin: str):
        self.v_in = v_in
        self.interior = interior
        self.v_fin = v_fin

    def sort_key(self):
        return (self.v_in, self.v_fin, tuple(sorted(self.interior)))

    def __repr__(self):
        inner = ",".join(sorted(self.interior))
        return f"({self.v_in}, {{{inner}}}, {self.v_fin})"


def is_track(K: KripkeStructure, seq: Iterable[str]) -> bool:
    """True when `seq` is a valid track of `K` (length >= 2, edges respected)."""
    try:
        check_track(K, seq)
    except ValidationError:
        return False
    return True


def check_track(K: KripkeStructure, seq: Iterable[str]) -> tuple:
    """The state ids of `seq`, as a tuple, once it is known to be a track
    of `K`.

    ValidationError("UnknownState", s) for an undeclared state s, else
    ValidationError("NotATrack") for fewer than two states or a step that
    is not an edge.
    """
    ids = tuple(map(K.id_of, seq))
    if len(ids) < 2:
        raise ValidationError("NotATrack", message=f"a track has at least 2 states, not {len(ids)}")
    for i in range(len(ids) - 1):
        if ids[i + 1] not in K.succ[ids[i]]:
            raise ValidationError("NotATrack", message=f"no edge {K.names[ids[i]]} -> {K.names[ids[i + 1]]}")
    return ids


def track_label(K: KripkeStructure, rho: Iterable[str]) -> frozenset:
    """Intersection of the labels of all states occurring on the track."""
    mask = -1
    for s in rho:
        mask &= K.masks[K.id_of(s)]
    return frozenset(p for p, bit in K.letter_bit.items() if mask & bit)


def concat_desc(d1: DescriptorElement, d2: DescriptorElement) -> DescriptorElement:
    interior = d1.interior | {d1.v_fin, d2.v_in} | d2.interior
    return DescriptorElement(d1.v_in, frozenset(interior), d2.v_fin)


def _pairs(K: KripkeStructure, v: int, forward: bool = True, within: int = -1, target=None) -> dict:
    """Breadth-first search over (endpoint id, interior mask) pairs from
    state id `v`. A pair (u, I) stands for every track from `v` to u (u to
    `v` backward) whose states strictly between the endpoints form I, and
    all of them extend alike. Returns the parent map (None for a seed) in
    discovery order; a pair whose interior grown by u leaves `within` is
    not extended, and the search stops after the level that reaches
    `target`."""
    step = K.succ if forward else K.pred
    parents = dict.fromkeys((w, 0) for w in step[v])
    frontier = list(parents)
    while frontier and target not in parents:
        nxt = []
        for pair in frontier:
            u, interior = pair
            grown = interior | 1 << u
            if grown & ~within:
                continue
            for w in step[u]:
                child = (w, grown)
                if child not in parents:
                    parents[child] = pair
                    nxt.append(child)
        frontier = nxt
    return parents


_FLIP = str.maketrans("01", "10")


def _pair_order(pair):
    """Sort key of a pair (endpoint id, interior mask) that orders like
    (endpoint, sorted tuple of interior ids): reading the mask from bit 0
    up to its highest set bit, a member reads "0" and a skipped id "1", and
    a mask that stops first is smaller."""
    u, mask = pair
    return u, bin(mask)[:1:-1].translate(_FLIP) if mask else ""


def _ids_of(K: KripkeStructure, d: DescriptorElement) -> tuple:
    """d as (first id, interior mask, last id); UnknownState for a state
    that `K` does not declare."""
    first, last = K.id_of(d.v_in), K.id_of(d.v_fin)
    return first, sum(1 << K.id_of(s) for s in d.interior), last


def _element(K: KripkeStructure, first: int, mask: int, last: int) -> DescriptorElement:
    """The `DescriptorElement` of (first id, interior mask, last id)."""
    names = K.names
    interior = frozenset(names[i] for i in range(mask.bit_length()) if mask >> i & 1)
    return DescriptorElement(names[first], interior, names[last])


def witnessed_descriptors(K: KripkeStructure, v: str, direction: str = "forward"):
    """All descriptor elements witnessed by tracks starting (or ending) at `v`.

    Computed as a fixpoint over (endpoint, interior set) pairs, so every
    element of the result is realized by some track and every track's
    descriptor is included. Returned sorted in a canonical order.
    """
    return tuple(d for d, _ in witness_lengths(K, v, direction))


def witness_lengths(K: KripkeStructure, v: str, direction: str = "forward"):
    """`witnessed_descriptors(K, v, direction)`, each element paired with
    the length of its shortest tracks: 2 plus the depth at which the
    breadth-first fixpoint first reaches its pair, in either direction."""
    first = K.id_of(v)
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    forward = direction == "forward"
    parents, length = _pairs(K, first, forward), {}
    for pair, parent in parents.items():  # in discovery order: a parent comes first
        length[pair] = 2 if parent is None else length[parent] + 1
    return tuple(
        (_element(K, first, mask, u) if forward else _element(K, u, mask, first), length[u, mask])
        for u, mask in sorted(parents, key=_pair_order)
    )


def shortest_witness(K: KripkeStructure, d: DescriptorElement) -> Track:
    """A shortest track associated with `d`: the first pair (d.v_fin,
    d.interior) that the breadth-first pair search from d.v_in reaches.
    """
    first, within, last = _ids_of(K, d)
    pair = (last, within)
    parents = _pairs(K, first, within=within, target=pair)
    if pair not in parents:
        raise NotWitnessed(f"no track of the structure realizes {d!r}")
    names = K.names
    track = []
    while pair is not None:
        track.append(names[pair[0]])
        pair = parents[pair]
    track.append(d.v_in)
    return tuple(reversed(track))


def extend_tracks(K: KripkeStructure, seeds, max_len: int, forward: bool = True) -> Iterator[tuple]:
    """Yield every extension of the id tracks `seeds`, all of one length,
    by one or more states, to the right if `forward` and to the left
    otherwise, of at most `max_len` states: shortest first, then seed by
    seed, then lexicographic in the added states from the seed outwards.
    Depth first within a length, so memory stays linear in the length."""
    step = K.succ if forward else K.pred
    for length in range(len(seeds[0]) + 1, max_len + 1):
        for seed in seeds:
            path = list(seed if forward else reversed(seed))  # the moving end last
            todo = [iter(step[path[-1]])]
            while todo:
                for w in todo[-1]:
                    path.append(w)
                    if len(path) < length:
                        todo.append(iter(step[w]))
                        break
                    yield tuple(path) if forward else tuple(reversed(path))
                    path.pop()
                else:
                    todo.pop()
                    path.pop()


def enumerate_tracks(
    K: KripkeStructure, max_len: int, start: Optional[str] = None
) -> Iterator[Track]:
    """Yield every track of length 2..max_len exactly once, in
    length-then-lexicographic order (lexicographic by state name).
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    starts = [(K.id_of(start),)] if start is not None else [(i,) for i in range(len(K.names))]
    for t in extend_tracks(K, starts, max_len):
        yield tuple(K.names[i] for i in t)


def parse_kripke(text: str) -> KripkeStructure:
    """Parse the line-oriented Kripke file format.

    Sections appear in a fixed order: one `ap:` line, one `init:` line,
    the `state NAME:` lines, then the `edge: A B` lines. `#` starts a
    comment and blank lines are ignored. Only this layout is checked here,
    with the line in each `ParseError`; `KripkeStructure` checks the names.
    """
    ap: list[str] = []
    init = None
    states: list[str] = []
    labels: dict[str, list[str]] = {}
    edges: list[tuple[str, str]] = []
    section = "ap"

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        if line.startswith("ap:"):
            if section != "ap":
                raise ParseError("misplaced ap: line", line=lineno)
            ap = line[len("ap:"):].split()
            section = "init"
        elif line.startswith("init:"):
            if section != "init":
                raise ParseError("misplaced init: line", line=lineno)
            parts = line[len("init:"):].split()
            if len(parts) != 1:
                raise ParseError("init: expects exactly one state name", line=lineno)
            init = parts[0]
            section = "states"
        elif line.startswith("state "):
            if section == "init":
                raise ValidationError("MissingInit", message="state section before any init: line")
            if section != "states":
                raise ParseError("misplaced state line", line=lineno)
            head, colon, rest = line[len("state "):].partition(":")
            name = head.strip()
            if not (colon and name):
                raise ParseError(f"invalid state declaration {line!r}", line=lineno)
            states.append(name)
            labels[name] = rest.split()
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

    if section == "ap":
        raise ParseError("missing ap: line", line=None)
    if init is None:
        raise ValidationError("MissingInit")
    return KripkeStructure(ap=ap, states=states, edges=edges, labels=labels, init=init)


def format_kripke(K: KripkeStructure) -> str:
    """Serialize to the file format accepted by `parse_kripke`."""
    lines = [" ".join(["ap:", *sorted(K.ap)]), f"init: {K.init}"]
    for s in K.states:
        letters = " ".join(sorted(K.labels[s]))
        lines.append(f"state {s}:" + (f" {letters}" if letters else ""))
    for a, b in sorted(K.edges):
        lines.append(f"edge: {a} {b}")
    return "\n".join(lines) + "\n"
