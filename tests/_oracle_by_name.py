"""Reference copy of `intervalmc.oracle` as it was while the evaluator
walked state names: tracks of names, letters tested on `track_label`'s
frozensets, every Boolean node evaluated by recursion, and extensions of
an operand that needs the whole track walked depth first by `_walk`.
`test_oracle` compares the numbered module with it; only the imports and
this docstring differ from that version."""

from __future__ import annotations

from typing import Optional

from intervalmc import logic
from intervalmc.errors import BoundTooSmall
from intervalmc.logic import And, Const, Implies, Modality, Not, Or, Prop
from intervalmc.model import KripkeStructure, Track, check_track, enumerate_tracks, track_label
from intervalmc.record import Record

_A, _ABAR, _B, _E, _BBAR = Modality.A, Modality.ABAR, Modality.B, Modality.E, Modality.BBAR

# The track features a node's value can depend on, as bits. TRACK (the
# whole track) holds every bit, so that it absorbs the others under `|`.
FIRST, LAST, LENGTH = 1, 2, 4
TRACK = 15


class BoundedVerdict(Record):
    # `initial_tracks`: the initial tracks the verdict covers, all of them or
    # up to and including the failing one; saturating at MAX_COUNT.
    __slots__ = ("value", "bound", "failing_track", "initial_tracks")

    def __init__(self, value: bool, bound: int, failing_track: Optional[Track] = None, initial_tracks: int = 0):
        self.value = value
        self.bound = bound
        self.failing_track = failing_track
        self.initial_tracks = initial_tracks


MAX_COUNT = 2**63 - 1


def default_bound(K: KripkeStructure, phi) -> int:
    """(modal node count + 1) * (2 + |W|^2): long enough that bounded truth
    saturates for the existential fragment (one witness stretch per modal
    node, plus the track itself).
    """
    return (logic.modal_count(phi) + 1) * (2 + len(K.states) ** 2)


class BoundedEvaluator:
    """Memoized evaluation of desugared formulas over tracks."""

    def __init__(self, K: KripkeStructure, bound: int):
        if bound < 2:
            raise ValueError("bound must be at least 2")
        self.K = K
        self.bound = bound
        self._table = logic.FormulaTable()
        self._nodes = self._table.nodes
        self._memo: list = []
        # Per node (see `compile`): its fixed value or None; the features
        # of a track its value depends on.
        self.fixed: list = []
        self.deps: list = []

    def compile(self, phi) -> int:
        """Node id of `phi`, adding it and its subformulas on first use.

        A node is fixed when it is a constant, a Boolean node whose fixed
        operands decide it, `[X]` over a fixed-true or `<X>` over a
        fixed-false operand; it then depends on nothing. Otherwise it
        depends on the whole track if it is a letter, on the union of its
        operands' features if it is a Boolean node, and on what
        `_modal_deps` gives if it is a modal node."""
        root = self._table.add(phi)
        # Per formula, not per new node: a refused formula leaves its nodes.
        if not self._table.desugared[root]:
            raise ValueError("bounded evaluation expects a desugared formula")
        fixed, deps = self.fixed, self.deps
        for kind, a, b in self._nodes[len(self._memo) :]:
            self._memo.append({})
            if kind is Const:
                f, d = a, 0
            elif kind is Prop:
                f, d = None, TRACK
            elif isinstance(kind, Modality):
                # Also on an empty domain, which is why `<X> true` is not fixed.
                f = fixed[a] if fixed[a] is (not b) else None
                d = _modal_deps(kind, deps[a])
            else:
                f = _fold(kind, fixed[a], None if kind is Not else fixed[b])
                d = deps[a] | (0 if kind is Not else deps[b])
            fixed.append(f)
            deps.append(0 if f is not None else d)
        return root

    def eval(self, rho: Track, phi) -> bool:
        """Truth of `phi` on `rho`. ValidationError when `rho` is not a
        track of the structure (see `model.check_track`)."""
        rho = tuple(rho)
        check_track(self.K, rho)
        if len(rho) > self.bound:
            raise BoundTooSmall(f"track of length {len(rho)} exceeds bound {self.bound}")
        return self._value(self.compile(phi), rho)

    def _value(self, i: int, rho: Track) -> bool:
        """Truth of node `i` on the track `rho`, of length at most the bound."""
        out = self.fixed[i]
        if out is not None:
            return out
        kind, a, b = self._nodes[i]
        dep = self.deps[i]
        key = rho if dep == TRACK else rho[-1] if dep == LAST else rho[0] if dep == FIRST else _project(dep, rho)
        memo = self._memo[i]
        out = memo.get(key)
        if out is not None:
            return out
        if kind is Prop:
            out = a in track_label(self.K, rho)
        elif kind is Not:
            out = not self._value(a, rho)
        elif kind is And:
            out = self._value(a, rho) and self._value(b, rho)
        elif kind is Or:
            out = self._value(a, rho) or self._value(b, rho)
        elif kind is Implies:
            out = not self._value(a, rho) or self._value(b, rho)
        else:
            if kind is _B:
                domain = (rho[:j] for j in range(2, len(rho)))
            elif kind is _E:
                domain = (rho[j:] for j in range(1, len(rho) - 1))
            else:
                forward = kind is _A or kind is _BBAR
                t = (rho[-1],) if kind is _A else (rho[0],) if kind is _ABAR else rho
                sub = self.deps[a]
                domain = self._walk(t, forward) if sub == TRACK else self._reach(t, forward, sub & LENGTH)
            out = not b
            for t in domain:
                if self._value(a, t) == b:
                    out = b
                    break
        memo[key] = out
        return out

    def _walk(self, track, forward: bool):
        """Every extension of `track` by one or more states, to the right if
        `forward` and to the left otherwise, up to the bound: depth first,
        each extension before its own, in the order of `K`'s successors
        (predecessors)."""
        bound, K = self.bound, self.K
        stack = []
        t = track
        while True:
            if len(t) < bound:
                if forward:
                    stack += [t + (w,) for w in reversed(K.successors(t[-1]))]
                else:
                    stack += [(w,) + t for w in reversed(K.predecessors(t[0]))]
            if not stack:
                return
            t = stack.pop()
            yield t

    def _reach(self, track, forward: bool, by_length):
        """The extensions of `_walk`, but only the first, breadth first, to
        end in each state at the moving end, or in each such state at each
        length if `by_length`. Every extension shares the fixed end with
        `track`, so these cover every value of an operand that does not
        depend on the whole track."""
        step = self.K.successors if forward else self.K.predecessors
        seen, layer = set(), [track]
        for _ in range(self.bound - len(track)):
            if by_length:
                seen = set()
            nxt = []
            for t in layer:
                for w in step(t[-1] if forward else t[0]):
                    if w not in seen:
                        seen.add(w)
                        u = t + (w,) if forward else (w,) + t
                        nxt.append(u)
                        yield u
            if not nxt:
                return
            layer = nxt


def _modal_deps(kind, sub: int) -> int:
    """Features a modal node depends on, given those its operand does.

    `<A>` ranges over the tracks from the last state and `<~A>` over those
    to the first. A prefix keeps the first state and a suffix the last, so
    `<B>` over an operand of at most the first state and the length
    depends on that and the length; `<E>` mirrors it. An extension to the
    right keeps the first state and reaches what the last state and the
    length allow, so `<~B>` over an operand short of the whole track
    depends on those two and on the first state if the operand does;
    `<~E>` mirrors it."""
    if kind is _A:
        return LAST
    if kind is _ABAR:
        return FIRST
    if kind is _B or kind is _E:
        kept = FIRST if kind is _B else LAST
        return TRACK if sub & ~(kept | LENGTH) else sub | LENGTH
    if sub == TRACK:
        return TRACK
    kept, moving = (FIRST, LAST) if kind is _BBAR else (LAST, FIRST)
    return moving | LENGTH | (sub & kept)


def _project(dep: int, rho: Track):
    """Memo key of a track for a node depending on `dep` (not TRACK)."""
    return (
        rho[0] if dep & FIRST else None,
        rho[-1] if dep & LAST else None,
        len(rho) if dep & LENGTH else None,
    )


def _fold(kind, x, y):
    """Value of a Boolean node from its operands' fixed values (None when
    not fixed), or None when that does not fix it."""
    if kind is Not:
        return None if x is None else not x
    if kind is And:
        return False if False in (x, y) else None if None in (x, y) else True
    if kind is Implies:
        x = _fold(Not, x, None)
    return True if True in (x, y) else None if None in (x, y) else False


def eval_bounded(K: KripkeStructure, rho: Track, phi, bound: int) -> bool:
    """Truth of a desugared formula on one track under the bounded semantics."""
    return BoundedEvaluator(K, bound).eval(rho, phi)


def model_check_bounded(K: KripkeStructure, phi, bound: int) -> BoundedVerdict:
    """Conjunction of the bounded evaluation over all initial tracks of
    length at most the bound, with the first failing one in
    `enumerate_tracks` order.
    """
    ev = BoundedEvaluator(K, bound)
    root = ev.compile(phi)
    dep = ev.deps[root]
    if dep == TRACK:
        count = 0
        for rho in enumerate_tracks(K, bound, start=K.init):
            count += 1
            if not ev._value(root, rho):
                return BoundedVerdict(False, bound, rho, count)
        return BoundedVerdict(True, bound, None, count)
    # The first state is K.init on every initial track, so one track per
    # reachable last state (and length) decides the root; failures are
    # gathered at the shortest length that has one.
    failing, length = set(), 0
    for rho in ev._reach((K.init,), True, dep & LENGTH):
        if failing and len(rho) > length:
            break
        if not ev._value(root, rho):
            failing.add(rho[-1])
            length = len(rho)
    if not failing:
        return BoundedVerdict(True, bound, None, _count(K, bound))
    return BoundedVerdict(False, bound, *_first_track(K, length, failing))


def _count(K: KripkeStructure, length: int) -> int:
    """Number of initial tracks of at most `length` states, saturating at
    MAX_COUNT, from the number of tracks of each length per last state.
    Stops once saturated."""
    total, layer = 0, {K.init: 1}
    for _ in range(length - 1):
        if total == MAX_COUNT:
            break
        nxt: dict = {}
        for v, n in layer.items():
            for w in K.successors(v):
                nxt[w] = min(nxt.get(w, 0) + n, MAX_COUNT)
        total = min(total + sum(nxt.values()), MAX_COUNT)
        layer = nxt
    return total


def _first_track(K: KripkeStructure, length: int, ends) -> tuple[Track, int]:
    """The first initial track of `length` states that ends in `ends`, in
    `enumerate_tracks` order, and its 1-based position in that order
    (saturating at MAX_COUNT).

    The walk takes, at each step, the first successor in name order from
    which `ends` is reachable in exactly the steps left. The position
    counts the shorter initial tracks and the continuations of every
    successor the walk passes over."""
    # reach[k]: states from which `ends` is reachable in exactly k steps;
    # walks[k][v]: number of walks of k steps from v.
    reach, walks = [set(ends)], [dict.fromkeys(K.states, 1)]
    for _ in range(length - 2):
        reach.append({u for w in reach[-1] for u in K.predecessors(w)})
        prev = walks[-1]
        walks.append({v: min(sum(prev[w] for w in K.successors(v)), MAX_COUNT) for v in K.states})
    track, position = (K.init,), 1 + sum(walks[k][K.init] for k in range(1, length - 1))
    for k in reversed(range(length - 1)):
        for w in K.successors(track[-1]):
            if w in reach[k]:
                break
            position += walks[k][w]
        track += (w,)
    return track, min(position, MAX_COUNT)
