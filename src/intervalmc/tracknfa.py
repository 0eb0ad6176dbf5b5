"""Bounded track-set automata for the positive diamond fragment.

Compiles a formula built from Boolean-positive connectives and the
diamonds over meets, met-by, started-by, finished-by, and right-extension
into a small nondeterministic automaton reading a track one state at a
time. Acceptance may depend on the number of symbols read (the
right-extension diamond consumes budget from the shared bound), so the
drivers thread the position through every call.

`compile_positive` builds one automaton per node of the formula's
`logic.FormulaTable`, children first, and one per maximal propositional
node. This computes exactly the bounded semantics of `oracle.eval_bounded`
on its fragment, but existence queries run as a product-graph search
instead of track enumeration, which keeps bounds in the hundreds
tractable. The test suite cross-validates the two at small bounds.

The search walks (state, node) pairs, and nodes hold no Kripke state:
`start(v)` gives the nodes after reading `v`, `step(node, v, w, t)` reads
`w` at position t after `v` at t - 1, and `accepts(node, v, t)` judges a
run whose last state `v` sits at position t. Every existence query is
one breadth-first search, `_steps`, which expands each pair on its first
visit only. Start pairs are never marked visited: a pair reached later
has read a second state, so it is another configuration even when equal.
`_accepting` yields the pairs accepted at their first visit, which finds
shortest tracks for `_exists_from`, `_ending_states` and
`find_satisfying_track`. The right-extension search checks every step: a
loop may reach a pair again at a length where the child accepts although
its first visit did not.
"""

from __future__ import annotations

from typing import Optional

from .errors import BoundTooSmall, NotInFragment, ValidationError
from .logic import And, FormulaTable, Modality, Or, eval_prop, prop_letters
from .model import KripkeStructure, Track


class _PropAuto:
    """Nodes are the letters true at every state read so far."""

    time_sensitive = False

    def __init__(self, K, beta):
        self.K = K
        self.beta = beta
        self.pl = prop_letters(beta)

    def start(self, v):
        return (self.K.labels[v] & self.pl,)

    def step(self, node, v, w, t):
        return (node & self.K.labels[w],)

    def accepts(self, node, v, t):
        return t > 1 and eval_prop(self.beta, node)


class _UnionAuto:
    def __init__(self, left, right):
        self.children = (left, right)
        self.time_sensitive = left.time_sensitive or right.time_sensitive

    def start(self, v):
        return tuple((i, n) for i, c in enumerate(self.children) for n in c.start(v))

    def step(self, node, v, w, t):
        i, n = node
        return tuple((i, m) for m in self.children[i].step(n, v, w, t))

    def accepts(self, node, v, t):
        return self.children[node[0]].accepts(node[1], v, t)


class _ProductAuto:
    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.time_sensitive = left.time_sensitive or right.time_sensitive

    def start(self, v):
        return tuple((a, b) for a in self.left.start(v) for b in self.right.start(v))

    def step(self, node, v, w, t):
        a, b = node
        lefts = self.left.step(a, v, w, t)
        rights = self.right.step(b, v, w, t)
        return tuple((a2, b2) for a2 in lefts for b2 in rights)

    def accepts(self, node, v, t):
        return self.left.accepts(node[0], v, t) and self.right.accepts(node[1], v, t)


class _StartedByAuto:
    """Tracks with a proper prefix accepted by the child automaton."""

    def __init__(self, sub):
        self.sub = sub
        self.time_sensitive = sub.time_sensitive

    def start(self, v):
        return tuple(("in", n) for n in self.sub.start(v))

    def step(self, node, v, w, t):
        if node == "chase":
            return ("chase",)
        n = node[1]
        out = [("in", m) for m in self.sub.step(n, v, w, t)]
        if self.sub.accepts(n, v, t - 1):
            out.append("chase")
        return tuple(out)

    def accepts(self, node, v, t):
        return node == "chase"


class _FinishedByAuto:
    """Tracks with a proper suffix accepted by the child automaton.

    The one skim node, None, reads the prefix; sub-run nodes carry the
    suffix length read so far. When the child is time-insensitive the
    counter is capped at 2 to keep the node space small.
    """

    def __init__(self, sub):
        self.sub = sub
        self.time_sensitive = sub.time_sensitive

    def start(self, v):
        return (None,)

    def step(self, node, v, w, t):
        if node is None:
            return (None, *((n, 1) for n in self.sub.start(w)))
        n, s = node
        s2 = s + 1 if self.time_sensitive else min(s + 1, 2)
        return tuple((m, s2) for m in self.sub.step(n, v, w, s + 1))

    def accepts(self, node, v, t):
        return node is not None and self.sub.accepts(node[0], v, node[1])


class _MeetsAuto:
    """Tracks whose last state starts some accepted track of the child."""

    time_sensitive = False

    def __init__(self, K, sub, bound):
        self.aset = frozenset(
            v for v in K.states if _exists_from(K, sub, v, bound)
        )

    def start(self, v):
        return (None,)

    def step(self, node, v, w, t):
        return (None,)

    def accepts(self, node, v, t):
        return t > 1 and v in self.aset


class _MetByAuto:
    """Tracks whose first state ends some accepted track of the child."""

    time_sensitive = False

    def __init__(self, K, sub, bound):
        self.bset = _ending_states(K, sub, bound)

    def start(self, v):
        return (v in self.bset,)

    def step(self, node, v, w, t):
        return (node,)

    def accepts(self, node, v, t):
        return t > 1 and node


class _RightExtAuto:
    """Tracks extendable on the right, within the bound, into an accepted
    track of the child. Consumes budget: acceptance after t symbols asks
    for an accepting continuation of 1..bound-t more symbols.
    """

    time_sensitive = True

    def __init__(self, K, sub, bound):
        self.K = K
        self.sub = sub
        self.bound = bound
        self.start = sub.start
        self.step = sub.step
        self._first: dict = {}

    def accepts(self, node, v, t):
        if t < 2 or self.bound - t < 1:
            return False
        # Without a time-sensitive child the minimal extension length does
        # not depend on the position: one search from position 2 serves
        # every t, and only the remaining budget varies.
        origin = t if self.sub.time_sensitive else 2
        key = (v, node, origin)
        if key not in self._first:
            steps = _steps(self.K, self.sub, ((v, node),), origin, self.bound)
            self._first[key] = next((t2 for _, w, m, t2, _ in steps if self.sub.accepts(m, w, t2)), None)
        first = self._first[key]
        return first is not None and first - origin <= self.bound - t


def compile_positive(K: KripkeStructure, phi, bound: int):
    """Compile a positive diamond formula; NotInFragment otherwise."""
    table = FormulaTable()
    root = table.add(phi)
    autos: list = [None] * len(table.nodes)

    def auto(i):  # a maximal propositional node's automaton is made on first use
        autos[i] = autos[i] or _PropAuto(K, table.formulas[i])
        return autos[i]

    for i, (kind, a, b) in enumerate(table.nodes):
        if table.prop[i]:
            continue
        if kind is Or:
            autos[i] = _UnionAuto(auto(a), auto(b))
        elif kind is And:
            autos[i] = _ProductAuto(auto(a), auto(b))
        elif kind is Modality.A and b:
            autos[i] = _MeetsAuto(K, auto(a), bound)
        elif kind is Modality.ABAR and b:
            autos[i] = _MetByAuto(K, auto(a), bound)
        elif kind is Modality.B and b:
            autos[i] = _StartedByAuto(auto(a))
        elif kind is Modality.E and b:
            autos[i] = _FinishedByAuto(auto(a))
        elif kind is Modality.BBAR and b:
            autos[i] = _RightExtAuto(K, auto(a), bound)
        else:
            raise NotInFragment(f"{type(table.formulas[i]).__name__} node outside the positive diamond fragment")
    return auto(root)


def accepts_track(auto, rho: Track, bound: int) -> bool:
    """Run the automaton over one track (subset simulation)."""
    rho = tuple(rho)
    if len(rho) > bound:
        raise BoundTooSmall(f"track of length {len(rho)} exceeds bound {bound}")
    frontier = set(auto.start(rho[0]))
    t = 1
    for v, w in zip(rho, rho[1:]):
        t += 1
        frontier = {m for n in frontier for m in auto.step(n, v, w, t)}
        if not frontier:
            return False
    return any(auto.accepts(n, rho[-1], t) for n in frontier)


class _InteriorAuto:
    """Runs of the child paired with the interior read so far; only runs
    whose interior equals the target accept."""

    def __init__(self, sub, target):
        self.sub = sub
        self.target = target

    def start(self, v):
        return tuple((n, frozenset()) for n in self.sub.start(v))

    def step(self, node, v, w, t):
        n, iset = node
        # Stepping to position t puts the state at t-1 into the interior,
        # except from the first position.
        grown = iset if t == 2 else iset | {v}
        if not grown <= self.target:
            return ()
        return tuple((m, grown) for m in self.sub.step(n, v, w, t))

    def accepts(self, node, v, t):
        return node[1] == self.target and self.sub.accepts(node[0], v, t)


def _steps(K, auto, frontier, t, bound):
    """Breadth-first search of the product of `K` and `auto` from the
    (state, node) pairs in `frontier`, which sit at position `t`. Yields
    (p, w, m, t2, fresh) for every step from pair p over state w to node m
    at position t2 <= bound; `fresh` marks the pair (w, m)'s first visit,
    and only fresh pairs are expanded. The frontier counts as visited
    unless it holds start pairs (t == 1)."""
    frontier = list(dict.fromkeys(frontier))
    seen = set(frontier) if t > 1 else set()
    while frontier and t < bound:
        t += 1
        nxt = []
        for p in frontier:
            v, n = p
            for w in K.successors(v):
                for m in auto.step(n, v, w, t):
                    q = (w, m)
                    fresh = q not in seen
                    if fresh:
                        seen.add(q)
                        nxt.append(q)
                    yield p, w, m, t, fresh
        frontier = nxt


def _accepting(K, auto, starts, bound, parents):
    """The pairs (w, m) accepted at position t on their first visit, as
    (w, m, t) in breadth-first order. Starts from the pairs (v, n) for
    each state v in `starts`; records in `parents` the pair each visited
    pair was first reached from."""
    frontier = [(v, n) for v in starts for n in auto.start(v)]
    for p, w, m, t, fresh in _steps(K, auto, frontier, 1, bound):
        if fresh:
            parents[w, m] = p
            if auto.accepts(m, w, t):
                yield w, m, t


def _exists_from(K, auto, v, bound) -> bool:
    return any(_accepting(K, auto, (v,), bound, {}))


def _ending_states(K, auto, bound) -> frozenset:
    return frozenset(w for w, _, _ in _accepting(K, auto, sorted(K.states), bound, {}))


def find_satisfying_track(
    K: KripkeStructure,
    phi,
    bound: int,
    first: Optional[str] = None,
    last: Optional[str] = None,
    interior=None,
) -> Optional[Track]:
    """Shortest track (within the bound) satisfying a positive diamond
    formula under the bounded semantics, optionally constrained to a fixed
    first state, last state, and exact interior state set. None when no
    such track exists.
    """
    if interior is not None:
        interior = frozenset(interior)
    for s in (first, last, *(interior or ())):
        if s is not None and s not in K.labels:
            raise ValidationError("UnknownState", s)
    auto = compile_positive(K, phi, bound)
    if interior is not None:
        auto = _InteriorAuto(auto, interior)
    starts = (first,) if first is not None else sorted(K.states)

    parents: dict = {}
    for w, m, t in _accepting(K, auto, starts, bound, parents):
        if last is None or w == last:
            pair, states = (w, m), [w]
            for _ in range(t - 1):  # a start pair reached again has a parent too
                pair = parents[pair]
                states.append(pair[0])
            return tuple(reversed(states))
    return None
