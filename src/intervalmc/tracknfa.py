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

Every existence query is one breadth-first search, `_steps`, which
expands each product node on its first visit only. `_exists_from`,
`_ending_states` and `find_satisfying_track` check acceptance on first
visits, which finds shortest tracks. The right-extension search checks
every step: a loop may reach a node again at a length where the child
accepts although its first visit did not.
"""

from __future__ import annotations

from typing import Optional

from .errors import BoundTooSmall, NotInFragment
from .logic import And, FormulaTable, Modality, Or, eval_prop, prop_letters
from .model import KripkeStructure, Track


class _PropAuto:
    time_sensitive = False

    def __init__(self, K, beta):
        self.K = K
        self.beta = beta
        self.pl = prop_letters(beta)

    def start(self, v):
        return ((v, self.K.labels[v] & self.pl, False),)

    def step(self, node, v, t):
        return ((v, node[1] & self.K.labels[v], True),)

    def accepts(self, node, t):
        return node[2] and eval_prop(self.beta, node[1])

    def cur(self, node):
        return node[0]


class _UnionAuto:
    def __init__(self, left, right):
        self.children = (left, right)
        self.time_sensitive = left.time_sensitive or right.time_sensitive

    def start(self, v):
        return tuple((i, n) for i, c in enumerate(self.children) for n in c.start(v))

    def step(self, node, v, t):
        i, n = node
        return tuple((i, m) for m in self.children[i].step(n, v, t))

    def accepts(self, node, t):
        return self.children[node[0]].accepts(node[1], t)

    def cur(self, node):
        return self.children[node[0]].cur(node[1])


class _ProductAuto:
    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.time_sensitive = left.time_sensitive or right.time_sensitive

    def start(self, v):
        return tuple((a, b) for a in self.left.start(v) for b in self.right.start(v))

    def step(self, node, v, t):
        a, b = node
        lefts = self.left.step(a, v, t)
        rights = self.right.step(b, v, t)
        return tuple((a2, b2) for a2 in lefts for b2 in rights)

    def accepts(self, node, t):
        return self.left.accepts(node[0], t) and self.right.accepts(node[1], t)

    def cur(self, node):
        return self.left.cur(node[0])


class _StartedByAuto:
    """Tracks with a proper prefix accepted by the child automaton."""

    def __init__(self, sub):
        self.sub = sub
        self.time_sensitive = sub.time_sensitive

    def start(self, v):
        return tuple(("in", n) for n in self.sub.start(v))

    def step(self, node, v, t):
        if node[0] == "chase":
            return (("chase", v),)
        n = node[1]
        out = [("in", m) for m in self.sub.step(n, v, t)]
        if self.sub.accepts(n, t - 1):
            out.append(("chase", v))
        return tuple(out)

    def accepts(self, node, t):
        return node[0] == "chase"

    def cur(self, node):
        return node[1] if node[0] == "chase" else self.sub.cur(node[1])


class _FinishedByAuto:
    """Tracks with a proper suffix accepted by the child automaton.

    Sub-run nodes carry the suffix length read so far; when the child is
    time-insensitive the counter is capped at 2 to keep the node space
    small.
    """

    def __init__(self, sub):
        self.sub = sub
        self.time_sensitive = sub.time_sensitive

    def start(self, v):
        # The initial skim node is kept distinct from stepped skim nodes:
        # search drivers key their visited sets on nodes, and a start node
        # reachable again via a loop stands for a longer track whose
        # interior bookkeeping differs.
        return (("skim0", v),)

    def step(self, node, v, t):
        if node[0] in ("skim", "skim0"):
            out = [("skim", v)]
            out.extend(("sub", n, 1) for n in self.sub.start(v))
            return tuple(out)
        _, n, s = node
        s2 = s + 1 if self.time_sensitive else min(s + 1, 2)
        return tuple(("sub", m, s2) for m in self.sub.step(n, v, s + 1))

    def accepts(self, node, t):
        return node[0] == "sub" and self.sub.accepts(node[1], node[2])

    def cur(self, node):
        return node[1] if node[0] != "sub" else self.sub.cur(node[1])


class _MeetsAuto:
    """Tracks whose last state starts some accepted track of the child."""

    time_sensitive = False

    def __init__(self, K, sub, bound):
        self.aset = frozenset(
            v for v in K.states if _exists_from(K, sub, v, bound)
        )

    def start(self, v):
        return ((v, False),)

    def step(self, node, v, t):
        return ((v, True),)

    def accepts(self, node, t):
        return node[1] and node[0] in self.aset

    def cur(self, node):
        return node[0]


class _MetByAuto:
    """Tracks whose first state ends some accepted track of the child."""

    time_sensitive = False

    def __init__(self, K, sub, bound):
        self.bset = _ending_states(K, sub, bound)

    def start(self, v):
        return ((v in self.bset, v, False),)

    def step(self, node, v, t):
        return ((node[0], v, True),)

    def accepts(self, node, t):
        return node[0] and node[2]

    def cur(self, node):
        return node[1]


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
        self._first: dict = {}

    def start(self, v):
        return self.sub.start(v)

    def step(self, node, v, t):
        return self.sub.step(node, v, t)

    def cur(self, node):
        return self.sub.cur(node)

    def accepts(self, node, t):
        if t < 2 or self.bound - t < 1:
            return False
        # Without a time-sensitive child the minimal extension length does
        # not depend on the position: one search from position 2 serves
        # every t, and only the remaining budget varies.
        origin = t if self.sub.time_sensitive else 2
        key = (node, origin)
        if key not in self._first:
            steps = _steps(self.K, self.sub, (node,), origin, self.bound)
            self._first[key] = next((t2 for _, _, m, t2, _ in steps if self.sub.accepts(m, t2)), None)
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
    for v in rho[1:]:
        t += 1
        frontier = {m for n in frontier for m in auto.step(n, v, t)}
        if not frontier:
            return False
    return any(auto.accepts(n, t) for n in frontier)


class _InteriorAuto:
    """Runs of the child paired with the interior read so far; only runs
    whose interior equals the target accept."""

    def __init__(self, sub, target):
        self.sub = sub
        self.target = target

    def start(self, v):
        return tuple((n, frozenset()) for n in self.sub.start(v))

    def step(self, node, v, t):
        n, iset = node
        # Stepping to position t puts the state at t-1 into the interior,
        # except from the first position.
        grown = iset if t == 2 else iset | {self.sub.cur(n)}
        if not grown <= self.target:
            return ()
        return tuple((m, grown) for m in self.sub.step(n, v, t))

    def accepts(self, node, t):
        return node[1] == self.target and self.sub.accepts(node[0], t)

    def cur(self, node):
        return self.sub.cur(node[0])


def _steps(K, auto, frontier, t, bound):
    """Breadth-first search of the product of `K` and `auto` from the
    nodes in `frontier`, which sit at position `t`. Yields (n, w, m, t2,
    fresh) for every step from node n over state w to node m at position
    t2 <= bound; `fresh` marks m's first visit, and only fresh nodes are
    expanded."""
    frontier = list(dict.fromkeys(frontier))
    seen = set(frontier)
    while frontier and t < bound:
        t += 1
        nxt = []
        for n in frontier:
            for w in K.successors(auto.cur(n)):
                for m in auto.step(n, w, t):
                    fresh = m not in seen
                    if fresh:
                        seen.add(m)
                        nxt.append(m)
                    yield n, w, m, t, fresh
        frontier = nxt


def _exists_from(K, auto, v, bound) -> bool:
    return any(
        fresh and auto.accepts(m, t) for _, _, m, t, fresh in _steps(K, auto, auto.start(v), 1, bound)
    )


def _ending_states(K, auto, bound) -> frozenset:
    starts = (n for v in sorted(K.states) for n in auto.start(v))
    return frozenset(
        auto.cur(m)
        for _, _, m, t, fresh in _steps(K, auto, starts, 1, bound)
        if fresh and auto.accepts(m, t)
    )


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
    auto = compile_positive(K, phi, bound)
    if interior is not None:
        auto = _InteriorAuto(auto, frozenset(interior))
    starts = (first,) if first is not None else tuple(sorted(K.states))

    parents: dict = {}
    for v in starts:
        for n in auto.start(v):
            parents.setdefault(n, (None, v))
    for n, w, m, t, fresh in _steps(K, auto, list(parents), 1, bound):
        if not fresh:
            continue
        parents[m] = (n, w)
        if (last is None or auto.cur(m) == last) and auto.accepts(m, t):
            states = [w]
            while n is not None:
                n, v = parents[n]
                states.append(v)
            return tuple(reversed(states))
    return None
