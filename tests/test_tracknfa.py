"""The track automata's one breadth-first search against a copy of the five
search loops it replaced.

The `_old_*` code below is the previous drivers, kept as they were
(comments aside) except that they call each other: `_exists_from`,
`_ending_states`, the right-extension automaton's `_search` and
`_min_extension`, and `find_satisfying_track`. The automaton classes
themselves are shared, so the comparison isolates the searches.
"""

from intervalmc import tracknfa
from intervalmc.logic import And, Modality, Or, desugar, is_propositional, negate_to_exists
from intervalmc.tracknfa import accepts_track, compile_positive, find_satisfying_track

from _instances import random_forall_formula, random_kripke, random_positive_formula, random_track, rng_for


class _OldMeetsAuto(tracknfa._MeetsAuto):
    def __init__(self, K, sub, bound):
        self.aset = frozenset(v for v in K.states if _old_exists_from(K, sub, v, bound))


class _OldMetByAuto(tracknfa._MetByAuto):
    def __init__(self, K, sub, bound):
        self.bset = _old_ending_states(K, sub, bound)


class _OldRightExtAuto(tracknfa._RightExtAuto):
    def __init__(self, K, sub, bound):
        self.K = K
        self.sub = sub
        self.bound = bound
        self._memo: dict = {}
        self._dist: dict = {}

    def accepts(self, node, t):
        if t < 2 or self.bound - t < 1:
            return False
        if self.sub.time_sensitive:
            key = (node, t)
            hit = self._memo.get(key)
            if hit is None:
                hit = self._search(node, t)
                self._memo[key] = hit
            return hit
        if node not in self._dist:
            self._dist[node] = self._min_extension(node)
        dist = self._dist[node]
        return dist is not None and dist <= self.bound - t

    def _search(self, node, t):
        seen = {node}
        frontier = [node]
        for k in range(1, self.bound - t + 1):
            nxt = []
            for n in frontier:
                for w in self.K.successors(self.sub.cur(n)):
                    for m in self.sub.step(n, w, t + k):
                        if self.sub.accepts(m, t + k):
                            return True
                        if m in seen:
                            continue
                        seen.add(m)
                        nxt.append(m)
            if not nxt:
                return False
            frontier = nxt
        return False

    def _min_extension(self, node):
        seen = {node}
        frontier = [node]
        for k in range(1, self.bound - 1):
            nxt = []
            for n in frontier:
                for w in self.K.successors(self.sub.cur(n)):
                    for m in self.sub.step(n, w, 3):
                        if self.sub.accepts(m, 3):
                            return k
                        if m in seen:
                            continue
                        seen.add(m)
                        nxt.append(m)
            if not nxt:
                return None
            frontier = nxt
        return None


def _old_compile(K, phi, bound):
    if is_propositional(phi):
        return tracknfa._PropAuto(K, phi)
    if isinstance(phi, Or):
        return tracknfa._UnionAuto(_old_compile(K, phi.left, bound), _old_compile(K, phi.right, bound))
    if isinstance(phi, And):
        return tracknfa._ProductAuto(_old_compile(K, phi.left, bound), _old_compile(K, phi.right, bound))
    sub = _old_compile(K, phi.sub, bound)
    if phi.mod is Modality.A:
        return _OldMeetsAuto(K, sub, bound)
    if phi.mod is Modality.ABAR:
        return _OldMetByAuto(K, sub, bound)
    if phi.mod is Modality.B:
        return tracknfa._StartedByAuto(sub)
    if phi.mod is Modality.E:
        return tracknfa._FinishedByAuto(sub)
    assert phi.mod is Modality.BBAR
    return _OldRightExtAuto(K, sub, bound)


def _old_exists_from(K, auto, v, bound) -> bool:
    seen = set(auto.start(v))
    frontier = list(seen)
    t = 1
    while frontier and t < bound:
        t += 1
        nxt = []
        for n in frontier:
            for w in K.successors(auto.cur(n)):
                for m in auto.step(n, w, t):
                    if m in seen:
                        continue
                    seen.add(m)
                    if auto.accepts(m, t):
                        return True
                    nxt.append(m)
        frontier = nxt
    return False


def _old_ending_states(K, auto, bound) -> frozenset:
    out = set()
    seen = set()
    frontier = []
    for v in sorted(K.states):
        for n in auto.start(v):
            if n not in seen:
                seen.add(n)
                frontier.append(n)
    t = 1
    while frontier and t < bound:
        t += 1
        nxt = []
        for n in frontier:
            for w in K.successors(auto.cur(n)):
                for m in auto.step(n, w, t):
                    if m in seen:
                        continue
                    seen.add(m)
                    if auto.accepts(m, t):
                        out.add(auto.cur(m))
                    nxt.append(m)
        frontier = nxt
    return frozenset(out)


def _old_find_satisfying_track(K, phi, bound, first=None, last=None, interior=None):
    auto = _old_compile(K, phi, bound)
    track_interior = interior is not None
    target = frozenset(interior) if track_interior else None
    empty = frozenset() if track_interior else None
    starts = (first,) if first is not None else tuple(sorted(K.states))

    parents: dict = {}
    frontier = []
    for v in starts:
        for n in auto.start(v):
            key = (n, empty)
            if key not in parents:
                parents[key] = (None, v)
                frontier.append(key)
    t = 1
    while frontier and t < bound:
        t += 1
        nxt = []
        for key in frontier:
            n, iset = key
            u = auto.cur(n)
            if track_interior:
                grown = iset if t == 2 else iset | {u}
                if not grown <= target:
                    continue
            else:
                grown = None
            for w in K.successors(u):
                for m in auto.step(n, w, t):
                    child = (m, grown)
                    if child in parents:
                        continue
                    parents[child] = (key, w)
                    if (
                        (last is None or auto.cur(m) == last)
                        and (not track_interior or grown == target)
                        and auto.accepts(m, t)
                    ):
                        states = [w]
                        back = key
                        while back is not None:
                            prev, sym = parents[back]
                            states.append(sym)
                            back = prev
                        return tuple(reversed(states))
                    nxt.append(child)
        frontier = nxt
    return None


def test_one_search_matches_the_five_loops_it_replaced():
    rng = rng_for("tracknfa-steps")
    queries = 0
    for i in range(320):
        K = random_kripke(rng, min_states=1, max_states=5)
        bound = rng.randint(3, 8)
        if i % 2:
            phi = negate_to_exists(desugar(random_forall_formula(rng, ("p", "q"), modal_budget=2)))
        else:
            phi = desugar(random_positive_formula(rng, ("p", "q"), modal_budget=3))
        tracks = [random_track(rng, K, rng.randint(2, bound)) for _ in range(6)]
        asks = [{"first": v} for v in K.states] + [{"last": v} for v in K.states]
        asks += [
            {"first": rho[0], "last": rho[-1], "interior": frozenset(rho[1:-1])} for rho in tracks[:3]
        ]
        for ask in asks:
            queries += 1
            assert find_satisfying_track(K, phi, bound, **ask) == _old_find_satisfying_track(
                K, phi, bound, **ask
            ), (K, phi, bound, ask)
        new, old = compile_positive(K, phi, bound), _old_compile(K, phi, bound)
        for rho in tracks:
            queries += 1
            assert accepts_track(new, rho, bound) == accepts_track(old, rho, bound), (K, phi, rho)
    assert queries > 3000
