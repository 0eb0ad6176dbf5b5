"""The track automata against reference copies of earlier versions.

The first reference is the automaton classes as they were before the
search carried the Kripke state: every node holds the state read last, a
`cur` method gets it back, and the leaves mark whether a state has been
read. The `_old_*` drivers are the five search loops that preceded the one
breadth-first search (comments aside, and calling each other):
`_exists_from`, `_ending_states`, the right-extension automaton's
`_search` and `_min_extension`, and `find_satisfying_track`. The first two
tests compare the public entry points of `tracknfa` with this copy. The
second reference, `_tracknfa_by_name`, is the module as it was while the
search walked state names; `test_numbered_search_matches_the_name_based_module`
compares with it on structures whose names sort apart from their
declaration order.
"""

import time

import pytest

from intervalmc import KripkeStructure
from intervalmc.descriptor_checker import model_check_univ
from intervalmc.errors import BoundTooSmall, ValidationError
from intervalmc.logic import (
    And,
    Modality,
    Or,
    desugar,
    is_propositional,
    negate_to_exists,
    parse_formula,
    prop_letters,
)
from intervalmc.oracle import eval_bounded
from intervalmc.reductions import CnfFormula, brute_sat, build_sat_instance, cnf_to_formula
from intervalmc.tracknfa import accepts_track, compile_positive, find_satisfying_track

import _tracknfa_by_name as by_name
from _prop import eval_prop
from _instances import (
    random_forall_formula,
    random_kripke,
    random_positive_formula,
    random_track,
    rng_for,
    shuffle_declaration,
)


class _OldPropAuto:
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


class _OldUnionAuto:
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


class _OldProductAuto:
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


class _OldStartedByAuto:
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


class _OldFinishedByAuto:
    def __init__(self, sub):
        self.sub = sub
        self.time_sensitive = sub.time_sensitive

    def start(self, v):
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


class _OldMeetsAuto:
    time_sensitive = False

    def __init__(self, K, sub, bound):
        self.aset = frozenset(v for v in K.states if _old_exists_from(K, sub, v, bound))

    def start(self, v):
        return ((v, False),)

    def step(self, node, v, t):
        return ((v, True),)

    def accepts(self, node, t):
        return node[1] and node[0] in self.aset

    def cur(self, node):
        return node[0]


class _OldMetByAuto:
    time_sensitive = False

    def __init__(self, K, sub, bound):
        self.bset = _old_ending_states(K, sub, bound)

    def start(self, v):
        return ((v in self.bset, v, False),)

    def step(self, node, v, t):
        return ((node[0], v, True),)

    def accepts(self, node, t):
        return node[0] and node[2]

    def cur(self, node):
        return node[1]


class _OldRightExtAuto:
    time_sensitive = True

    def __init__(self, K, sub, bound):
        self.K = K
        self.sub = sub
        self.bound = bound
        self._memo: dict = {}
        self._dist: dict = {}

    def start(self, v):
        return self.sub.start(v)

    def step(self, node, v, t):
        return self.sub.step(node, v, t)

    def cur(self, node):
        return self.sub.cur(node)

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
        return _OldPropAuto(K, phi)
    if isinstance(phi, Or):
        return _OldUnionAuto(_old_compile(K, phi.left, bound), _old_compile(K, phi.right, bound))
    if isinstance(phi, And):
        return _OldProductAuto(_old_compile(K, phi.left, bound), _old_compile(K, phi.right, bound))
    sub = _old_compile(K, phi.sub, bound)
    if phi.mod is Modality.A:
        return _OldMeetsAuto(K, sub, bound)
    if phi.mod is Modality.ABAR:
        return _OldMetByAuto(K, sub, bound)
    if phi.mod is Modality.B:
        return _OldStartedByAuto(sub)
    if phi.mod is Modality.E:
        return _OldFinishedByAuto(sub)
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


def _old_accepts_track(auto, rho, bound):
    frontier = set(auto.start(rho[0]))
    t = 1
    for v in rho[1:]:
        t += 1
        frontier = {m for n in frontier for m in auto.step(n, v, t)}
        if not frontier:
            return False
    return any(auto.accepts(n, t) for n in frontier)


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
            assert accepts_track(new, rho, bound) == _old_accepts_track(old, rho, bound), (K, phi, rho)
    assert queries > 3000


def test_public_entry_points_match_the_reference():
    rng = rng_for("tracknfa-pairs")
    queries = 0
    for i in range(260):
        K = random_kripke(rng, min_states=1, max_states=5)
        bound = rng.randint(3, 8)
        if i % 2:
            phi = negate_to_exists(desugar(random_forall_formula(rng, ("p", "q"), modal_budget=2)))
        else:
            phi = desugar(random_positive_formula(rng, ("p", "q"), modal_budget=3))
        tracks = [random_track(rng, K, rng.randint(2, bound)) for _ in range(6)]
        asks = [{}] + [{"first": v} for v in K.states] + [{"last": v} for v in K.states]
        asks += [{"interior": frozenset(rho[1:-1])} for rho in tracks[:2]]
        asks += [{"first": tracks[2][0], "interior": frozenset(tracks[2][1:-1])}]
        asks += [{"last": tracks[3][-1], "interior": frozenset(tracks[3][1:-1])}]
        for ask in asks:
            queries += 1
            assert find_satisfying_track(K, phi, bound, **ask) == _old_find_satisfying_track(
                K, phi, bound, **ask
            ), (K, phi, bound, ask)
        new, old = compile_positive(K, phi, bound), _old_compile(K, phi, bound)
        for rho in tracks:
            queries += 1
            assert accepts_track(new, rho, bound) == _old_accepts_track(old, rho, bound), (K, phi, rho)
    assert queries >= 3000


def test_numbered_search_matches_the_name_based_module():
    rng = rng_for("tracknfa-numbered")
    differences = queries = 0
    for i in range(300):
        letters = ("p", "q", "r")
        declared = letters if i % 4 else letters[:2]  # r labels no state one time in four
        K = shuffle_declaration(rng, random_kripke(rng, min_states=1, max_states=12, letters=declared))
        bound = rng.randint(3, 7)
        if i % 2:
            phi = negate_to_exists(desugar(random_forall_formula(rng, letters, modal_budget=2)))
        else:
            phi = desugar(random_positive_formula(rng, letters, modal_budget=3))
        tracks = [random_track(rng, K, rng.randint(2, bound)) for _ in range(3)]
        asks = [{}, {"first": rng.choice(K.states)}, {"last": rng.choice(K.states)}]
        asks += [{"interior": frozenset(rho[1:-1])} for rho in tracks[:2]]
        for ask in asks:
            queries += 1
            differences += find_satisfying_track(K, phi, bound, **ask) != by_name.find_satisfying_track(
                K, phi, bound, **ask
            )
        new, old = compile_positive(K, phi, bound), by_name.compile_positive(K, phi, bound)
        for rho in tracks:
            queries += 1
            differences += accepts_track(new, rho, bound) != by_name.accepts_track(old, rho, bound)
    assert (differences, queries) == (0, 2400)


def _cnf_10_vars(rng, clauses, planted=None):
    # Random 3-clauses over x1..x10; with `planted`, only clauses that
    # assignment satisfies.
    out = []
    while len(out) < clauses:
        clause = tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 11), 3))
        if planted is None or any((lit > 0) == planted[abs(lit)] for lit in clause):
            out.append(clause)
    return CnfFormula(10, tuple(out))


@pytest.mark.parametrize("satisfiable", [False, True], ids=["unsat", "planted"])
def test_leaf_of_3000_clauses_is_answered_without_recursion(satisfiable):
    rng = rng_for(f"tracknfa-deep-{satisfiable}")
    planted = {v: rng.random() < 0.5 for v in range(1, 11)} if satisfiable else None
    cnf = _cnf_10_vars(rng, 3000, planted)
    K, gamma = build_sat_instance(cnf)
    phi, bound = negate_to_exists(desugar(gamma)), 24
    start = time.perf_counter()
    rho = find_satisfying_track(K, phi, bound, first=K.init)
    assert time.perf_counter() - start < 1.0
    assert (rho is not None) == brute_sat(cnf) == satisfiable
    if satisfiable:
        verdict = model_check_univ(K, gamma)
        assert not verdict.holds
        assert accepts_track(compile_positive(K, phi, bound), verdict.counterexample, bound)


@pytest.mark.parametrize("satisfiable", [False, True], ids=["unsat", "planted"])
def test_brute_sat_of_a_3000_clause_formula_needs_no_recursion(satisfiable):
    # The same CNFs as above, given to `brute_sat` as a formula: each
    # assignment is tested by the compiled leaf, not by recursion.
    rng = rng_for(f"tracknfa-deep-{satisfiable}")
    planted = {v: rng.random() < 0.5 for v in range(1, 11)} if satisfiable else None
    cnf = _cnf_10_vars(rng, 3000, planted)
    assert brute_sat(cnf_to_formula(cnf)) == brute_sat(cnf) == satisfiable


def test_accepts_track_refuses_a_track_longer_than_the_bound():
    auto = compile_positive(_looping_start(), parse_formula("<E> q"), 3)
    with pytest.raises(BoundTooSmall):
        accepts_track(auto, ("a", "a", "a", "b"), 3)


@pytest.mark.parametrize(
    "text, shortest", [("<A> zz", None), ("p & zz", None), ("<E>(q | zz)", ("a", "a", "a"))]
)
def test_undeclared_letter_reads_false(text, shortest):
    # zz is no letter of the structure: it labels no state.
    K, phi, bound = _looping_start(), desugar(parse_formula(text)), 5
    auto = compile_positive(K, phi, bound)
    for rho in [("a", "b"), ("a", "a", "b"), ("b", "b", "b"), ("a", "a", "a", "a")]:
        assert accepts_track(auto, rho, bound) == eval_bounded(K, rho, phi, bound), rho
    assert find_satisfying_track(K, phi, bound) == shortest


def _looping_start():
    # The two-state structure whose state `a` loops and also reaches `b`.
    return KripkeStructure(
        ap=("p", "q"),
        states=("a", "b"),
        edges={("a", "a"), ("a", "b"), ("b", "b")},
        labels={"a": ("q",), "b": ("p",)},
        init="a",
    )


def test_start_pair_reached_again_without_interior():
    # Both witnesses step from a start pair back onto an equal pair; the
    # track is rebuilt by position, so the start pair's later parent is
    # never followed.
    K = _looping_start()
    assert find_satisfying_track(K, parse_formula("<E> q"), 8, first="a") == ("a", "a", "a")
    assert find_satisfying_track(K, parse_formula("<B> q"), 8, first="a", last="a") == ("a", "a", "a")


@pytest.mark.parametrize(
    "ask", [{"first": "zz"}, {"last": "zz"}, {"interior": {"a", "zz"}}], ids=["first", "last", "interior"]
)
def test_undeclared_state_is_rejected(ask):
    with pytest.raises(ValidationError) as err:
        find_satisfying_track(_looping_start(), parse_formula("<E> q"), 8, **ask)
    assert (err.value.reason, err.value.subject) == ("UnknownState", "zz")


# A sequence that is not a track of the structure, and the reason it is
# refused with. b -> a is no edge of `_looping_start`.
NOT_A_TRACK = [
    (("b", "a", "b", "b"), "NotATrack", None),
    (("a", "zz"), "UnknownState", "zz"),
    (("a",), "NotATrack", None),
    ((), "NotATrack", None),
]
NOT_A_TRACK_IDS = ["missing-edge", "undeclared-state", "one-state", "empty"]


@pytest.mark.parametrize("rho, reason, subject", NOT_A_TRACK, ids=NOT_A_TRACK_IDS)
def test_accepts_track_rejects_a_non_track(rho, reason, subject):
    auto = compile_positive(_looping_start(), parse_formula("<E> q"), 8)
    with pytest.raises(ValidationError) as err:
        accepts_track(auto, rho, 8)
    assert (err.value.reason, err.value.subject) == (reason, subject)
