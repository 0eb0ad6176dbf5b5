from itertools import chain

import pytest

from intervalmc import KripkeStructure, check, enumerate_tracks, is_track, track_label
from intervalmc.class_checker import ClassEngine, check_ab
from intervalmc.errors import NotInFragment
from intervalmc.logic import (
    And,
    Box,
    Const,
    Diamond,
    Implies,
    Modality,
    Not,
    Or,
    Prop,
    classify,
    desugar,
    modal_count,
    parse_formula,
    prop_letters,
    subformulas,
)
from intervalmc.reductions import CnfFormula, QbfFormula, build_qbf_instance
from intervalmc.tracknfa import accepts_track, compile_positive

from _class_view import ClassView
from _instances import random_ab_formula, random_kripke, random_positive_formula, random_qbf, rng_for


def test_check_ab_examples(kequiv):
    assert check_ab(kequiv, parse_formula("!<~B> q")).holds
    Kq, xi = build_qbf_instance(QbfFormula((("e", 1),), CnfFormula(1, ((1,),))))
    assert check_ab(Kq, xi).holds
    Kq2, xi2 = build_qbf_instance(QbfFormula((("a", 1),), CnfFormula(1, ((1,),))))
    verdict = check_ab(Kq2, xi2)
    assert verdict.result == "fails"
    assert verdict.counterexample == ("w0", "w1")


def test_check_ab_counterexample_is_shortest_violating(kequiv):
    verdict = check_ab(kequiv, parse_formula("p"))
    assert verdict.result == "fails"
    assert verdict.counterexample == ("v0", "v1")
    assert is_track(kequiv, verdict.counterexample)


def test_check_ab_requires_fragment(kequiv):
    with pytest.raises(NotInFragment):
        check_ab(kequiv, parse_formula("<B> p"))


def test_class_engine_requires_desugared_formula(kequiv):
    with pytest.raises(ValueError):
        ClassEngine(kequiv, parse_formula("<A> <D> p"))


def test_realized_class_count_bound():
    rng = rng_for("classcount")
    for _ in range(30):
        K = random_kripke(rng, max_states=4, letters=("p", "q"))
        psi = desugar(random_ab_formula(rng, ("p", "q")))
        engine = ClassEngine(K, psi)
        limit = (2 ** len(prop_letters(psi))) * len(K.states)
        assert len(ClassView(engine).classes) <= limit


def test_every_enumerated_track_lands_in_a_realized_class():
    rng = rng_for("classcover")
    for _ in range(20):
        K = random_kripke(rng, max_states=4)
        psi = desugar(random_ab_formula(rng, ("p", "q")))
        view = ClassView(ClassEngine(K, psi))
        for rho in enumerate_tracks(K, 5):
            c = view.of_track(rho)
            assert c in view.id
            assert c in view.reach(rho[0])


def test_equal_class_tracks_get_identical_table_verdicts():
    rng = rng_for("quotient-small")
    for _ in range(15):
        K = random_kripke(rng, max_states=3)
        psi = desugar(random_ab_formula(rng, ("p", "q")))
        view = ClassView(ClassEngine(K, psi))
        by_class = {}
        for rho in enumerate_tracks(K, 6):
            by_class.setdefault(view.of_track(rho), set()).add(rho)
        for c, tracks in by_class.items():
            verdicts = {view.holds(psi, view.of_track(rho)) for rho in tracks}
            assert len(verdicts) == 1


def _renamed_copy(K):
    names = {s: f"r_{s}" for s in K.states}
    return (
        KripkeStructure(
            ap=K.ap,
            states=[names[s] for s in reversed(K.states)],
            edges={(names[a], names[b]) for a, b in K.edges},
            labels={names[s]: K.labels[s] for s in K.states},
            init=names[K.init],
        ),
        names,
    )


def test_quotient_agrees_across_isomorphic_copy():
    rng = rng_for("quotient-iso")
    for _ in range(15):
        K = random_kripke(rng, max_states=3)
        psi = desugar(random_ab_formula(rng, ("p", "q")))
        K2, names = _renamed_copy(K)
        view1 = ClassView(ClassEngine(K, psi))
        view2 = ClassView(ClassEngine(K2, psi))
        assert check_ab(K, psi).result == check_ab(K2, psi).result
        for rho in enumerate_tracks(K, 5):
            rho2 = tuple(names[s] for s in rho)
            assert track_label(K, rho) == track_label(K2, rho2)
            for sub in set(subformulas(psi)):
                assert view1.holds(sub, view1.of_track(rho)) == view2.holds(sub, view2.of_track(rho2))


def test_full_fragment_agrees_with_naive_bounded_oracle():
    # Stronger than the positive-fragment check: with witness slack beyond
    # the track length, bounded truth stabilizes for the whole
    # Boolean-closed <A>/<~B> fragment, negations included, and must equal
    # the per-class table.
    from intervalmc.oracle import BoundedEvaluator

    rng = rng_for("class-vs-naive-full")
    checked = 0
    for _ in range(60):
        K = random_kripke(rng, min_states=2, max_states=3)
        psi = desugar(random_ab_formula(rng, ("p", "q"), max_nodes=7))
        track_cap = 4
        slack = (2 ** len(prop_letters(psi))) * len(K.states) * (modal_count(psi) + 1)
        bound = track_cap + slack
        if bound > 10:
            continue
        checked += 1
        ev = BoundedEvaluator(K, bound)
        view = ClassView(ClassEngine(K, psi))
        for rho in enumerate_tracks(K, track_cap, start=K.init):
            assert view.holds(psi, view.of_track(rho)) == ev.eval(rho, psi)
    assert checked >= 25


@pytest.mark.parametrize("text", ["[A] zz", "[A] !zz", "<~B> zz | r0"])
def test_letter_the_structure_does_not_declare_reads_false(scheduler, text):
    # `zz` is no letter of scheduler.kripke, so it has no bit and holds on
    # no class. It holds on no track of any length either, so these
    # formulas do not depend on the bound, and the bounded oracle's truth
    # on tracks shorter than its bound is exact.
    from intervalmc.oracle import BoundedEvaluator

    psi = desugar(parse_formula(text))
    view = ClassView(ClassEngine(scheduler, psi))
    ev = BoundedEvaluator(scheduler, 4)
    for rho in enumerate_tracks(scheduler, 3):
        assert not view.holds(Prop("zz"), view.of_track(rho))
        assert view.holds(psi, view.of_track(rho)) == ev.eval(rho, psi), rho
    verdict = check(scheduler, psi, "class")
    if classify(psi).forall_aabe:
        assert check(scheduler, psi, "descriptor").result == verdict.result
        # The oracle's refutation of a ForallAABE formula is exact.
        assert (check(scheduler, psi, "oracle", 4).result == "fails") == (verdict.result == "fails")


def test_positive_fragment_agrees_with_bounded_automaton():
    # With the bound exceeding the evaluated track's length by the
    # class-count margin (which bounds every witness stretch), bounded
    # truth of a positive formula is exact, so it must match the quotient
    # verdict on every enumerated initial track.
    rng = rng_for("class-vs-nfa")
    track_cap = 5
    for _ in range(20):
        K = random_kripke(rng, max_states=3)
        psi = desugar(random_positive_formula(rng, ("p",), modal_budget=2))
        if not classify(psi).ab_bar:
            continue
        slack = (2 ** len(prop_letters(psi))) * len(K.states) * (modal_count(psi) + 1)
        bound = track_cap + slack
        verdict = check_ab(K, psi)
        view = ClassView(ClassEngine(K, psi))
        auto = compile_positive(K, psi, bound)
        for rho in enumerate_tracks(K, track_cap, start=K.init):
            bounded = accepts_track(auto, rho, bound)
            table = view.holds(psi, view.of_track(rho))
            assert bounded == table
        if verdict.result == "fails":
            ce = verdict.counterexample
            bound_ce = len(ce) + slack
            assert not accepts_track(compile_positive(K, psi, bound_ce), ce, bound_ce)


class _FrozensetEngine:
    """Reference copy of the class engine before class ids: classes are
    `(letters, last state)` tuples closed as a set, truth sets are frozensets filled by
    recursive evaluation, and `<~B>` searches backwards over a predecessor
    map built for each call."""

    def __init__(self, K, psi):
        self.K, self.pl = K, prop_letters(psi)
        seeds = {v: [self._step(K.labels[v], w) for w in K.successors(v)] for v in K.states}
        self.succ, frontier = {}, [c for v in sorted(K.states) for c in seeds[v]]
        while frontier:
            c = frontier.pop()
            if c not in self.succ:
                self.succ[c] = [self._step(c[0], w) for w in K.successors(c[1])]
                frontier.extend(self.succ[c])
        self.classes = frozenset(self.succ)
        self.from_ = {v: self._closure(seeds[v]) for v in K.states}
        self.sat = {}
        self.eval(psi)

    def _step(self, letters, w):
        return letters & self.K.labels[w] & self.pl, w

    def _closure(self, start):
        reach, todo = set(start), list(start)
        while todo:
            for c2 in self.succ[todo.pop()]:
                if c2 not in reach:
                    reach.add(c2)
                    todo.append(c2)
        return frozenset(reach)

    def _can_reach(self, targets):
        pred = {c: [] for c in self.classes}
        for c in self.classes:
            for c2 in self.succ[c]:
                pred[c2].append(c)
        reached, todo = set(), list(targets)
        while todo:
            for p in pred[todo.pop()]:
                if p not in reached:
                    reached.add(p)
                    todo.append(p)
        return frozenset(reached)

    def eval(self, phi):
        if phi not in self.sat:
            self.sat[phi] = self._eval(phi)
        return self.sat[phi]

    def _eval(self, phi):
        every = self.classes
        if isinstance(phi, Prop):
            return frozenset(c for c in every if phi.name in c[0])
        if isinstance(phi, Const):
            return every if phi.value else frozenset()
        if isinstance(phi, Not):
            return every - self.eval(phi.sub)
        if isinstance(phi, And):
            return self.eval(phi.left) & self.eval(phi.right)
        if isinstance(phi, Or):
            return self.eval(phi.left) | self.eval(phi.right)
        if isinstance(phi, Implies):
            return (every - self.eval(phi.left)) | self.eval(phi.right)
        sub = self.eval(phi.sub)
        if phi.mod is Modality.A:
            if isinstance(phi, Diamond):
                good = {v for v in self.K.states if self.from_[v] & sub}
            else:
                good = {v for v in self.K.states if self.from_[v] <= sub}
            return frozenset(c for c in every if c[1] in good)
        if isinstance(phi, Diamond):
            return self._can_reach(sub)
        return every - self._can_reach(every - sub)

    def check(self, psi):
        """(result, counterexample): breadth-first search from the initial
        state for the shortest initial track of a violating class."""
        K = self.K
        violating = self.from_[K.init] - self.sat[psi]
        if not violating:
            return "holds", None
        seen, frontier = set(), [(K.init,)]
        while frontier:
            nxt = []
            for track in frontier:
                letters = K.labels[track[0]] if len(track) == 1 else self._class(track)[0]
                for w in K.successors(track[-1]):
                    c = self._step(letters, w)
                    if c not in seen:
                        seen.add(c)
                        if c in violating:
                            return "fails", track + (w,)
                        nxt.append(track + (w,))
            frontier = nxt
        raise AssertionError("violating class not reached")

    def _class(self, track):
        return track_label(self.K, track) & self.pl, track[-1]


def test_class_ids_agree_with_frozenset_reference():
    rng = rng_for("class-ids-vs-frozensets")
    letters = ("p", "q", "r")
    fails = 0
    for _ in range(200):
        K = random_kripke(rng, max_states=6, letters=letters)
        psi = desugar(random_ab_formula(rng, letters, max_nodes=8))
        ref = _FrozensetEngine(K, psi)
        view = ClassView(ClassEngine(K, psi))
        assert set(view.classes) == ref.classes
        for v in K.states:
            assert view.reach(v) == ref.from_[v]
        for sub in set(subformulas(psi)):
            for c in ref.classes:
                assert view.holds(sub, c) == (c in ref.sat[sub])
        verdict = check_ab(K, psi)
        assert (verdict.result, verdict.counterexample) == ref.check(psi)
        assert verdict.stats["classes_realized"] == len(ref.classes)
        fails += verdict.result == "fails"
    assert 40 <= fails <= 160


def _nested_a_formula(rng, letters, depth):
    """`depth` nested <A>/[A], each over a Boolean combination of the one
    below and a small formula that may hold <A> and <~B> nodes itself."""
    phi = random_ab_formula(rng, letters, max_nodes=4)
    for _ in range(depth):
        side = random_ab_formula(rng, letters, max_nodes=4)
        phi = rng.choice((And, Or, Implies))(*rng.sample((phi, side), 2))
        if rng.random() < 0.3:
            phi = Not(phi)
        phi = rng.choice((Diamond, Box))(Modality.A, phi)
    return phi


def test_nested_a_formulas_agree_with_frozenset_reference():
    # The reference decides <A> through each state's forward reach set, the
    # engine by one backward search per <A> node.
    rng = rng_for("nested-a-vs-frozensets")
    letters = ("p", "q", "r")
    fails = 0
    for _ in range(50):
        K = random_kripke(rng, min_states=3, max_states=8, letters=letters)
        psi = desugar(_nested_a_formula(rng, letters, rng.randint(3, 5)))
        ref = _FrozensetEngine(K, psi)
        view = ClassView(ClassEngine(K, psi))
        assert set(view.classes) == ref.classes
        for v in K.states:
            assert view.reach(v) == ref.from_[v]
        for sub in set(subformulas(psi)):
            for c in ref.classes:
                assert view.holds(sub, c) == (c in ref.sat[sub])
        verdict = check_ab(K, psi)
        assert (verdict.result, verdict.counterexample) == ref.check(psi)
        fails += verdict.result == "fails"
    assert 10 <= fails <= 40


class _TwoStepSearch:
    """Reference class graph and search: classes keyed over `K.states`
    order through an own state index, `from_` as the closure of a state's
    seed classes, and `check` as that closure from the initial state, then
    a breadth-first search for a class in the violating set. Per-class
    truth comes from the engine under test; the frozenset reference above
    checks it."""

    def __init__(self, K, pl):
        index, n, letters = {s: i for i, s in enumerate(K.states)}, len(K.states), sorted(pl)
        bit = {p: 1 << i for i, p in enumerate(letters)}
        label = [sum(bit[p] for p in K.labels[s] & pl) for s in K.states]
        ids, keys, rows = {}, [], []
        for source in chain([label[v] * n + v for v in range(n)], keys):
            mask, last = divmod(source, n)
            row = []
            for w in (index[s] for s in K.successors(K.states[last])):
                key = (mask & label[w]) * n + w
                if key not in ids:
                    ids[key] = len(keys)
                    keys.append(key)
                row.append(ids[key])
            rows.append(row)
        self.K, self.index, self.keys = K, index, keys
        self.seeds, self.succ = rows[:n], rows[n:]
        self.named = [
            (frozenset(p for i, p in enumerate(letters) if key // n >> i & 1), K.states[key % n]) for key in keys
        ]

    def from_(self, v):
        reach, todo = set(), list(self.seeds[self.index[v]])
        while todo:
            c = todo.pop()
            if c not in reach:
                reach.add(c)
                todo += self.succ[c]
        return reach

    def find_initial_track(self, violating):
        K, n, seen = self.K, len(self.K.states), set()
        frontier = [((K.init,), self.seeds[self.index[K.init]])]
        while frontier:
            nxt = []
            for track, row in frontier:
                for c in row:
                    if c in seen:
                        continue
                    seen.add(c)
                    longer = track + (K.states[self.keys[c] % n],)
                    if c in violating:
                        return longer
                    nxt.append((longer, self.succ[c]))
            frontier = nxt
        raise AssertionError("violating class is not realized from the initial state")

    def check(self, holds):
        violating = {c for c in self.from_(self.K.init) if not holds(self.named[c])}
        if not violating:
            return "holds", None
        return "fails", self.find_initial_track(violating)


def _shuffled(rng, K):
    """K with its states declared in a random order, so that declaration
    order and sorted-name order differ."""
    states = list(K.states)
    rng.shuffle(states)
    return KripkeStructure(ap=K.ap, states=states, edges=K.edges, labels=K.labels, init=K.init)


def test_single_search_agrees_with_two_step_reference():
    rng = rng_for("single-search-vs-two-step")
    letters = ("p", "q", "r")
    pairs = []
    for _ in range(1000):
        K = _shuffled(rng, random_kripke(rng, max_states=7, letters=letters))
        pairs.append((K, desugar(random_ab_formula(rng, letters))))
    pairs += [build_qbf_instance(random_qbf(rng, max_vars=3, max_clauses=5)) for _ in range(20)]
    fails = 0
    for K, psi in pairs:
        verdict = check_ab(K, psi)
        view = ClassView(ClassEngine(K, psi))
        ref = _TwoStepSearch(K, view.pl)
        sat = view.engine._truth[view.engine._root]
        result = ref.check(lambda c: bool(sat >> view.id[c] & 1))
        assert (verdict.result, verdict.counterexample) == result
        assert verdict.stats["classes_realized"] == len(ref.keys)
        assert set(view.classes) == set(ref.named)
        for v in K.states:
            assert view.reach(v) == {ref.named[c] for c in ref.from_(v)}
        fails += verdict.result == "fails"
    assert 200 <= fails <= 900
