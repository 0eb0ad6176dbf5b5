import pytest

from intervalmc import KripkeStructure, enumerate_tracks, is_track, track_label
from intervalmc.class_checker import ClassEngine, TrackClass, check_ab, class_of
from intervalmc.errors import NotInFragment
from intervalmc.logic import (
    And,
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

from _instances import random_ab_formula, random_kripke, random_positive_formula, rng_for


def test_class_of_examples(kequiv):
    psi = parse_formula("p | !p")
    assert class_of(kequiv, psi, ("v0", "v0")) == TrackClass(frozenset({"p"}), "v0")
    assert class_of(kequiv, psi, ("v0", "v1")) == TrackClass(frozenset(), "v1")
    empty = parse_formula("true")
    for rho in enumerate_tracks(kequiv, 3):
        assert class_of(kequiv, empty, rho) == TrackClass(frozenset(), rho[-1])


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


def test_realized_class_count_bound():
    rng = rng_for("classcount")
    for _ in range(30):
        K = random_kripke(rng, max_states=4, letters=("p", "q"))
        psi = desugar(random_ab_formula(rng, ("p", "q")))
        engine = ClassEngine(K, psi)
        limit = (2 ** len(prop_letters(psi))) * len(K.states)
        assert len(engine.classes) <= limit


def test_every_enumerated_track_lands_in_a_realized_class():
    rng = rng_for("classcover")
    for _ in range(20):
        K = random_kripke(rng, max_states=4)
        psi = desugar(random_ab_formula(rng, ("p", "q")))
        engine = ClassEngine(K, psi)
        for rho in enumerate_tracks(K, 5):
            c = class_of(K, psi, rho)
            assert c in engine.classes
            assert c in engine.classes_from(rho[0])


def test_equal_class_tracks_get_identical_table_verdicts():
    rng = rng_for("quotient-small")
    for _ in range(15):
        K = random_kripke(rng, max_states=3)
        psi = desugar(random_ab_formula(rng, ("p", "q")))
        engine = ClassEngine(K, psi)
        by_class = {}
        for rho in enumerate_tracks(K, 6):
            by_class.setdefault(class_of(K, psi, rho), set()).add(rho)
        for c, tracks in by_class.items():
            verdicts = {engine.truth(psi, class_of(K, psi, rho)) for rho in tracks}
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
        e1 = ClassEngine(K, psi)
        e2 = ClassEngine(K2, psi)
        assert check_ab(K, psi).result == check_ab(K2, psi).result
        for rho in enumerate_tracks(K, 5):
            rho2 = tuple(names[s] for s in rho)
            assert track_label(K, rho) == track_label(K2, rho2)
            for sub in set(subformulas(psi)):
                assert e1.truth(sub, class_of(K, psi, rho)) == e2.truth(
                    sub, class_of(K2, psi, rho2)
                )


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
        engine = ClassEngine(K, psi)
        for rho in enumerate_tracks(K, track_cap, start=K.init):
            assert engine.truth(psi, class_of(K, psi, rho)) == ev.eval(rho, psi)
    assert checked >= 25


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
        engine = ClassEngine(K, psi)
        auto = compile_positive(K, psi, bound)
        for rho in enumerate_tracks(K, track_cap, start=K.init):
            bounded = accepts_track(auto, rho, bound)
            table = engine.truth(psi, class_of(K, psi, rho))
            assert bounded == table
        if verdict.result == "fails":
            ce = verdict.counterexample
            bound_ce = len(ce) + slack
            assert not accepts_track(compile_positive(K, psi, bound_ce), ce, bound_ce)


class _FrozensetEngine:
    """Reference copy of the class engine before class ids: classes are
    `TrackClass` values closed as a set, truth sets are frozensets filled by
    recursive evaluation, and `<~B>` searches backwards over a predecessor
    map built for each call."""

    def __init__(self, K, psi):
        self.K, self.pl = K, prop_letters(psi)
        seeds = {v: [self._step(K.labels[v], w) for w in K.successors(v)] for v in K.states}
        self.succ, frontier = {}, [c for v in sorted(K.states) for c in seeds[v]]
        while frontier:
            c = frontier.pop()
            if c not in self.succ:
                self.succ[c] = [self._step(c.letters, w) for w in K.successors(c.last)]
                frontier.extend(self.succ[c])
        self.classes = frozenset(self.succ)
        self.from_ = {v: self._closure(seeds[v]) for v in K.states}
        self.sat = {}
        self.eval(psi)

    def _step(self, letters, w):
        return TrackClass(letters & self.K.labels[w] & self.pl, w)

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
            return frozenset(c for c in every if phi.name in c.letters)
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
            return frozenset(c for c in every if c.last in good)
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
                letters = K.labels[track[0]] if len(track) == 1 else self._class(track).letters
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
        return TrackClass(track_label(self.K, track) & self.pl, track[-1])


def test_class_ids_agree_with_frozenset_reference():
    rng = rng_for("class-ids-vs-frozensets")
    letters = ("p", "q", "r")
    fails = 0
    for _ in range(200):
        K = random_kripke(rng, max_states=6, letters=letters)
        psi = desugar(random_ab_formula(rng, letters, max_nodes=8))
        ref = _FrozensetEngine(K, psi)
        engine = ClassEngine(K, psi)
        assert engine.classes == ref.classes
        for v in K.states:
            assert engine.classes_from(v) == ref.from_[v]
        for sub in set(subformulas(psi)):
            for c in ref.classes:
                assert engine.truth(sub, c) == (c in ref.sat[sub])
        verdict = check_ab(K, psi)
        assert (verdict.result, verdict.counterexample) == ref.check(psi)
        assert verdict.stats["classes_realized"] == len(ref.classes)
        fails += verdict.result == "fails"
    assert 40 <= fails <= 160
