from itertools import product

import pytest

from intervalmc import (
    DescriptorElement,
    descriptor_of,
    is_track,
    witnessed_descriptors,
)
from intervalmc import descriptor_checker
from intervalmc.class_checker import check_ab
from intervalmc.descriptor_checker import _ExistsEngine, check_exists, model_check_univ
from intervalmc.errors import NotInFragment, NotWitnessed
from intervalmc.logic import (
    And,
    Box,
    Diamond,
    Modality,
    Prop,
    desugar,
    negate_to_exists,
    parse_formula,
)
from intervalmc.model import concat_desc, shortest_witness
from intervalmc.oracle import default_bound
from intervalmc.reductions import CnfFormula, build_sat_instance
from intervalmc.tracknfa import accepts_track, compile_positive, find_satisfying_track

from _instances import (
    random_beta,
    random_exists_formula,
    random_forall_formula,
    random_kripke,
    rng_for,
)


def desc(v_in, interior, v_fin):
    return DescriptorElement(v_in, frozenset(interior), v_fin)


# ---------------------------------------------------------------------------
# check_exists


def test_check_exists_meets(kequiv):
    ok, wit = check_exists(kequiv, parse_formula("<A> q"), desc("v0", (), "v1"))
    assert ok and wit == ("v0", "v1")


def test_check_exists_unsatisfiable_letters(kequiv):
    for d in witnessed_descriptors(kequiv, "v0", "forward"):
        ok, wit = check_exists(kequiv, parse_formula("p & q"), d)
        assert not ok and wit is None


def test_check_exists_prefix(kequiv):
    ok, wit = check_exists(kequiv, parse_formula("<B> p"), desc("v0", ("v0",), "v0"))
    assert ok and wit == ("v0", "v0", "v0")


def test_check_exists_requires_witnessed(kequiv):
    K, _ = build_sat_instance(CnfFormula(1, ()))
    with pytest.raises(NotWitnessed):
        check_exists(K, parse_formula("x1"), desc("w1_T", (), "w0"))


def test_check_exists_requires_fragment(kequiv):
    with pytest.raises(NotInFragment):
        check_exists(kequiv, parse_formula("[A] p"), desc("v0", (), "v1"))


def test_check_exists_witness_is_associated_and_satisfies():
    rng = rng_for("witvalid")
    bound_cases = 0
    for _ in range(60):
        K = random_kripke(rng, max_states=3)
        psi = desugar(random_exists_formula(rng, ("p", "q"), modal_budget=2))
        for v in K.states:
            for d in witnessed_descriptors(K, v, "forward"):
                ok, wit = check_exists(K, psi, d)
                if not ok:
                    assert wit is None
                    continue
                bound_cases += 1
                bound = default_bound(K, psi)
                assert is_track(K, wit)
                assert descriptor_of(wit) == d
                assert len(wit) <= bound
                assert accepts_track(compile_positive(K, psi, bound), wit, bound)
    assert bound_cases > 50


def test_check_exists_agrees_with_automaton_existence():
    rng = rng_for("mini-differential")
    for _ in range(60):
        K = random_kripke(rng, max_states=3)
        psi = desugar(random_exists_formula(rng, ("p", "q"), modal_budget=2))
        bound = default_bound(K, psi)
        v = rng.choice(K.states)
        witnessed = witnessed_descriptors(K, v, "forward")
        if not witnessed:
            continue
        d = rng.choice(witnessed)
        ok, _ = check_exists(K, psi, d)
        found = find_satisfying_track(
            K, psi, bound, first=d.v_in, last=d.v_fin, interior=d.interior
        )
        assert ok == (found is not None)


def test_check_exists_memo_transparency():
    rng = rng_for("memo")
    for _ in range(20):
        K = random_kripke(rng, max_states=3)
        psi = desugar(random_exists_formula(rng, ("p", "q"), modal_budget=3))
        v = rng.choice(K.states)
        for d in witnessed_descriptors(K, v, "forward"):
            assert check_exists(K, psi, d, use_memo=True) == check_exists(
                K, psi, d, use_memo=False
            )


# ---------------------------------------------------------------------------
# model_check_univ


def test_univ_tautology(kequiv):
    verdict = model_check_univ(kequiv, parse_formula("[A] true"))
    assert verdict.holds and verdict.counterexample is None
    assert verdict.engine == "descriptor"


def test_univ_sat_instance_counterexample():
    K, gamma = build_sat_instance(CnfFormula(1, ((1,),)))
    verdict = model_check_univ(K, desugar(gamma))
    assert verdict.result == "fails"
    assert verdict.counterexample == ("w0", "w1_T")


def test_univ_contradiction_holds():
    K, _ = build_sat_instance(CnfFormula(1, ((1,),)))
    verdict = model_check_univ(K, parse_formula("!(x1 & !x1)"))
    assert verdict.holds


def test_univ_requires_fragment(kequiv):
    with pytest.raises(NotInFragment):
        model_check_univ(kequiv, parse_formula("<A> p"))


def test_univ_counterexample_refutes_bounded():
    rng = rng_for("univ-ce")
    for _ in range(40):
        K = random_kripke(rng, max_states=3)
        psi = desugar(random_forall_formula(rng, ("p", "q"), modal_budget=2))
        verdict = model_check_univ(K, psi)
        negated = negate_to_exists(psi)
        bound = default_bound(K, negated)
        found = find_satisfying_track(K, negated, bound, first=K.init)
        assert verdict.holds == (found is None)
        if not verdict.holds:
            ce = verdict.counterexample
            assert is_track(K, ce) and ce[0] == K.init
            assert accepts_track(compile_positive(K, negated, bound), ce, bound)


def test_univ_memo_transparency():
    rng = rng_for("univ-memo")
    for _ in range(15):
        K = random_kripke(rng, max_states=3)
        psi = desugar(random_forall_formula(rng, ("p", "q"), modal_budget=2))
        with_memo = model_check_univ(K, psi, use_memo=True)
        without = model_check_univ(K, psi, use_memo=False)
        assert with_memo.result == without.result
        assert with_memo.counterexample == without.counterexample


# ---------------------------------------------------------------------------
# Agreement with the class engine on the shared fragment


def _random_shared_formula(rng, letters):
    # Conjunctions of universal meets-boxes over Boolean leaves sit in both
    # the universal fragment and the <A>/<~B> fragment.
    def build(depth):
        r = rng.random()
        if depth == 0 or r < 0.4:
            return random_beta(rng, letters, 1)
        if r < 0.7:
            return And(build(depth - 1), build(depth - 1))
        return Box(Modality.A, build(depth - 1))

    return build(2)


def test_engines_agree_on_shared_fragment():
    rng = rng_for("shared")
    checked = 0
    for _ in range(60):
        K = random_kripke(rng, max_states=4)
        psi = _random_shared_formula(rng, ("p", "q"))
        from intervalmc.logic import classify

        frag = classify(psi)
        if not (frag.forall_aabe and frag.ab_bar):
            continue
        checked += 1
        assert model_check_univ(K, psi).result == check_ab(K, psi).result
    assert checked >= 40


# ---------------------------------------------------------------------------
# Pinned outputs: the search order is canonical, so the verdict, the
# counterexample and the counters must not move when the engine gets faster.


SCHEDULER_PINS = (
    (
        "[E] !(e0 & e1)",
        "fails",
        ("w0", "w1", "w3", "w4", "w5", "w0", "w1", "w6", "w7", "w0", "w2", "w3", "w8", "w9"),
        2739,
        2657,
    ),
    ("[B] !(e0 & e1)", "holds", None, 536, 2657),
    ("[~A][E](r0 -> !e1)", "holds", None, 824, 2935),
)


@pytest.mark.parametrize("text,result,counterexample,check_calls,explored", SCHEDULER_PINS)
def test_scheduler_outputs_pinned(scheduler, text, result, counterexample, check_calls, explored):
    verdict = model_check_univ(scheduler, desugar(parse_formula(text)))
    assert verdict.result == result
    assert verdict.counterexample == counterexample
    assert verdict.stats["check_calls"] == check_calls
    assert verdict.stats["descriptors_explored"] == explored


SAT_PINS = (
    # Satisfied exactly when x1 & !x3 & x4, whatever x2 is.
    (CnfFormula(4, ((1, 2), (1, -2), (-3, 4), (-3, -4), (2, 4), (-2, 3, 4))),
     "fails", ("w0", "w1_T", "w2_F", "w3_F"), 9, 46),
    # Every sign pattern of (x1, x2) forces a contradiction on x3, x4 or x5.
    (CnfFormula(5, ((1, 2, 3), (1, 2, -3), (1, -2, 3), (1, -2, -3),
                    (-1, 2, 4), (-1, 2, -4), (-1, -2, 5), (-1, -2, -5))),
     "holds", None, 94, 94),
)


@pytest.mark.parametrize("cnf,result,counterexample,check_calls,explored", SAT_PINS)
def test_sat_instance_outputs_pinned(cnf, result, counterexample, check_calls, explored):
    K, gamma = build_sat_instance(cnf)
    verdict = model_check_univ(K, desugar(gamma))
    assert verdict.result == result
    assert verdict.counterexample == counterexample
    assert verdict.stats["check_calls"] == check_calls
    assert verdict.stats["descriptors_explored"] == explored


def test_univ_counters_pinned():
    # Totals over random universal checks. They move if the search visits
    # states or elements in another order, or scans a different set of them.
    rng = rng_for("univ-counters")
    totals = {"check_calls": 0, "descriptors_explored": 0, "adjacent_witnesses": 0}
    fails = 0
    for _ in range(100):
        K = random_kripke(rng, min_states=2, max_states=4)
        verdict = model_check_univ(K, desugar(random_forall_formula(rng, ("p", "q"), modal_budget=3)))
        fails += verdict.result == "fails"
        for key in totals:
            totals[key] += verdict.stats[key]
    assert fails == 71
    assert totals == {"check_calls": 1233, "descriptors_explored": 2553, "adjacent_witnesses": 51}


# ---------------------------------------------------------------------------
# [B]/[E] against a brute-force scan of every split


def _splits(K):
    """For each witnessed element d, its splits (x, y) with x.v_fin -> y.v_in
    and join d, in the canonical order: x over forward(d.v_in), then the
    successors of x.v_fin, then y over forward of that successor."""
    forward = {v: witnessed_descriptors(K, v, "forward") for v in K.states}
    out = {}
    for v in K.states:
        for x in forward[v]:
            for u in K.successors(x.v_fin):
                for y in forward[u]:
                    out.setdefault(concat_desc(x, y), []).append((x, y))
    return forward, out


def _brute_split(K, forward, splits, sub, d, prefix):
    """(ok, witness, found by a split?) for <B> sub (prefix) or <E> sub at d."""
    known = {}

    def sat(part):
        if part not in known:
            known[part] = check_exists(K, sub, part)
        return known[part]

    if prefix:
        single = [x for x in forward[d.v_in]
                  if (x.v_fin, d.v_fin) in K.edges and x.interior | {x.v_fin} == d.interior]
    else:
        single = [y for u in K.successors(d.v_in) for y in forward[u]
                  if y.v_fin == d.v_fin and y.interior | {u} == d.interior]
    for part in single:
        ok, wit = sat(part)
        if ok:
            return True, (wit + (d.v_fin,) if prefix else (d.v_in,) + wit), False
    for x, y in splits.get(d, ()):
        ok, wit = sat(x if prefix else y)
        if ok:
            joined = wit + shortest_witness(K, y) if prefix else shortest_witness(K, x) + wit
            return True, joined, True
    return False, None, False


def test_split_agrees_with_brute_force_scan():
    rng = rng_for("split-brute")
    by_split = 0
    for _ in range(15):
        K = random_kripke(rng, min_states=2, max_states=3)
        forward, splits = _splits(K)
        # A letter holds on fewer states the longer the part, so the
        # single-state drop often fails and a split has to find the witness.
        drawn = desugar(random_exists_formula(rng, ("p", "q"), modal_budget=1))
        subs = (Prop("p"), Prop("q"), drawn)
        for sub, mod in product(subs, (Modality.B, Modality.E)):
            phi = Diamond(mod, sub)
            for v in K.states:
                for d in forward[v]:
                    ok, wit, split = _brute_split(K, forward, splits, sub, d, mod is Modality.B)
                    by_split += split
                    for use_memo in (True, False):
                        assert check_exists(K, phi, d, use_memo=use_memo) == (ok, wit)
    assert by_split >= 40


# ---------------------------------------------------------------------------
# Split scan and <A>/<~A> case against the plain scan they replaced


class _PlainScanEngine(_ExistsEngine):
    """The engine with the `[B]`/`[E]` scan that tests every mask match
    against a set of failed parts, and the `<A>`/`<~A>` case that checks
    the adjacent elements again for every element."""

    def _check(self, node, d):
        kind, a, _ = self._nodes[node]
        if kind is Modality.A or kind is Modality.ABAR:
            adjacent = (
                self.witnessed(d.v_fin) if kind is Modality.A else self.witnessed(d.v_in, "backward")
            )
            for adj in adjacent:
                ok, _ = self.check(a, adj)
                if ok:
                    self.stats["adjacent_witnesses"] += 1
                    return True, self.realize(d)
            return False, None
        return super()._check(node, d)

    def _split(self, sub, d, prefix):
        a, b = d.v_in, d.v_fin
        bit, succ = self._bit, self.K.successors
        target = self._mask(d)
        failed = set()

        def attempt(part):
            ok, wit = self.check(sub, part)
            if not ok:
                failed.add(part)
            return wit

        for u in self.K.predecessors(b) if prefix else succ(a):
            for m, part in self.ending(a, u) if prefix else self.ending(u, b):
                if m | bit[u] == target and part not in failed:
                    wit = attempt(part)
                    if wit is not None:
                        return True, wit + (b,) if prefix else (a,) + wit

        for mx, x in self.masked(a):
            if mx & ~target:
                continue
            base = mx | bit[x.v_fin]
            for v in succ(x.v_fin):
                ys = self.ending(v, b)
                joint = base | bit[v]
                if joint & ~target:
                    continue
                for my, y in ys:
                    if joint | my != target:
                        continue
                    part = x if prefix else y
                    if part not in failed and concat_desc(x, y) == d:
                        wit = attempt(part)
                        if wit is not None:
                            return True, wit + self.realize(y) if prefix else self.realize(x) + wit
        return False, None


def test_split_scan_matches_parent_reference(monkeypatch):
    # Result, counterexample and every counter but memo_hits must match the
    # plain scan: the candidate lists and the endpoint memo may only skip
    # checks that the plain scan answers from its failed set or its memo.
    rng = rng_for("split-plain")
    cases = []
    for _ in range(240):
        K = random_kripke(rng, min_states=2, max_states=6)
        psi = desugar(random_forall_formula(rng, ("p", "q"), modal_budget=4))
        # Without the memo the search grows exponentially with the states.
        cases.append((K, psi, len(K.states) <= 3))

    def run():
        out = []
        for K, psi, small in cases:
            for use_memo in (True, False) if small else (True,):
                out.append(model_check_univ(K, psi, use_memo=use_memo))
        return out

    got = run()
    monkeypatch.setattr(descriptor_checker, "_ExistsEngine", _PlainScanEngine)
    want = run()
    fails = 0
    for new, old in zip(got, want):
        fails += old.result == "fails"
        assert (new.result, new.counterexample) == (old.result, old.counterexample)
        assert new.stats["memo_hits"] <= old.stats["memo_hits"]
        for key in ("check_calls", "descriptors_explored", "adjacent_witnesses"):
            assert new.stats[key] == old.stats[key]
    assert 0 < fails < len(got)


def _random_adjacent_formula(rng, depth=3):
    # Universal formulas whose boxes are mostly [A]/[~A], nested, so that
    # inner <A>/<~A> nodes of the dual meet the same endpoint many times.
    r = rng.random()
    if depth == 0 or r < 0.2:
        return random_beta(rng, ("p", "q"), 1)
    if r < 0.4:
        return And(_random_adjacent_formula(rng, depth - 1), _random_adjacent_formula(rng, depth - 1))
    mod = rng.choice((Modality.A, Modality.ABAR, Modality.A, Modality.ABAR, Modality.B, Modality.E))
    return Box(mod, _random_adjacent_formula(rng, depth - 1))


def _run_engine(K, psi, use_memo):
    engine = _ExistsEngine(K, negate_to_exists(psi), use_memo=use_memo)
    for d in engine.witnessed(K.init):
        ok, wit = engine.check(engine.root, d)
        if ok:
            return engine, ("fails", wit)
    return engine, ("holds", None)


def test_adjacent_endpoint_memo_is_bypassed_without_memo():
    rng = rng_for("adjacent-memo")
    hits = 0
    for _ in range(60):
        K = random_kripke(rng, min_states=2, max_states=4)
        psi = desugar(_random_adjacent_formula(rng))
        with_memo, outcome = _run_engine(K, psi, use_memo=True)
        without, plain = _run_engine(K, psi, use_memo=False)
        assert outcome == plain
        verdict = model_check_univ(K, psi)
        assert outcome == (verdict.result, verdict.counterexample)
        assert without._adjacent == {}
        # Each (node, element) check of an <A>/<~A> node beyond the first per
        # (node, endpoint) was answered by the endpoint memo.
        adjacent_checks = sum(
            1 for node, _ in with_memo._memo
            if with_memo._nodes[node][0] in (Modality.A, Modality.ABAR)
        )
        hits += adjacent_checks - len(with_memo._adjacent)
    assert hits > 100


def test_scheduler_adjacent_memo_hits_pinned(scheduler):
    # With the endpoint memo, [~A][E] no longer asks the node memo again for
    # every adjacent element of every element sharing a first state.
    verdict = model_check_univ(scheduler, desugar(parse_formula("[~A][E](r0 -> !e1)")))
    assert verdict.stats["memo_hits"] == 12562
