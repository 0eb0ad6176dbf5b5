from itertools import product

import pytest

from intervalmc import (
    DescriptorElement,
    KripkeStructure,
    is_track,
    witnessed_descriptors,
)
from intervalmc.class_checker import check_ab
from intervalmc.cli import check
from intervalmc.descriptor_checker import _ExistsEngine, model_check_univ
from intervalmc.errors import NotInFragment, NotWitnessed, ValidationError
from intervalmc.logic import (
    And,
    Box,
    Diamond,
    Implies,
    Modality,
    Not,
    Or,
    Prop,
    classify,
    desugar,
    is_propositional,
    modal_count,
    negate_to_exists,
    parse_formula,
    val,
)
from intervalmc.model import _element, _pairs, concat_desc, shortest_witness, track_label, witness_lengths
from intervalmc.oracle import default_bound
from intervalmc.reductions import CnfFormula, build_sat_instance
from intervalmc.tracknfa import accepts_track, compile_positive, find_satisfying_track

from _check_exists import check_exists
from _descriptor_of import descriptor_of
from _instances import (
    random_beta,
    random_exists_formula,
    random_forall_formula,
    random_hs_formula,
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


def test_check_exists_rejects_undeclared_states(kequiv):
    for d in (desc("vX", (), "v0"), desc("v0", (), "vX"), desc("v0", ("v1", "vX"), "v0")):
        with pytest.raises(ValidationError) as err:
            check_exists(kequiv, parse_formula("p"), d)
        assert err.value.reason == "UnknownState"
        assert err.value.subject == "vX"


def test_check_exists_rejects_unreachable_interior():
    # w0 -> w1_T -> w1_T: no track from w0 back to w0 exists, and none
    # from w1_T passes w0.
    K, _ = build_sat_instance(CnfFormula(1, ()))
    for d in (desc("w0", ("w1_T",), "w0"), desc("w1_T", ("w0",), "w1_T")):
        with pytest.raises(NotWitnessed):
            check_exists(K, parse_formula("x1"), d)


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
    # The engine's memo changes no answer: it agrees with the memo-free
    # reference search.
    rng = rng_for("memo")
    for _ in range(20):
        K = random_kripke(rng, max_states=3)
        psi = desugar(random_exists_formula(rng, ("p", "q"), modal_budget=3))
        v = rng.choice(K.states)
        for d in witnessed_descriptors(K, v, "forward"):
            assert check_exists(K, psi, d) == _reference_exists(K, psi, d)


# ---------------------------------------------------------------------------
# The engine's per-state index


def test_witnessed_index_matches_model():
    # One dict per state and direction: exactly the elements of
    # `witnessed_descriptors`, in the breadth-first discovery order of the
    # pair search, so shortest tracks never get longer along it; each under
    # its interior mask and other endpoint, with the label intersection of
    # its tracks.
    rng = rng_for("witnessed-index")
    elements = 0
    for _ in range(40):
        K = random_kripke(rng, max_states=4)
        engine = _ExistsEngine(K, parse_formula("p"))
        for v in K.states:
            for forward, direction in ((True, "forward"), (False, "backward")):
                index = engine.witnessed(K.ids[v], forward)
                found = [_element(K, *d) for d in index.values()]
                assert sorted(found, key=DescriptorElement.sort_key) == list(witnessed_descriptors(K, v, direction))
                assert list(index) == [(mask, u) for u, mask in _pairs(K, K.ids[v], forward)]
                lengths = dict(witness_lengths(K, v, direction))
                assert all(lengths[x] <= lengths[y] for x, y in zip(found, found[1:]))
                for (mask, other), d in index.items():
                    assert d == ((K.ids[v], mask, other) if forward else (other, mask, K.ids[v]))
                    common = track_label(K, shortest_witness(K, _element(K, *d)))
                    assert engine._labels[d] == sum(K.letter_bit[p] for p in common)
                    elements += 1
    assert elements > 1500


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


def test_univ_refuses_sugared_modalities(kequiv):
    # `negate_to_exists` decides the fragment, and a sugared modality is
    # outside it.
    with pytest.raises(NotInFragment):
        model_check_univ(kequiv, parse_formula("[D] p"))


def test_univ_fragment_gate_agrees_with_classify():
    # `model_check_univ` leaves the fragment test to `negate_to_exists`;
    # it must refuse exactly the formulas that `classify` puts outside
    # ForallAABE.
    rng = rng_for("univ-gate-vs-classify")
    letters = ("p", "q")
    K = KripkeStructure(ap=letters, states=("a",), edges={("a", "a")}, labels={"a": ("p",)}, init="a")
    makers = (
        lambda: random_forall_formula(rng, letters),
        lambda: random_exists_formula(rng, letters),
        lambda: random_hs_formula(rng, letters),
        lambda: rng.choice((And, Or, Implies))(
            random_forall_formula(rng, letters, 2), random_hs_formula(rng, letters, 2)
        ),
        lambda: Not(rng.choice(makers)()),
    )
    inside = 0
    for _ in range(2000):
        psi = desugar(rng.choice(makers)())
        expected = classify(psi).forall_aabe
        try:
            model_check_univ(K, psi)
            refused = False
        except NotInFragment:
            refused = True
        assert refused != expected, psi
        inside += expected
    assert 500 <= inside <= 1500


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
        verdict = model_check_univ(K, psi)
        result, counterexample, _ = _parent_check_univ(K, psi, use_memo=False)
        assert verdict.result == result
        assert verdict.counterexample == counterexample


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
# Pinned outputs: the search order is the breadth-first discovery order of
# the pair search, so the verdict, the counterexample and the counters move
# only when that order changes.


SCHEDULER_PINS = (
    (
        "[E] !(e0 & e1)",
        "fails",
        ("w0", "w1", "w3", "w8", "w9"),
        62,
        1874,
    ),
    ("[B] !(e0 & e1)", "holds", None, 377, 268),
    ("[~A][E](r0 -> !e1)", "holds", None, 651, 2935),
)


@pytest.mark.parametrize(
    "text,result,counterexample,check_calls,explored", SCHEDULER_PINS, ids=[pin[0] for pin in SCHEDULER_PINS]
)
def test_scheduler_outputs_pinned(scheduler, text, result, counterexample, check_calls, explored):
    verdict = model_check_univ(scheduler, desugar(parse_formula(text)))
    assert verdict.result == result
    assert verdict.counterexample == counterexample
    assert verdict.stats["check_calls"] == check_calls
    assert verdict.stats["descriptors_explored"] == explored


@pytest.mark.parametrize(
    "text,counterexample",
    [
        ("[A] zz", ("w0", "w1")),
        ("[E] !(e0 & e1)", ("w0", "w1", "w3", "w8", "w9")),
        ("[B][E] !(e0 & e1)", ("w0", "w1", "w3", "w8", "w9", "w0")),
    ],
)
def test_scheduler_counterexamples_short(scheduler, text, counterexample):
    # The initial elements are searched shortest track first, so the
    # counterexample is a track of a failing element with a short track.
    psi = parse_formula(text)
    verdict = check(scheduler, psi)
    assert (verdict.engine, verdict.result, verdict.counterexample) == ("descriptor", "fails", counterexample)
    if classify(desugar(psi)).ab_bar:
        assert check(scheduler, psi, "class").counterexample == counterexample
    negated = negate_to_exists(desugar(psi))
    bound = max(default_bound(scheduler, negated), len(counterexample))
    assert accepts_track(compile_positive(scheduler, negated, bound), counterexample, bound)


SAT_PINS = (
    # Satisfied exactly when x1 & !x3 & x4, whatever x2 is.
    (CnfFormula(4, ((1, 2), (1, -2), (-3, 4), (-3, -4), (2, 4), (-2, 3, 4))),
     "fails", ("w0", "w1_T", "w2_F", "w3_F"), 11, 46),
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
    assert totals == {"check_calls": 1212, "descriptors_explored": 2407, "adjacent_witnesses": 52}


# ---------------------------------------------------------------------------
# [B]/[E] peel search against a brute-force scan of every split, and against
# the split scan it replaced


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


def _assert_peel_witness(K, sub, d, prefix, wit, reference):
    """`wit` is a track of d whose kept prefix (suffix) satisfies `sub`, and
    it is no longer than the reference witness."""
    assert is_track(K, wit) and descriptor_of(wit) == d
    assert len(wit) <= len(reference)
    kept = [wit[:k] for k in range(2, len(wit))] if prefix else [wit[k:] for k in range(1, len(wit) - 1)]
    assert any(check_exists(K, sub, descriptor_of(part))[0] for part in kept)
    phi = Diamond(Modality.B if prefix else Modality.E, sub)
    bound = max(default_bound(K, phi), len(wit))
    assert accepts_track(compile_positive(K, phi, bound), wit, bound)


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
            prefix = mod is Modality.B
            for v in K.states:
                for d in forward[v]:
                    ok, ref, split = _brute_split(K, forward, splits, sub, d, prefix)
                    by_split += split
                    for got, wit in (check_exists(K, phi, d), _reference_exists(K, phi, d)):
                        assert got == ok
                        if ok:
                            _assert_peel_witness(K, sub, d, prefix, wit, ref)
                        else:
                            assert wit is None
    assert by_split >= 40


class _ParentEngine:
    """The engine as it was on `DescriptorElement`s, named states and leaves
    evaluated by `val`, before it moved onto the structure's state
    numbering and compiled leaves. The search order, the memo and the
    counters are the same, so every report must be too."""

    def __init__(self, K, phi, use_memo=True):
        self.K = K
        self.use_memo = use_memo
        self._bit = {s: 1 << i for i, s in enumerate(K.states)}
        letter_bit = {p: 1 << i for i, p in enumerate(sorted(K.ap))}
        self._letters = {s: sum(letter_bit[p] for p in K.labels[s]) for s in K.states}
        self._nodes = []
        self._node_ids = {}
        self.root = self._compile(phi)
        self._witnessed = {}
        self._peels = {}
        self._memo = {}
        self._adjacent = {}
        self._leaf_values = {}
        self._witness_cache = {}
        self.stats = {"check_calls": 0, "memo_hits": 0, "descriptors_explored": 0, "adjacent_witnesses": 0}

    def _compile(self, phi):
        if is_propositional(phi):
            node = ("leaf", phi, None)
        elif isinstance(phi, Or):
            node = ("or", self._compile(phi.left), self._compile(phi.right))
        else:
            node = (phi.mod, self._compile(phi.sub), None)
        index = self._node_ids.get(node)
        if index is None:
            index = self._node_ids[node] = len(self._nodes)
            self._nodes.append(node)
        return index

    def witnessed(self, v, direction="forward"):
        key = (v, direction)
        out = self._witnessed.get(key)
        if out is None:
            # The breadth-first discovery order of the pair search.
            K, first, forward = self.K, self.K.ids[v], direction == "forward"
            out = self._witnessed[key] = [
                _element(K, first, mask, u) if forward else _element(K, u, mask, first)
                for u, mask in _pairs(K, first, forward)
            ]
            self.stats["descriptors_explored"] += len(out)
        return out

    def _mask(self, d):
        return sum(map(self._bit.__getitem__, d.interior))

    def peels(self, v):
        out = self._peels.get(v)
        if out is None:
            out = self._peels[v] = {(self._mask(d), d.v_fin): d for d in self.witnessed(v)}
        return out

    def realize(self, d):
        out = self._witness_cache.get(d)
        if out is None:
            out = self._witness_cache[d] = shortest_witness(self.K, d)
        return out

    def check(self, node, d):
        key = (node, d)
        if self.use_memo:
            out = self._memo.get(key)
            if out is not None:
                self.stats["memo_hits"] += 1
                return out
        self.stats["check_calls"] += 1
        out = self._check(node, d)
        if self.use_memo:
            self._memo[key] = out
        return out

    def _check(self, node, d):
        kind, a, b = self._nodes[node]
        if kind == "leaf":
            letters = self._letters
            common = letters[d.v_in] & letters[d.v_fin]
            for s in d.interior:
                common &= letters[s]
            key = (node, common)
            ok = self._leaf_values.get(key)
            if ok is None:
                ok = self._leaf_values[key] = val(a, d, self.K)
            return (True, self.realize(d)) if ok else (False, None)
        if kind == "or":
            ok, wit = self.check(a, d)
            if ok:
                return ok, wit
            return self.check(b, d)
        if kind is Modality.A or kind is Modality.ABAR:
            end = d.v_fin if kind is Modality.A else d.v_in
            key = (node, end)
            ok = self._adjacent.get(key) if self.use_memo else None
            if ok is None:
                adjacent = self.witnessed(end, "forward" if kind is Modality.A else "backward")
                ok = any(self.check(a, adj)[0] for adj in adjacent)
                if self.use_memo:
                    self._adjacent[key] = ok
            if ok:
                self.stats["adjacent_witnesses"] += 1
                return True, self.realize(d)
            return False, None
        return self._peel(node, a, d, kind is Modality.B)

    def _peel(self, node, sub, d, prefix):
        bit = self._bit
        parents = {}
        queue = [(self._mask(d), d)]
        for mask, y in queue:
            a, b = y.v_in, y.v_fin
            for u in self.K.predecessors(b) if prefix else self.K.successors(a):
                if not mask & bit[u]:
                    continue
                index = self.peels(a if prefix else u)
                for m in (mask & ~bit[u], mask):
                    z = index.get((m, u if prefix else b))
                    if z is None or z in parents:
                        continue
                    parents[z] = y
                    ok, wit = self.check(sub, z)
                    if ok:
                        while True:
                            z = parents[z]
                            wit = wit + (z.v_fin,) if prefix else (z.v_in,) + wit
                            if z == d:
                                return True, wit
                    # Nothing reachable from an element already refuted for
                    # this node satisfies `sub`.
                    if not (self.use_memo and self._memo.get((node, z)) == (False, None)):
                        queue.append((m, z))
        if self.use_memo:
            for z in parents:
                self._memo[(node, z)] = (False, None)
        return False, None


def _reference_exists(K, psi, d):
    """`check_exists` by the parent reference, without its memo."""
    engine = _ParentEngine(K, psi, use_memo=False)
    return engine.check(engine.root, d)


def _run(engine, init):
    """The engine and its (result, counterexample) over the elements from `init`."""
    for d in engine.witnessed(init):
        ok, wit = engine.check(engine.root, d)
        if ok:
            return engine, ("fails", wit)
    return engine, ("holds", None)


def _parent_check_univ(K, psi, use_memo):
    engine, outcome = _run(_ParentEngine(K, negate_to_exists(psi), use_memo=use_memo), K.init)
    return (*outcome, engine.stats)


def test_engine_matches_parent_reference():
    # Same verdict, counterexample and counters as the engine on
    # `DescriptorElement`s, and on small structures the same verdict and
    # counterexample as that engine without its memo.
    rng = rng_for("engine-parent")
    fails = runs = 0
    for _ in range(240):
        K = random_kripke(rng, min_states=2, max_states=6)
        psi = desugar(random_forall_formula(rng, ("p", "q"), modal_budget=4))
        # Without the memo the search grows exponentially with the states
        # and the modal depth.
        small = len(K.states) <= 3 and modal_count(psi) <= 3
        verdict = model_check_univ(K, psi)
        assert (verdict.result, verdict.counterexample, verdict.stats) == _parent_check_univ(K, psi, True)
        if small:
            assert (verdict.result, verdict.counterexample) == _parent_check_univ(K, psi, False)[:2]
        fails += verdict.result == "fails"
        runs += 1
    assert 0 < fails < runs


def test_peel_reaches_its_own_element():
    # s0 -> s0 and s1 -> s0: dropping the first or last state of a track of
    # (s0, {s0}, s0) can leave a track of the same element, and the search
    # has to check it there.
    K = KripkeStructure(
        ap=("p", "q"), states=("s0", "s1"), edges={("s0", "s0"), ("s1", "s0")},
        labels={"s0": {"q"}, "s1": {"p", "q"}}, init="s0",
    )
    psi = desugar(parse_formula("[B]([E](p & [B] p))"))
    d = desc("s0", ("s0",), "s0")
    verdict = model_check_univ(K, psi)
    assert verdict.result == "fails"
    assert verdict.counterexample == ("s0", "s0", "s0", "s0")
    assert _parent_check_univ(K, psi, use_memo=False)[:2] == ("fails", verdict.counterexample)
    for ok, wit in (check_exists(K, parse_formula("<E> !p"), d), _reference_exists(K, parse_formula("<E> !p"), d)):
        assert ok and descriptor_of(wit) == d


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


def _run_engine(K, psi):
    """The engine and its (result, counterexample) over the elements from
    the initial state."""
    engine = _ExistsEngine(K, negate_to_exists(psi))
    for d in engine.witnessed(K.ids[K.init]).values():
        wit = engine.check(engine.root, d)
        if wit:
            return engine, ("fails", wit)
    return engine, ("holds", None)


def test_adjacent_endpoint_memo_is_bypassed_without_memo():
    rng = rng_for("adjacent-memo")
    hits = 0
    for _ in range(60):
        K = random_kripke(rng, min_states=2, max_states=4)
        psi = desugar(_random_adjacent_formula(rng))
        with_memo, outcome = _run_engine(K, psi)
        without, plain = _run(_ParentEngine(K, negate_to_exists(psi), use_memo=False), K.init)
        assert outcome == plain
        verdict = model_check_univ(K, psi)
        assert outcome == (verdict.result, verdict.counterexample)
        assert without._adjacent == {}
        # Each (node, element) check of an <A>/<~A> node beyond the first per
        # (node, endpoint) was answered by the endpoint memo.
        adjacent_checks = sum(
            1 for node, _ in with_memo._memo
            if with_memo._table.nodes[node][0] in (Modality.A, Modality.ABAR)
        )
        hits += adjacent_checks - len(with_memo._adjacent)
    assert hits > 100


def test_scheduler_adjacent_memo_hits_pinned(scheduler):
    # With the endpoint memo, [~A][E] no longer asks the node memo again for
    # every adjacent element of every element sharing a first state.
    verdict = model_check_univ(scheduler, desugar(parse_formula("[~A][E](r0 -> !e1)")))
    assert verdict.stats["memo_hits"] == 242
