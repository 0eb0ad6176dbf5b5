import pytest

from intervalmc import descriptor_of, enumerate_tracks
from intervalmc.errors import BoundTooSmall, NotInFragment
from intervalmc.logic import (
    FALSE,
    TRUE,
    And,
    Box,
    Diamond,
    Implies,
    Modality,
    desugar,
    negate_to_exists,
    Not,
    Or,
    Prop,
    parse_formula,
)
from intervalmc.oracle import BoundedEvaluator, default_bound, eval_bounded, model_check_bounded
from intervalmc.reductions import CnfFormula, build_sat_instance
from intervalmc.tracknfa import accepts_track, compile_positive, find_satisfying_track

from _instances import (
    HS_MODS,
    random_beta,
    random_exists_formula,
    random_forall_formula,
    random_hs_formula,
    random_kripke,
    random_positive_formula,
    random_track,
    rng_for,
)


# ---------------------------------------------------------------------------
# Base semantics


def test_eval_bounded_examples(kequiv):
    assert eval_bounded(kequiv, ("v0", "v1"), parse_formula("<A> q"), 2) is True
    assert eval_bounded(kequiv, ("v0", "v1"), parse_formula("<B> p"), 8) is False
    assert eval_bounded(kequiv, ("v0", "v0", "v0"), parse_formula("<B> p"), 3) is True


def test_eval_bounded_rejects_long_track(kequiv):
    with pytest.raises(BoundTooSmall):
        eval_bounded(kequiv, ("v0", "v0", "v0"), parse_formula("p"), 2)


def test_eval_bounded_rejects_sugar(kequiv):
    with pytest.raises(ValueError):
        eval_bounded(kequiv, ("v0", "v1"), parse_formula("<D> p"), 4)


def test_eval_bounded_rejects_sugar_in_unreached_branch(kequiv):
    # The whole formula is compiled before evaluation, so sugar is refused
    # even where `false &` short-circuits it.
    phi = And(FALSE, Diamond(Modality.D, Prop("p")))
    with pytest.raises(ValueError):
        eval_bounded(kequiv, ("v0", "v1"), phi, 4)


def test_model_check_bounded_examples(kequiv):
    assert model_check_bounded(kequiv, parse_formula("true"), 4).value is True
    verdict = model_check_bounded(kequiv, parse_formula("p"), 2)
    assert verdict.value is False and verdict.failing_track == ("v0", "v1")
    K, _ = build_sat_instance(CnfFormula(1, ()))
    assert model_check_bounded(K, parse_formula("!x1"), 3).value is False


def test_default_bound_examples(kequiv):
    assert default_bound(kequiv, parse_formula("<A> q")) == 12
    assert default_bound(kequiv, parse_formula("p & q")) == 6
    K = random_kripke(rng_for("db"), min_states=3, max_states=3)
    assert default_bound(K, parse_formula("<A><B> p")) == 33


def test_box_and_diamond_are_dual(kequiv):
    ev = BoundedEvaluator(kequiv, 5)
    phi = parse_formula("q")
    for rho in enumerate_tracks(kequiv, 4):
        box = ev.eval(rho, Box(Modality.A, phi))
        dia = ev.eval(rho, Diamond(Modality.A, Not(phi)))
        assert box == (not dia)


def test_left_and_right_extensions(kequiv):
    # Extension by a single state counts, and the extension's label keeps
    # shrinking: states of the original track stay in the intersection.
    assert eval_bounded(kequiv, ("v1", "v1"), parse_formula("<~B> q"), 3) is True
    assert eval_bounded(kequiv, ("v1", "v1"), parse_formula("<~E> q"), 3) is True
    assert eval_bounded(kequiv, ("v0", "v1"), parse_formula("<~B> q"), 8) is False
    assert eval_bounded(kequiv, ("v0", "v1"), parse_formula("[~B] false"), 2) is True


# ---------------------------------------------------------------------------
# Fragment monotonicity and dualization


def test_existential_truth_is_monotone_in_bound():
    rng = rng_for("monotone")
    for _ in range(25):
        K = random_kripke(rng, max_states=3)
        phi = desugar(random_exists_formula(rng, ("p", "q"), modal_budget=2))
        rho = random_track(rng, K, rng.randint(2, 4))
        previous = False
        for bound in (4, 5, 6, 7):
            value = eval_bounded(K, rho, phi, bound)
            if previous:
                assert value, "existential truth must persist as the bound grows"
            previous = value


def test_universal_bounded_refutations_are_exact():
    from intervalmc.descriptor_checker import model_check_univ

    rng = rng_for("dualmono")
    for _ in range(15):
        K = random_kripke(rng, max_states=3)
        psi = desugar(random_forall_formula(rng, ("p", "q"), modal_budget=2))
        exact = model_check_univ(K, psi).holds
        for bound in (4, 6):
            bounded = model_check_bounded(K, psi, bound).value
            if exact:
                assert bounded
            if not bounded:
                assert not exact


def test_dualization_is_exact_under_bounded_semantics():
    rng = rng_for("dual")
    for _ in range(30):
        K = random_kripke(rng, max_states=3)
        psi = desugar(random_forall_formula(rng, ("p", "q"), modal_budget=2))
        flipped = negate_to_exists(psi)
        bound = rng.randint(4, 7)
        ev = BoundedEvaluator(K, bound)
        for rho in enumerate_tracks(K, min(bound, 4)):
            assert ev.eval(rho, Not(psi)) == ev.eval(rho, flipped)


# ---------------------------------------------------------------------------
# Direct-relation semantics for the sugar modalities. Each sugared
# modality is evaluated here from the definition of its interval relation
# (gap paths, interior subtracks, overlapping extensions) and compared
# with the rewrite produced by desugar().


def _tracks_from(K, v, bound):
    return enumerate_tracks(K, bound, start=v)


def _tracks_to(K, v, bound):
    return (t for t in enumerate_tracks(K, bound) if t[-1] == v)


def _right_exts(K, rho, bound):
    def extend(t):
        for w in K.successors(t[-1]):
            u = t + (w,)
            yield u
            if len(u) < bound:
                yield from extend(u)

    if len(rho) < bound:
        yield from extend(rho)


def _left_exts(K, rho, bound):
    def extend(t):
        for w in K.predecessors(t[0]):
            u = (w,) + t
            yield u
            if len(u) < bound:
                yield from extend(u)

    if len(rho) < bound:
        yield from extend(rho)


def _sugar_domain(K, rho, mod, bound):
    n = len(rho) - 1
    if mod is Modality.L:
        gap_ends = {sigma[-1] for sigma in enumerate_tracks(K, bound, start=rho[-1])}
        for u in sorted(gap_ends):
            yield from _tracks_from(K, u, bound)
    elif mod is Modality.LBAR:
        gap_starts = {sigma[0] for sigma in _tracks_to(K, rho[0], bound)}
        for u in sorted(gap_starts):
            yield from _tracks_to(K, u, bound)
    elif mod is Modality.D:
        for i in range(1, n):
            for j in range(i + 1, n):
                yield rho[i : j + 1]
    elif mod is Modality.DBAR:
        for mid in _right_exts(K, rho, bound):
            yield from _left_exts(K, mid, bound)
    elif mod is Modality.O:
        for i in range(1, n):
            yield from _right_exts(K, rho[i:], bound)
    elif mod is Modality.OBAR:
        for i in range(1, n):
            yield from _left_exts(K, rho[: i + 1], bound)
    else:
        raise AssertionError(f"not a sugar modality: {mod}")


def _eval_sugar_direct(K, rho, node_type, mod, sub, bound):
    ev = BoundedEvaluator(K, bound)
    want = node_type is Diamond
    for candidate in _sugar_domain(K, rho, mod, bound):
        if ev.eval(candidate, sub) == want:
            return want
    return not want


SUGAR_MODS = (Modality.L, Modality.D, Modality.O, Modality.LBAR, Modality.DBAR, Modality.OBAR)


@pytest.mark.parametrize("mod", SUGAR_MODS, ids=lambda m: m.text)
def test_desugar_matches_direct_relation_semantics(mod):
    rng = rng_for(f"sugar::{mod.text}")
    bound = 6
    for _ in range(12):
        K = random_kripke(rng, max_states=3)
        sub = desugar(random_beta(rng, ("p", "q")))
        rho = random_track(rng, K, rng.randint(2, 4))
        for node_type in (Diamond, Box):
            rewritten = desugar(node_type(mod, sub))
            direct = _eval_sugar_direct(K, rho, node_type, mod, sub, bound)
            assert eval_bounded(K, rho, rewritten, bound) == direct


def test_desugar_preserves_bounded_verdicts_on_nested_formulas():
    rng = rng_for("sugar-nested")
    for _ in range(10):
        K = random_kripke(rng, max_states=3)
        sub = desugar(random_beta(rng, ("p", "q")))
        mod = rng.choice(SUGAR_MODS)
        inner = Diamond(mod, sub)
        direct_domain_eval = _eval_sugar_direct(K, random_track(rng, K, 3), Diamond, mod, sub, 6)
        assert isinstance(direct_domain_eval, bool)
        phi = Diamond(Modality.A, inner)
        ev = BoundedEvaluator(K, 6)
        for rho in enumerate_tracks(K, 3):
            expected = any(
                _eval_sugar_direct(K, t, Diamond, mod, sub, 6)
                for t in enumerate_tracks(K, 6, start=rho[-1])
            )
            assert ev.eval(rho, desugar(phi)) == expected


# ---------------------------------------------------------------------------
# Automaton engine against the naive evaluator


def test_automaton_matches_naive_eval_per_track():
    # Tracks of every admissible length run through one compiled
    # automaton, so position-dependent acceptance is exercised.
    rng = rng_for("nfa-eval")
    for _ in range(30):
        K = random_kripke(rng, max_states=3)
        bound = rng.randint(3, 6)
        phi = desugar(random_positive_formula(rng, ("p", "q"), modal_budget=3))
        auto = compile_positive(K, phi, bound)
        ev = BoundedEvaluator(K, bound)
        for rho in enumerate_tracks(K, bound):
            assert accepts_track(auto, rho, bound) == ev.eval(rho, phi)


def test_automaton_matches_naive_on_dense_loops():
    from intervalmc import KripkeStructure

    rng = rng_for("nfa-dense")
    for _ in range(15):
        n = rng.randint(2, 3)
        states = [f"s{i}" for i in range(n)]
        edges = {(s, s) for s in states} | {
            (a, b) for a in states for b in states if rng.random() < 0.6
        }
        K = KripkeStructure(
            ap=("p", "q"),
            states=states,
            edges=edges,
            labels={s: [p for p in ("p", "q") if rng.random() < 0.6] for s in states},
            init=states[0],
        )
        bound = rng.randint(4, 6)
        phi = desugar(random_positive_formula(rng, ("p", "q"), modal_budget=3))
        auto = compile_positive(K, phi, bound)
        ev = BoundedEvaluator(K, bound)
        for rho in enumerate_tracks(K, bound):
            assert accepts_track(auto, rho, bound) == ev.eval(rho, phi)
        for v in K.states:
            naive = any(ev.eval(t, phi) for t in enumerate_tracks(K, bound, start=v))
            assert (find_satisfying_track(K, phi, bound, first=v) is not None) == naive


def test_automaton_existence_matches_naive_enumeration():
    rng = rng_for("nfa-exists")
    for _ in range(25):
        K = random_kripke(rng, max_states=3)
        bound = rng.randint(3, 6)
        phi = desugar(random_positive_formula(rng, ("p", "q"), modal_budget=2))
        ev = BoundedEvaluator(K, bound)
        for v in K.states:
            naive = any(ev.eval(t, phi) for t in enumerate_tracks(K, bound, start=v))
            found = find_satisfying_track(K, phi, bound, first=v)
            assert (found is not None) == naive
            if found is not None:
                assert found[0] == v and len(found) <= bound
                assert ev.eval(found, phi)


def test_automaton_existence_with_descriptor_constraint():
    rng = rng_for("nfa-desc")
    for _ in range(25):
        K = random_kripke(rng, max_states=3)
        bound = rng.randint(4, 6)
        phi = desugar(random_positive_formula(rng, ("p", "q"), modal_budget=2))
        ev = BoundedEvaluator(K, bound)
        rho = random_track(rng, K, rng.randint(2, min(4, bound)))
        d = descriptor_of(rho)
        naive = any(
            ev.eval(t, phi)
            for t in enumerate_tracks(K, bound, start=d.v_in)
            if descriptor_of(t) == d
        )
        found = find_satisfying_track(
            K, phi, bound, first=d.v_in, last=d.v_fin, interior=d.interior
        )
        assert (found is not None) == naive
        if found is not None:
            assert descriptor_of(found) == d
            assert ev.eval(found, phi)


def test_right_extension_budget_depends_on_position():
    # One compiled automaton must answer per-position: a node whose
    # two-step extension fits the budget of a short track does not fit
    # once the same node is reached on a longer track.
    from intervalmc import KripkeStructure

    K = KripkeStructure(
        ap=("p",),
        states=("a", "b", "m", "c"),
        edges={("a", "b"), ("b", "b"), ("b", "m"), ("m", "c"), ("c", "c")},
        labels={"a": ("p",), "b": ("p",), "m": ("p",), "c": ()},
        init="a",
    )
    phi = parse_formula("<~B> !p")
    bound = 5
    auto = compile_positive(K, phi, bound)
    assert accepts_track(auto, ("a", "b"), bound) is True
    assert accepts_track(auto, ("a", "b", "b", "b"), bound) is False
    assert eval_bounded(K, ("a", "b"), phi, bound) is True
    assert eval_bounded(K, ("a", "b", "b", "b"), phi, bound) is False


def test_constrained_search_revisits_looping_start():
    # The witness must pass through the start state twice; the suffix
    # automaton's skim node returns to the start configuration, which the
    # visited set must not conflate with the unexpanded seed.
    from intervalmc import KripkeStructure

    K = KripkeStructure(
        ap=("p", "q"),
        states=("a", "b"),
        edges={("a", "a"), ("a", "b"), ("b", "b")},
        labels={"a": ("q",), "b": ("p",)},
        init="a",
    )
    phi = parse_formula("<E> p")
    found = find_satisfying_track(
        K, phi, 8, first="a", last="b", interior=frozenset({"a", "b"})
    )
    assert found == ("a", "a", "b", "b")
    assert eval_bounded(K, found, phi, 8) is True


def _reference_eval(K, rho, phi, bound):
    """The semantic clauses spelled out over an explicitly materialized
    bounded track set: no memo, no early exit, no shared code with the
    evaluator under test.
    """
    from intervalmc import logic as lg

    universe = list(enumerate_tracks(K, bound))

    def ev(t, f):
        if isinstance(f, lg.Prop):
            return all(f.name in K.labels[s] for s in t)
        if isinstance(f, lg.Const):
            return f.value
        if isinstance(f, lg.Not):
            return not ev(t, f.sub)
        if isinstance(f, lg.And):
            return ev(t, f.left) and ev(t, f.right)
        if isinstance(f, lg.Or):
            return ev(t, f.left) or ev(t, f.right)
        if isinstance(f, lg.Implies):
            return not ev(t, f.left) or ev(t, f.right)
        sub = f.sub
        if f.mod is Modality.A:
            domain = [u for u in universe if u[0] == t[-1]]
        elif f.mod is Modality.ABAR:
            domain = [u for u in universe if u[-1] == t[0]]
        elif f.mod is Modality.B:
            domain = [u for u in universe if len(u) < len(t) and t[: len(u)] == u]
        elif f.mod is Modality.E:
            domain = [u for u in universe if len(u) < len(t) and t[len(t) - len(u):] == u]
        elif f.mod is Modality.BBAR:
            domain = [u for u in universe if len(u) > len(t) and u[: len(t)] == t]
        else:
            domain = [u for u in universe if len(u) > len(t) and u[len(u) - len(t):] == t]
        if isinstance(f, Diamond):
            return any(ev(u, sub) for u in domain)
        return all(ev(u, sub) for u in domain)

    return ev(tuple(rho), phi)


def test_evaluator_matches_reference_clauses():
    rng = rng_for("reference")
    for _ in range(12):
        K = random_kripke(rng, max_states=2)
        bound = rng.randint(3, 5)
        parts = [
            desugar(random_positive_formula(rng, ("p", "q"), modal_budget=1)),
            desugar(random_forall_formula(rng, ("p", "q"), modal_budget=1)),
        ]
        mods = (Modality.B, Modality.E, Modality.BBAR, Modality.EBAR)
        parts.append(Box(rng.choice(mods), random_beta(rng, ("p", "q"), 1)))
        parts.append(Diamond(rng.choice(mods), Not(random_beta(rng, ("p", "q"), 1))))
        ev = BoundedEvaluator(K, bound)
        for phi in parts:
            for rho in enumerate_tracks(K, bound):
                assert ev.eval(rho, phi) == _reference_eval(K, rho, phi, bound)


class _FormulaKeyedEvaluator:
    """The evaluator as it was before the node table: memo keyed by
    (formula, track), `<A>`/`<~A>` by (operand, state, direction, polarity),
    and one recursive generator per extension direction.
    """

    def __init__(self, K, bound):
        self.K = K
        self.bound = bound
        self._memo = {}
        self._quant = {}

    def eval(self, rho, phi):
        key = (phi, rho)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._eval(rho, phi)
        return hit

    def _eval(self, rho, phi):
        from intervalmc import logic as lg
        from intervalmc.model import track_label

        if isinstance(phi, lg.Prop):
            return phi.name in track_label(self.K, rho)
        if isinstance(phi, lg.Const):
            return phi.value
        if isinstance(phi, lg.Not):
            return not self.eval(rho, phi.sub)
        if isinstance(phi, lg.And):
            return self.eval(rho, phi.left) and self.eval(rho, phi.right)
        if isinstance(phi, lg.Or):
            return self.eval(rho, phi.left) or self.eval(rho, phi.right)
        if isinstance(phi, lg.Implies):
            return not self.eval(rho, phi.left) or self.eval(rho, phi.right)
        want, sub, mod = isinstance(phi, Diamond), phi.sub, phi.mod
        if mod in (Modality.A, Modality.ABAR):
            v = rho[-1] if mod is Modality.A else rho[0]
            key = (sub, v, mod, want)
            if key not in self._quant:
                forward = mod is Modality.A
                self._quant[key] = self._any(self._extend((v,), forward), sub, want)
            return self._quant[key]
        if mod is Modality.B:
            return self._any((rho[:i] for i in range(2, len(rho))), sub, want)
        if mod is Modality.E:
            return self._any((rho[i:] for i in range(1, len(rho) - 1)), sub, want)
        if len(rho) >= self.bound:
            return not want
        return self._any(self._extend(rho, mod is Modality.BBAR), sub, want)

    def _any(self, tracks, sub, want):
        for t in tracks:
            if self.eval(t, sub) == want:
                return want
        return not want

    def _extend(self, t, forward):
        for w in self.K.successors(t[-1]) if forward else self.K.predecessors(t[0]):
            u = t + (w,) if forward else (w,) + t
            yield u
            if len(u) < self.bound:
                yield from self._extend(u, forward)


def _formula_keyed_check(K, phi, bound):
    ev = _FormulaKeyedEvaluator(K, bound)
    for rho in enumerate_tracks(K, bound, start=K.init):
        if not ev.eval(rho, phi):
            return False, rho
    return True, None


def test_compiled_evaluator_matches_formula_keyed_evaluator():
    rng = rng_for("compiled-vs-formula-keyed")
    for _ in range(200):
        K = random_kripke(rng, max_states=4, letters=("p", "q"))
        bound = rng.randint(2, 6)
        phi = random_hs_formula(rng, ("p", "q"), modal_budget=3)
        verdict = model_check_bounded(K, phi, bound)
        assert (verdict.value, verdict.failing_track) == _formula_keyed_check(K, phi, bound)
        # Three formulas sharing subformulas, a diamond and its box twin
        # among them, on one evaluator each side.
        a = random_hs_formula(rng, ("p", "q"), modal_budget=2)
        b = random_hs_formula(rng, ("p", "q"), modal_budget=1)
        mod = rng.choice(HS_MODS)
        shared = (a, Implies(b, Diamond(mod, a)), Or(Box(mod, a), Not(b)))
        ev, old = BoundedEvaluator(K, bound), _FormulaKeyedEvaluator(K, bound)
        for rho in enumerate_tracks(K, bound):
            for f in shared:
                assert ev.eval(rho, f) == old.eval(rho, f)


def _every_track_check(K, phi, bound):
    """`model_check_bounded` as it was before its shortcuts: every initial
    track enumerated and evaluated, here by the formula-keyed evaluator."""
    ev = _FormulaKeyedEvaluator(K, bound)
    count = 0
    for rho in enumerate_tracks(K, bound, start=K.init):
        count += 1
        if not ev.eval(rho, phi):
            return False, rho, count
    return True, None, count


def _endpoint_biased_formula(rng, depth):
    """Mostly roots decided by the endpoints: `<A>`/`<~A>` as diamonds or
    boxes and Boolean combinations of them, `[X] true`, `<X> false`, and
    constants under the other modalities, where `<X> true` and `[X] false`
    are not constant (the domain can be empty)."""
    r = rng.random()
    if depth == 0 or r < 0.15:
        return rng.choice((TRUE, FALSE, Prop("p"), Prop("q")))
    node = rng.choice((Diamond, Box))
    if r < 0.45:
        if rng.random() < 0.5:
            sub = random_hs_formula(rng, ("p", "q"), modal_budget=1)
        else:
            sub = _endpoint_biased_formula(rng, depth - 1)
        return node(rng.choice((Modality.A, Modality.ABAR)), sub)
    if r < 0.55:
        return Not(_endpoint_biased_formula(rng, depth - 1))
    if r < 0.8:
        left, right = _endpoint_biased_formula(rng, depth - 1), _endpoint_biased_formula(rng, depth - 1)
        return rng.choice((And, Or, Implies))(left, right)
    sub = rng.choice((TRUE, FALSE)) if rng.random() < 0.7 else _endpoint_biased_formula(rng, depth - 1)
    return node(rng.choice(HS_MODS), sub)


def test_endpoint_shortcut_matches_evaluating_every_track():
    rng = rng_for("endpoint-shortcut")
    endpoint = failing = fixed = 0
    for _ in range(300):
        K = random_kripke(rng, max_states=4, letters=("p", "q"))
        bound = rng.randint(2, 6)
        phi = _endpoint_biased_formula(rng, 3)
        verdict = model_check_bounded(K, phi, bound)
        want = _every_track_check(K, phi, bound)
        assert (verdict.value, verdict.failing_track, verdict.initial_tracks) == want, (phi, bound)
        ev = BoundedEvaluator(K, bound)
        root = ev.compile(phi)
        endpoint += ev.endpoint[root]
        failing += ev.endpoint[root] and not want[0]
        fixed += ev.fixed[root] is not None
    # Both outcomes of the shortcut, and folded roots, are exercised.
    assert endpoint >= 150 and failing >= 60 and fixed >= 50, (endpoint, failing, fixed)


def test_automaton_rejects_unsupported_nodes(kequiv):
    with pytest.raises(NotInFragment):
        compile_positive(kequiv, parse_formula("[A] p"), 6)
    with pytest.raises(NotInFragment):
        compile_positive(kequiv, parse_formula("<~E> p"), 6)
    with pytest.raises(NotInFragment):
        compile_positive(kequiv, parse_formula("!(<A> p)"), 6)
