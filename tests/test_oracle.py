import pytest

from intervalmc import enumerate_tracks
from intervalmc.errors import BoundTooSmall, NotInFragment, ValidationError
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
from intervalmc.oracle import TRACK, BoundedEvaluator, default_bound, eval_bounded, model_check_bounded
from intervalmc.reductions import CnfFormula, build_sat_instance
from intervalmc.tracknfa import accepts_track, compile_positive, find_satisfying_track

from _descriptor_of import descriptor_of
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
    sparse_kripke,
)
import _oracle_by_name as by_name


# ---------------------------------------------------------------------------
# Base semantics


def test_eval_bounded_examples(kequiv):
    assert eval_bounded(kequiv, ("v0", "v1"), parse_formula("<A> q"), 2) is True
    assert eval_bounded(kequiv, ("v0", "v1"), parse_formula("<B> p"), 8) is False
    assert eval_bounded(kequiv, ("v0", "v0", "v0"), parse_formula("<B> p"), 3) is True


def test_eval_bounded_rejects_long_track(kequiv):
    with pytest.raises(BoundTooSmall):
        eval_bounded(kequiv, ("v0", "v0", "v0"), parse_formula("p"), 2)


@pytest.mark.parametrize(
    "rho, reason, subject",
    [
        (("b", "a"), "NotATrack", None),
        (("a", "zz"), "UnknownState", "zz"),
        (("a",), "NotATrack", None),
        ((), "NotATrack", None),
    ],
    ids=["missing-edge", "undeclared-state", "one-state", "empty"],
)
def test_eval_bounded_rejects_a_non_track(rho, reason, subject):
    # The formula is constant, so only the track check can refuse. b -> a
    # is no edge.
    from intervalmc import KripkeStructure

    K = KripkeStructure(
        ap=("p",), states=("a", "b"), edges={("a", "a"), ("a", "b"), ("b", "b")}, labels={}, init="a"
    )
    with pytest.raises(ValidationError) as err:
        eval_bounded(K, rho, parse_formula("true"), 4)
    assert (err.value.reason, err.value.subject) == (reason, subject)


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
        shortcut = ev.deps[root] != TRACK
        endpoint += shortcut
        failing += shortcut and not want[0]
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


# ---------------------------------------------------------------------------
# Decisions per (last state, length) and the counted first failing track,
# against the evaluator that enumerated every initial track.


class _EnumeratingEvaluator:
    """`BoundedEvaluator` as it was before it recorded which track features
    a node depends on: fixed nodes folded, `<A>`/`<~A>` memoized per last
    (first) state, every other node per track, and every extension walked
    depth first."""

    def __init__(self, K, bound):
        from intervalmc import logic as lg

        self.K, self.bound = K, bound
        self._table = lg.FormulaTable()
        self._nodes = self._table.nodes
        self._memo, self.fixed = [], []

    def compile(self, phi):
        from intervalmc.logic import Const, Prop

        root = self._table.add(phi)
        for kind, a, b in self._nodes[len(self._memo) :]:
            self._memo.append({})
            if kind is Const:
                f = a
            elif kind is Prop:
                f = None
            elif isinstance(kind, Modality):
                f = self.fixed[a] if self.fixed[a] is (not b) else None
            else:
                x, y = self.fixed[a], None if kind is Not else self.fixed[b]
                if kind is Not:
                    f = None if x is None else not x
                elif kind is And:
                    f = False if False in (x, y) else None if None in (x, y) else True
                else:
                    if kind is Implies:
                        x = None if x is None else not x
                    f = True if True in (x, y) else None if None in (x, y) else False
            self.fixed.append(f)
        return root

    def eval(self, rho, phi):
        return self._value(self.compile(phi), tuple(rho))

    def _value(self, i, rho):
        from intervalmc.logic import Prop
        from intervalmc.model import track_label

        out = self.fixed[i]
        if out is not None:
            return out
        kind, a, b = self._nodes[i]
        key = rho[-1] if kind is Modality.A else rho[0] if kind is Modality.ABAR else rho
        memo = self._memo[i]
        if key in memo:
            return memo[key]
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
            if kind is Modality.B:
                domain = (rho[:j] for j in range(2, len(rho)))
            elif kind is Modality.E:
                domain = (rho[j:] for j in range(1, len(rho) - 1))
            elif kind in (Modality.A, Modality.ABAR):
                domain = self._walk((key,), kind is Modality.A)
            else:
                domain = self._walk(rho, kind is Modality.BBAR)
            out = not b
            for t in domain:
                if self._value(a, t) == b:
                    out = b
                    break
        memo[key] = out
        return out

    def _walk(self, track, forward):
        stack, t = [], track
        while True:
            if len(t) < self.bound:
                if forward:
                    stack += [t + (w,) for w in reversed(self.K.successors(t[-1]))]
                else:
                    stack += [(w,) + t for w in reversed(self.K.predecessors(t[0]))]
            if not stack:
                return
            t = stack.pop()
            yield t


def _enumerating_check(K, phi, bound):
    """(value, failing track, initial tracks) from every initial track."""
    ev = _EnumeratingEvaluator(K, bound)
    root = ev.compile(phi)
    count = 0
    for rho in enumerate_tracks(K, bound, start=K.init):
        count += 1
        if not ev._value(root, rho):
            return False, rho, count
    return True, None, count


_LOOSE_MODS = (Modality.B, Modality.E, Modality.BBAR, Modality.EBAR)


def _length_biased_formula(rng, depth):
    """Mostly `<B>`/`<E>`/`<~B>`/`<~E>` (diamonds or boxes) over constants,
    `<A>`, `<~A>` and each other, whose roots depend on the length, with
    some letters and Boolean nodes."""
    r = rng.random()
    if depth == 0 or r < 0.12:
        return rng.choice((TRUE, FALSE, TRUE, FALSE, Prop("p"), Prop("q")))
    node = rng.choice((Diamond, Box))
    if r < 0.55:
        return node(rng.choice(_LOOSE_MODS), _length_biased_formula(rng, depth - 1))
    if r < 0.7:
        if rng.random() < 0.4:
            sub = random_hs_formula(rng, ("p", "q"), modal_budget=1)
        else:
            sub = _length_biased_formula(rng, depth - 1)
        return node(rng.choice((Modality.A, Modality.ABAR)), sub)
    if r < 0.78:
        return Not(_length_biased_formula(rng, depth - 1))
    left, right = _length_biased_formula(rng, depth - 1), _length_biased_formula(rng, depth - 1)
    return rng.choice((And, Or, Implies))(left, right)


def test_decisions_per_last_state_and_length_match_enumerating_evaluator():
    from intervalmc.logic import subformulas
    from intervalmc.oracle import LENGTH

    rng = rng_for("per-last-state-and-length")
    length_roots = failing = 0
    for n in range(400):
        K = random_kripke(rng, max_states=4, letters=("p", "q"))
        bound = rng.randint(2, 7)
        phi = _length_biased_formula(rng, rng.randint(1, 4))
        verdict = model_check_bounded(K, phi, bound)
        want = _enumerating_check(K, phi, bound)
        assert (verdict.value, verdict.failing_track, verdict.initial_tracks) == want, (phi, bound)
        ev = BoundedEvaluator(K, bound)
        root = ev.compile(phi)
        dep = ev.deps[root]
        by_length = dep != TRACK and dep & LENGTH
        length_roots += bool(by_length)
        failing += bool(by_length) and not want[0]
        ref = _EnumeratingEvaluator(K, bound)
        tracks = list(enumerate_tracks(K, min(bound, 4)))
        for f in subformulas(phi):
            assert [ev.eval(t, f) for t in tracks] == [ref.eval(t, f) for t in tracks], (f, bound)
    # Roots decided once per (last state, length), both outcomes.
    assert length_roots >= 60 and failing >= 30, (length_roots, failing)


def _cluster_with_chain(d):
    """A complete 4-state cluster k0..k3 with a chain c1..cd hanging off k3;
    only cd lacks p, so `<A> p` first fails on a track ending in c(d-1)."""
    from intervalmc import KripkeStructure

    cluster = [f"k{i}" for i in range(4)]
    chain = [f"c{i}" for i in range(1, d + 1)]
    edges = {(a, b) for a in cluster for b in cluster} | {("k3", "c1"), (chain[-1], chain[-1])}
    edges |= set(zip(chain, chain[1:]))
    labels = {s: ("p",) for s in cluster + chain[:-1]}
    return KripkeStructure(ap=("p",), states=cluster + chain, edges=edges, labels=labels, init="k0")


@pytest.mark.parametrize("d", [6, 8])
def test_first_failing_track_is_counted_not_enumerated(d):
    K = _cluster_with_chain(d)
    phi = parse_formula("<A> p")
    verdict = model_check_bounded(K, phi, d + 3)
    assert (verdict.value, verdict.failing_track, verdict.initial_tracks) == _enumerating_check(K, phi, d + 3)


def test_first_failing_track_far_down_a_chain_is_fast():
    # 1,230,616 initial tracks come before the failing one; enumerating
    # them takes about half a second.
    import time

    K = _cluster_with_chain(10)
    started = time.perf_counter()
    verdict = model_check_bounded(K, parse_formula("<A> p"), 13)
    assert time.perf_counter() - started < 0.1
    assert verdict.initial_tracks == 1_230_616
    assert verdict.failing_track == ("k0", "k3") + tuple(f"c{i}" for i in range(1, 10))


def test_long_bound_does_not_sink_a_short_witness():
    # 16 states of 4 successors each, the initial state labelled with every
    # letter. `<A><D> p` holds on every initial track: from each last state
    # a track of 4 states already holds p inside. On this draw, extensions
    # walked depth first went down towards the default bound (1,032) first
    # and gave no verdict within 10 s.
    import time

    from intervalmc import KripkeStructure

    rng = rng_for("oracle-long-bound-2")
    states = [f"s{i}" for i in range(16)]
    labels = {s: [p for p in "pqr" if s == "s0" or rng.random() < 0.55] for s in states}
    edges = {(s, t) for s in states for t in rng.sample(states, 4)}
    K = KripkeStructure(ap="pqr", states=states, edges=edges, labels=labels, init="s0")
    phi = desugar(parse_formula("<A><D> p"))
    assert default_bound(K, phi) == 1032
    started = time.perf_counter()
    verdict = model_check_bounded(K, phi, 1032)
    assert time.perf_counter() - started < 1.0
    assert (verdict.value, verdict.failing_track, verdict.initial_tracks) == (True, None, 2**63 - 1)


def test_length_dependent_root_on_scheduler_at_default_bound(scheduler):
    # `<~B><D> true` holds on a track only if it can be extended within the
    # bound: it first fails on the first initial track of the bound's length.
    phi = desugar(parse_formula("<~B><D> true"))
    bound = default_bound(scheduler, phi)
    assert bound == 408
    verdict = model_check_bounded(scheduler, phi, bound)
    first = (scheduler.init,)
    while len(first) < bound:
        first += (scheduler.successors(first[-1])[0],)
    assert (verdict.value, verdict.failing_track, verdict.initial_tracks) == (False, first, 2**63 - 1)


def test_default_bound_of_a_table_node_is_that_of_its_formula(scheduler):
    # A node counts the modal nodes of its formula, duplicates included,
    # as the formula does; walked as a leaf, it would count none.
    from intervalmc.logic import table_node

    phi = desugar(parse_formula("<~B><D> true"))
    assert default_bound(scheduler, table_node(phi)) == default_bound(scheduler, phi) == 408
    rng = rng_for("oracle-default-bound-node")
    for _ in range(100):
        phi = random_hs_formula(rng, ("p", "q"), modal_budget=4)
        twice = And(phi, phi)  # one table node per distinct subformula
        assert default_bound(scheduler, table_node(twice)) == default_bound(scheduler, twice), twice


def test_evaluator_keeps_to_the_table_of_its_first_node(kequiv):
    from intervalmc.logic import table_node

    node = table_node(desugar(parse_formula("<A> q")))
    ev = BoundedEvaluator(kequiv, 4)
    assert ev.compile(node) == node.id
    later = ev.compile(parse_formula("<B> p"))
    size = len(node.table.nodes)
    assert node.table.add(parse_formula("<B> p")) == later and len(node.table.nodes) == size
    assert ev.eval(("v0", "v1"), node) == eval_bounded(kequiv, ("v0", "v1"), parse_formula("<A> q"), 4)
    with pytest.raises(ValueError):
        ev.compile(table_node(parse_formula("<A> q")))
    ev = BoundedEvaluator(kequiv, 4)
    ev.compile(parse_formula("p"))
    with pytest.raises(ValueError):
        ev.compile(node)


# ---------------------------------------------------------------------------
# The evaluator on numbered states, against the name-based module.


def _whole_track_formula(rng, depth):
    """Mostly nodes that need the whole track: letters, Boolean nodes with
    a letter, and `<B>`/`<E>` over such nodes, some under `<A>`, `<~A>`,
    `<~B>` or `<~E>`, which then walk every extension."""
    r = rng.random()
    if depth == 0 or r < 0.2:
        return random_beta(rng, ("p", "q", "r"), 1)
    node = rng.choice((Diamond, Box))
    if r < 0.5:
        return node(rng.choice((Modality.B, Modality.E)), _whole_track_formula(rng, depth - 1))
    if r < 0.7:
        mod = rng.choice((Modality.A, Modality.ABAR, Modality.BBAR, Modality.EBAR))
        return node(mod, _whole_track_formula(rng, depth - 1))
    if r < 0.8:
        return Not(_whole_track_formula(rng, depth - 1))
    return rng.choice((And, Or, Implies))(random_beta(rng, ("p", "q", "r"), 1), _whole_track_formula(rng, depth - 1))


def test_numbered_oracle_matches_the_name_based_module():
    # Structures of up to 12 states declared in a random order, so that
    # id order (sorted names, s10 before s2) is neither declaration order
    # nor numeric order; one time in four, `r` is no letter of the
    # structure and reads false.
    from intervalmc.logic import subformulas

    rng = rng_for("oracle-numbered")
    draws = (_whole_track_formula, _endpoint_biased_formula, _length_biased_formula)
    differences = evaluations = track_roots = failing = 0
    for i in range(300):
        K = sparse_kripke(rng, max_states=12, letters=("p", "q", "r") if i % 4 else ("p", "q"))
        bound = rng.randint(2, 6)
        phi = draws[i % 3](rng, 3)
        new, old = model_check_bounded(K, phi, bound), by_name.model_check_bounded(K, phi, bound)
        differences += (new.value, new.failing_track, new.initial_tracks) != (
            old.value,
            old.failing_track,
            old.initial_tracks,
        )
        ev, ref = BoundedEvaluator(K, bound), by_name.BoundedEvaluator(K, bound)
        track_roots += ev.deps[ev.compile(phi)] == TRACK
        failing += not old.value
        tracks = list(enumerate_tracks(K, min(bound, 4)))
        for f in dict.fromkeys(subformulas(phi)):
            evaluations += len(tracks)
            differences += sum(ev.eval(t, f) != ref.eval(t, f) for t in tracks)
    assert differences == 0
    assert track_roots >= 80 and failing >= 80 and evaluations >= 80_000, (track_roots, failing, evaluations)


def test_oracle_matches_the_name_based_module_at_longer_bounds(scheduler):
    # At bounds 8-20 the breadth-first walks over (state, length) pairs run
    # through many lengths, and a length-dependent node has a memo entry
    # per length; every fourth case is on the bundled scheduler. Draws
    # that enumerate whole tracks up to the bound (a root that needs the
    # whole track, or a modal node other than `<B>` and `<E>` over an
    # operand that does) take time exponential in the bound in both
    # modules; the differential at bounds 2-6 above covers them.
    from intervalmc.logic import subformulas
    from intervalmc.oracle import LENGTH

    rng = rng_for("oracle-longer-bounds")
    named = [desugar(parse_formula(f)) for f in ("[~B] <B> true", "<~B><D> true", "[~E] <E> true")]
    differences = evaluations = by_length = failing = cases = 0
    while cases < 300:
        K = scheduler if cases % 4 == 0 else sparse_kripke(rng, max_states=12)
        bound = rng.randint(8, 20)
        phi = named[cases % 3] if cases % 2 else _length_biased_formula(rng, 3)
        ev, ref = BoundedEvaluator(K, bound), by_name.BoundedEvaluator(K, bound)
        root = ev.compile(phi)
        if ev.deps[root] == TRACK or any(
            isinstance(kind, Modality) and kind not in (Modality.B, Modality.E) and ev.deps[a] == TRACK
            for kind, a, _ in ev._nodes
        ):
            continue
        cases += 1
        new, old = model_check_bounded(K, phi, bound), by_name.model_check_bounded(K, phi, bound)
        differences += (new.value, new.failing_track, new.initial_tracks) != (
            old.value,
            old.failing_track,
            old.initial_tracks,
        )
        by_length += bool(ev.deps[root] & LENGTH)
        failing += not old.value
        tracks = list(enumerate_tracks(K, 4))
        for f in dict.fromkeys(subformulas(phi)):
            evaluations += len(tracks)
            differences += sum(ev.eval(t, f) != ref.eval(t, f) for t in tracks)
    assert differences == 0
    assert by_length >= 150 and failing >= 100 and evaluations >= 100_000, (by_length, failing, evaluations)
