import pytest
from hypothesis import given, settings, strategies as st

from intervalmc import DescriptorElement, track_label
from intervalmc.errors import NotInFragment, NotPropositional, ParseError, UnknownModality
from intervalmc.logic import (
    And,
    Box,
    Diamond,
    FALSE,
    FormulaTable,
    Implies,
    Modality,
    Not,
    Or,
    Prop,
    TRUE,
    classify,
    compile_prop,
    desugar,
    formula_size,
    is_propositional,
    modal_count,
    negate_to_exists,
    parse_formula,
    prop_letters,
    subformulas,
    to_text,
    val,
)

from _descriptor_of import descriptor_of
from _prop import eval_prop
from _instances import (
    random_ab_formula,
    random_beta,
    random_exists_formula,
    random_forall_formula,
    random_kripke,
    random_track,
    rng_for,
)


# ---------------------------------------------------------------------------
# Parsing and printing


def test_parse_reachability_pattern():
    phi = parse_formula("[A](r0 -> <A> e0 | <A><A> e0)")
    assert phi == Box(
        Modality.A,
        Implies(
            Prop("r0"),
            Or(Diamond(Modality.A, Prop("e0")), Diamond(Modality.A, Diamond(Modality.A, Prop("e0")))),
        ),
    )


def test_parse_inverse_modality():
    assert parse_formula("start -> <~B>(p)") == Implies(
        Prop("start"), Diamond(Modality.BBAR, Prop("p"))
    )


def test_parse_missing_operand():
    with pytest.raises(ParseError) as err:
        parse_formula("<A> <A>")
    assert err.value.column is not None


def test_parse_unknown_modality():
    with pytest.raises(UnknownModality):
        parse_formula("<Z> p")


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        parse_formula("p q")


def test_parse_precedence():
    assert parse_formula("p & q | r -> s") == Implies(
        Or(And(Prop("p"), Prop("q")), Prop("r")), Prop("s")
    )
    assert parse_formula("p -> q -> r") == Implies(Prop("p"), Implies(Prop("q"), Prop("r")))
    assert parse_formula("!p & q") == And(Not(Prop("p")), Prop("q"))
    assert parse_formula("[B] p & q") == And(Box(Modality.B, Prop("p")), Prop("q"))


def test_parse_constants_and_parens():
    assert parse_formula("true | false") == Or(TRUE, FALSE)
    assert parse_formula("(p)") == Prop("p")


def test_to_text_round_trips():
    rng = rng_for("pp")
    samples = [random_ab_formula(rng, ("p", "q"), max_nodes=9) for _ in range(40)]
    samples += [random_exists_formula(rng, ("p", "q")) for _ in range(40)]
    samples += [parse_formula("start -> <~B>((<A> x1_aux) & x1)")]
    for phi in samples:
        assert parse_formula(to_text(phi)) == phi


def _extend(sub):
    binary = st.builds(lambda op, a, b: op(a, b), st.sampled_from((And, Or, Implies)), sub, sub)
    modal = st.builds(lambda op, m, a: op(m, a), st.sampled_from((Diamond, Box)), st.sampled_from(Modality), sub)
    return st.builds(Not, sub) | binary | modal


# Every modality as a diamond and as a box, the connectives, both constants
# and three letters; 250 derandomized draws reach each of them.
formulas = st.recursive(st.sampled_from((TRUE, FALSE, Prop("p"), Prop("q"), Prop("x1_aux"))), _extend, max_leaves=10)


@settings(database=None, derandomize=True, deadline=None, max_examples=250)
@given(formulas)
def test_to_text_round_trips_over_every_modality_and_through_the_table(phi):
    again = parse_formula(to_text(phi))
    assert again == phi
    table = FormulaTable()
    i = table.add(phi)
    assert table.formulas[i] == phi
    size = len(table.nodes)
    assert table.add(again) == i and len(table.nodes) == size
    classify(desugar(phi))


# ---------------------------------------------------------------------------
# Desugaring


def test_desugar_identity_on_primitive():
    phi = parse_formula("[A](p -> <~B> q)")
    assert desugar(phi) == phi


def test_desugar_rewrites():
    assert desugar(parse_formula("<L> p")) == parse_formula("<A><A> p")
    assert desugar(parse_formula("<D> p")) == parse_formula("<B><E> p")
    assert desugar(parse_formula("<O> p")) == parse_formula("<E><~B> p")
    assert desugar(parse_formula("<~L> p")) == parse_formula("<~A><~A> p")
    assert desugar(parse_formula("<~D> p")) == parse_formula("<~B><~E> p")
    assert desugar(parse_formula("<~O> p")) == parse_formula("<B><~E> p")
    assert desugar(parse_formula("[D] p")) == parse_formula("[B][E] p")
    assert desugar(parse_formula("[~O] p")) == parse_formula("[B][~E] p")


def test_desugar_recurses():
    phi = parse_formula("<D>(p & [L] q)")
    assert desugar(phi) == parse_formula("<B><E>(p & [A][A] q)")


# ---------------------------------------------------------------------------
# Letters, size, classification


def test_prop_letters_examples():
    assert prop_letters(parse_formula("p & !q")) == {"p", "q"}
    assert prop_letters(parse_formula("true")) == frozenset()
    assert prop_letters(parse_formula("start -> <~B>((<A> x1_aux) & x1)")) == {
        "start",
        "x1",
        "x1_aux",
    }


def test_classify_examples():
    frag = classify(parse_formula("p & !q"))
    assert frag.names() == ("Prop", "ExistsAABE", "ForallAABE", "ABbar")
    frag = classify(parse_formula("[A](p & [B] q)"))
    assert frag.names() == ("ForallAABE",)
    frag = classify(parse_formula("start -> <~B>((<A> x1_aux) & x1)"))
    assert frag.names() == ("ABbar",)


def test_classify_flags_are_consistent():
    rng = rng_for("classify")
    for _ in range(50):
        phi = desugar(random_ab_formula(rng, ("p", "q"), max_nodes=8))
        frag = classify(phi)
        if frag.prop:
            assert frag.exists_aabe and frag.forall_aabe and frag.ab_bar
        assert frag.modalities <= {Modality.A, Modality.BBAR}


def test_classify_requires_desugared():
    with pytest.raises(ValueError):
        classify(parse_formula("<D> p"))


def test_classify_stable_under_desugar():
    rng = rng_for("stability")
    for _ in range(40):
        phi = random_exists_formula(rng, ("p", "q"))
        assert classify(desugar(phi)) == classify(phi)
        psi = random_forall_formula(rng, ("p", "q"))
        assert classify(desugar(psi)) == classify(psi)


# ---------------------------------------------------------------------------
# Dualization


def test_negate_to_exists_examples():
    assert negate_to_exists(parse_formula("[A] p & [B] q")) == parse_formula("<A> !p | <B> !q")
    assert negate_to_exists(parse_formula("p")) == parse_formula("!p")
    assert negate_to_exists(parse_formula("[A](!r0 | e0)")) == parse_formula("<A> !(!r0 | e0)")


def test_negate_to_exists_eliminates_double_negation():
    assert negate_to_exists(parse_formula("!!p")) == parse_formula("!p")
    assert negate_to_exists(parse_formula("!p")) == parse_formula("p")


def test_negate_to_exists_size_bound_and_membership():
    rng = rng_for("negate")
    for _ in range(80):
        psi = random_forall_formula(rng, ("p", "q"))
        flipped = negate_to_exists(psi)
        assert classify(flipped).exists_aabe
        assert formula_size(flipped) <= 2 * formula_size(psi)


def test_negate_to_exists_rejects_other_fragments():
    with pytest.raises(NotInFragment):
        negate_to_exists(parse_formula("<A> p"))


# ---------------------------------------------------------------------------
# Propositional evaluation over descriptor elements


def test_val_examples(kequiv):
    d00 = DescriptorElement("v0", frozenset(), "v0")
    mixed = DescriptorElement("v0", frozenset({"v1"}), "v0")
    assert val(parse_formula("p"), d00, kequiv) is True
    assert val(parse_formula("p | q"), mixed, kequiv) is False
    assert val(parse_formula("!p"), mixed, kequiv) is True


def test_val_rejects_modal_formulas(kequiv):
    with pytest.raises(NotPropositional):
        val(parse_formula("<A> p"), DescriptorElement("v0", frozenset(), "v0"), kequiv)


def test_val_matches_track_label_evaluation():
    rng = rng_for("valtrack")
    for _ in range(60):
        K = random_kripke(rng, letters=("p", "q", "r"))
        rho = random_track(rng, K, rng.randint(2, 8))
        beta = random_beta(rng, ("p", "q", "r"))
        assert val(beta, descriptor_of(rho), K) == eval_prop(beta, track_label(K, rho))


def _random_prop(rng, letters, depth):
    # Every connective and both constants, over letters some of which the
    # structure lacks.
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        return Prop(rng.choice(letters)) if r < 0.8 else TRUE if r < 0.9 else FALSE
    node = rng.choice((Not, And, Or, Implies))
    if node is Not:
        return Not(_random_prop(rng, letters, depth - 1))
    return node(_random_prop(rng, letters, depth - 1), _random_prop(rng, letters, depth - 1))


def _label_masks(K):
    bit = K.letter_bit
    masks = [0]
    for p in bit.values():
        masks += [m | p for m in masks]
    return bit, masks


def test_compiled_leaf_matches_eval_prop():
    rng = rng_for("compile-prop")
    K = random_kripke(rng, letters=("p", "q", "r"))
    bit, masks = _label_masks(K)
    for _ in range(1500):
        beta = _random_prop(rng, ("p", "q", "r", "x"), rng.randint(0, 6))
        test = compile_prop(beta, bit)
        for m in masks:
            letters = {p for p, b in bit.items() if m & b}
            assert test(m) == eval_prop(beta, letters), (to_text(beta), sorted(letters))


def test_compiled_leaf_takes_any_depth():
    bit = {"p": 1, "q": 2, "r": 4}
    chain = Prop("p")
    for _ in range(5000):
        chain = Not(chain)
    test = compile_prop(chain, bit)
    assert [test(m) for m in range(8)] == [bool(m & 1) for m in range(8)]
    # r & (q | (r & (q | ... (q | p)))), 2,000 alternations deep, which is
    # r & (q | p).
    alternating = Prop("p")
    for i in range(2000):
        alternating = (And if i % 2 else Or)(Prop("r" if i % 2 else "q"), alternating)
    test = compile_prop(alternating, bit)
    assert [test(m) for m in range(8)] == [m >= 4 and m & 3 > 0 for m in range(8)]
    with pytest.raises(NotPropositional):
        compile_prop(And(Prop("p"), Diamond(Modality.A, Prop("q"))), bit)


def test_modal_count():
    assert modal_count(parse_formula("p & q")) == 0
    assert modal_count(parse_formula("<A>(p | [B] q)")) == 2


def test_subformulas_postorder_with_duplicates():
    p, q = Prop("p"), Prop("q")
    inner = Diamond(Modality.A, Or(p, q))
    phi = And(Not(p), inner)
    assert list(subformulas(phi)) == [p, Not(p), p, q, Or(p, q), inner, phi]


def test_deep_not_chain_walks_without_recursion():
    phi = Prop("p")
    for _ in range(5000):
        phi = Not(phi)
    assert formula_size(phi) == 5001
    assert is_propositional(phi)
    assert not is_propositional(Diamond(Modality.A, phi))
