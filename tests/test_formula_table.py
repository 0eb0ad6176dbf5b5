"""The shared formula table, and its users on inputs deeper than the
recursion limit.

`_old_*` below is a copy of the recursive fragment membership tests that
`classify` and `negate_to_exists` used before the table, kept as the
reference for a differential check.
"""

import time

import pytest

from intervalmc.class_checker import check_ab
from intervalmc.errors import NotInFragment
from intervalmc.logic import (
    FALSE,
    TRUE,
    And,
    Box,
    Diamond,
    FormulaTable,
    Fragment,
    Implies,
    Modality,
    Not,
    Or,
    Prop,
    classify,
    desugar,
    is_propositional,
    negate_to_exists,
    parse_formula,
    subformulas,
)
from intervalmc.oracle import BoundedEvaluator
from intervalmc.tracknfa import compile_positive

from _instances import (
    random_ab_formula,
    random_exists_formula,
    random_forall_formula,
    random_hs_formula,
    random_positive_formula,
    rng_for,
)

_EXISTS_MODS = frozenset({Modality.A, Modality.B, Modality.E, Modality.ABAR})


def _old_classify(phi):
    mods = frozenset(f.mod for f in subformulas(phi) if isinstance(f, (Diamond, Box)))
    if not all(m.primitive for m in mods):
        raise ValueError("classify expects a desugared formula")
    return Fragment(
        prop=not mods,
        exists_aabe=_old_member_exists(phi),
        forall_aabe=_old_member_forall(phi),
        ab_bar=mods <= {Modality.A, Modality.BBAR},
        modalities=mods,
    )


def _old_member_exists(phi):
    if is_propositional(phi):
        return True
    if isinstance(phi, Or):
        return _old_member_exists(phi.left) and _old_member_exists(phi.right)
    if isinstance(phi, Diamond) and phi.mod in _EXISTS_MODS:
        return _old_member_exists(phi.sub)
    return False


def _old_member_forall(phi):
    if is_propositional(phi):
        return True
    if isinstance(phi, And):
        return _old_member_forall(phi.left) and _old_member_forall(phi.right)
    if isinstance(phi, Box) and phi.mod in _EXISTS_MODS:
        return _old_member_forall(phi.sub)
    return False


def _old_negate_to_exists(psi):
    if not _old_member_forall(psi):
        raise NotInFragment("negate_to_exists expects a ForallAABE formula")
    return _old_neg(psi)


def _old_neg(phi):
    if is_propositional(phi):
        return _old_neg_prop(phi)
    if isinstance(phi, And):
        return Or(_old_neg(phi.left), _old_neg(phi.right))
    if isinstance(phi, Box):
        return Diamond(phi.mod, _old_neg(phi.sub))
    raise NotInFragment(f"unexpected node under negation: {phi!r}")


def _old_neg_prop(phi):
    return phi.sub if isinstance(phi, Not) else Not(phi)


def _any_formula(rng, depth):
    """Any formula over p and q: every connective, and every modality, the
    sugared ones included, as a diamond or a box."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice((Prop("p"), Prop("q"), TRUE, FALSE))
    k = rng.randrange(6)
    if k == 0:
        return Not(_any_formula(rng, depth - 1))
    if k < 4:
        return rng.choice((And, Or, Implies))(_any_formula(rng, depth - 1), _any_formula(rng, depth - 1))
    return rng.choice((Diamond, Box))(rng.choice(list(Modality)), _any_formula(rng, depth - 1))


def _outcome(fn, phi):
    try:
        return fn(phi)
    except Exception as exc:  # the exception type is part of the behaviour
        return type(exc)


def test_classify_and_negate_match_the_recursive_membership_tests():
    rng = rng_for("formula-table-classify")
    letters = ("p", "q")
    queries = errors = 0
    for _ in range(300):
        sugared = _any_formula(rng, rng.randint(0, 5))
        formulas = (
            sugared,
            desugar(sugared),
            random_forall_formula(rng, letters, modal_budget=3),
            random_exists_formula(rng, letters, modal_budget=3),
            random_ab_formula(rng, letters, max_nodes=8),
            random_positive_formula(rng, letters, modal_budget=3),
            random_hs_formula(rng, letters, modal_budget=3),
        )
        for phi in formulas:
            for new, old in ((classify, _old_classify), (negate_to_exists, _old_negate_to_exists)):
                got, want = _outcome(new, phi), _outcome(old, phi)
                assert got == want, (phi, new.__name__)
                queries += 1
                errors += isinstance(want, type)
    assert queries == 4200
    assert 500 < errors < 3000


def test_table_shares_equal_subformulas():
    table = FormulaTable()
    phi = parse_formula("<A> p & (<A> p | [~B] !p)")
    root = table.add(phi)
    # p, <A> p, !p, [~B] !p, the disjunction and the conjunction.
    assert len(table.nodes) == 6
    assert table.add(parse_formula("<A> p")) == table.find(Diamond(Modality.A, Prop("p"))) < root
    assert table.add(phi) == root and len(table.nodes) == 6
    assert table.prop == [True, False, True, False, False, False]
    assert table.formulas[root] == phi
    assert all(child < i for i, (_, a, b) in enumerate(table.nodes) for child in (a, b) if type(child) is int)


def test_find_adds_nothing():
    table = FormulaTable()
    table.add(parse_formula("p & q"))
    with pytest.raises(KeyError):
        table.find(parse_formula("p & !q"))
    assert len(table.nodes) == 3
    with pytest.raises(TypeError):
        table.add(And(Prop("p"), 5))


def test_oracle_refuses_sugar_left_behind_by_a_refused_formula(kequiv):
    ev = BoundedEvaluator(kequiv, 4)
    sugar = Diamond(Modality.D, Prop("p"))
    for refused in (And(FALSE, sugar), Or(sugar, 5)):
        with pytest.raises((ValueError, TypeError)):
            ev.compile(refused)
        with pytest.raises(ValueError):
            ev.compile(sugar)
    assert ev.eval(("v0", "v1"), And(Prop("p"), Diamond(Modality.A, Prop("q")))) is False


def _chain(depth):
    """`<A>` nested `depth` deep over p, built without the parser."""
    phi = Prop("p")
    for _ in range(depth):
        phi = Diamond(Modality.A, phi)
    return phi


@pytest.mark.parametrize(
    "run",
    [
        lambda K, phi: classify(phi).exists_aabe,
        lambda K, phi: check_ab(K, phi).result,
        lambda K, phi: BoundedEvaluator(K, 4).compile(phi),
        lambda K, phi: compile_positive(K, phi, 4),
    ],
    ids=["classify", "check_ab", "BoundedEvaluator.compile", "compile_positive"],
)
def test_deep_chain_needs_no_recursion(kequiv, run):
    phi = _chain(2000)
    started = time.perf_counter()
    assert run(kequiv, phi) is not None
    assert time.perf_counter() - started < 1.0


def test_deep_box_chain_dualizes_in_one_pass():
    # `[A](... & q)` 2,000 deep: linear time and no recursion along the
    # chain, whose levels each hold a propositional conjunct.
    psi = Box(Modality.A, And(Prop("p"), Prop("q")))
    want = Diamond(Modality.A, Not(psi.sub))
    for _ in range(1999):
        psi = Box(Modality.A, And(psi, Prop("q")))
        want = Diamond(Modality.A, Or(want, Not(Prop("q"))))
    started = time.perf_counter()
    got = negate_to_exists(psi)
    assert time.perf_counter() - started < 0.5
    # Equal formulas get one node id; `==` would recurse 2,000 deep.
    table = FormulaTable()
    assert table.add(got) == table.add(want)
