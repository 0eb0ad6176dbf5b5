import warnings

import pytest

from intervalmc import is_track, parse_kripke, format_kripke
from intervalmc.class_checker import ClassEngine, check_ab
from intervalmc.descriptor_checker import model_check_univ
from intervalmc.errors import NonPrenex, OutOfRangeLiteral, ParseError, TooManyVariables
from intervalmc.logic import classify, desugar, parse_formula, prop_letters, to_text
from intervalmc.reductions import (
    CnfFormula,
    QbfFormula,
    brute_qbf,
    brute_sat,
    build_qbf_instance,
    build_sat_instance,
    cnf_to_formula,
    decode_sat_assignment,
    parse_dimacs,
    parse_qdimacs,
)

from _class_view import ClassView
from _instances import random_cnf, random_qbf, rng_for


# ---------------------------------------------------------------------------
# DIMACS / QDIMACS


def test_parse_dimacs_basic():
    cnf = parse_dimacs("c comment\np cnf 2 1\n1 -2 0\n")
    assert cnf.num_vars == 2
    assert cnf.clauses == ((1, -2),)


def test_parse_dimacs_empty_formula():
    cnf = parse_dimacs("p cnf 1 0\n")
    assert cnf.clauses == ()
    assert brute_sat(cnf) is True


def test_parse_dimacs_multiline_clause():
    cnf = parse_dimacs("p cnf 3 2\n1 2\n3 0 -1 0\n")
    assert cnf.clauses == ((1, 2, 3), (-1,))


# SATLIB's files end with a "%" line and then a "0" line.
SATLIB_TRAILER = "p cnf 3 2\n1 -2 3 0\n-1 2 0\n%\n0\n\n"


def test_parse_dimacs_stops_at_the_satlib_trailer():
    cnf = parse_dimacs(SATLIB_TRAILER)
    assert cnf.clauses == ((1, -2, 3), (-1, 2))
    assert brute_sat(cnf) is True
    assert parse_qdimacs("p cnf 2 1\ne 1 2 0\n1 2 0\n%\n0\n").matrix.clauses == ((1, 2),)


def test_parse_dimacs_out_of_range():
    with pytest.raises(OutOfRangeLiteral):
        parse_dimacs("p cnf 2 1\n3 0\n")


def test_parse_dimacs_errors():
    with pytest.raises(ParseError):
        parse_dimacs("p cnf x 1\n1 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("1 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 1 1\n1\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 1 1\ne 1 0\n1 0\n")


@pytest.mark.parametrize("parse", [parse_dimacs, parse_qdimacs], ids=["dimacs", "qdimacs"])
@pytest.mark.parametrize("header", ["p cnf -3 0", "p cnf 2 -1", "p cnf -2 -2"])
def test_parse_rejects_negative_counts(parse, header):
    with pytest.raises(ParseError) as err:
        parse(f"c counts below zero\n{header}\n")
    assert str(err.value) == f"malformed problem line {header!r} (line 2)"
    assert err.value.line == 2


# DIMACS numbers are ASCII decimal digits with an optional leading `-`;
# int() alone also reads `_`, a `+` sign and non-ASCII digits.
LAX_NUMBERS = [
    ("p cnf 1_0 1\n+1 -1_0 0\n", "malformed problem line 'p cnf 1_0 1' (line 1)"),
    ("p cnf \uff13 1\n1 0\n", "malformed problem line 'p cnf \uff13 1' (line 1)"),
    ("p cnf +3 1\n1 0\n", "malformed problem line 'p cnf +3 1' (line 1)"),
    ("p cnf 10 1\n+1 0\n", "malformed clause line '+1 0' (line 2)"),
    ("p cnf 10 1\n1 -1_0 0\n", "malformed clause line '1 -1_0 0' (line 2)"),
    ("p cnf 10 1\n1 \u0661 0\n", "malformed clause line '1 \u0661 0' (line 2)"),
]


@pytest.mark.parametrize("parse", [parse_dimacs, parse_qdimacs], ids=["dimacs", "qdimacs"])
@pytest.mark.parametrize("text, message", LAX_NUMBERS)
def test_parse_rejects_lax_numbers(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_parse_dimacs_comment_lines_hold_any_text():
    assert parse_dimacs("c +1_0 \u00e9\np cnf 1 1\n-1 0\n").clauses == ((-1,),)


@pytest.mark.parametrize("line", ["e +1 0", "a 1_0 0", "e \uff11 0"])
def test_parse_qdimacs_rejects_lax_quantifier_numbers(line):
    with pytest.raises(ParseError) as err:
        parse_qdimacs(f"p cnf 10 1\n{line}\n1 0\n")
    assert str(err.value) == f"malformed quantifier line {line!r} (line 2)"


@pytest.mark.parametrize(
    "text, line",
    [("e 1 0\np cnf 1 1\n1 0\n", 1), ("p cnf 2 1\n1 2 0\ne 1 2 0\n", 3), ("p cnf 2 2\ne 1 0\n1 0\na 2 0\n2 0\n", 4)],
    ids=["before-problem-line", "after-a-clause", "between-clauses"],
)
def test_parse_qdimacs_rejects_quantifier_line_outside_the_prefix(text, line):
    with pytest.raises(ParseError) as err:
        parse_qdimacs(text)
    assert str(err.value) == f"quantifier line not between the problem line and the clauses (line {line})"


def test_parse_qdimacs_prefix_order():
    qbf = parse_qdimacs("p cnf 3 1\na 3 0\ne 1 2 0\n-1 2 0\n")
    assert qbf.prefix == (("a", 3), ("e", 1), ("e", 2))
    assert qbf.matrix.clauses == ((-1, 2),)


def test_parse_qdimacs_free_variables_warn():
    with pytest.warns(UserWarning):
        qbf = parse_qdimacs("p cnf 2 1\na 2 0\n1 2 0\n")
    assert qbf.prefix == (("e", 1), ("a", 2))


def test_parse_qdimacs_duplicate_quantifier():
    with pytest.raises(NonPrenex, match="^variable 1 quantified twice$"):
        parse_qdimacs("p cnf 1 1\ne 1 0\na 1 0\n1 0\n")
    # With a free variable too: the error, and no warning before it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonPrenex, match="^variable 1 quantified twice$"):
            parse_qdimacs("p cnf 2 1\ne 1 0\na 1 0\n1 2 0\n")


# ---------------------------------------------------------------------------
# Brute-force oracles


def test_brute_sat_examples():
    assert brute_sat(parse_formula("x1 | !x1")) is True
    assert brute_sat(parse_formula("x1 & !x1")) is False
    assert brute_sat(CnfFormula(2, ((1,), (-1,)))) is False


def test_brute_qbf_examples():
    assert brute_qbf(QbfFormula((("a", 1),), CnfFormula(1, ((1,),)))) is False
    assert brute_qbf(QbfFormula((("e", 1),), CnfFormula(1, ((1,),)))) is True
    # exists x2, forall x1: x1 -> x2 (pick x2 true)
    assert brute_qbf(QbfFormula((("e", 2), ("a", 1)), CnfFormula(2, ((-1, 2),)))) is True
    assert brute_qbf(QbfFormula((("a", 2), ("e", 1)), CnfFormula(2, ((1, 2), (-1, -2))))) is True


def test_brute_guards():
    with pytest.raises(TooManyVariables):
        brute_sat(CnfFormula(21, ()))
    with pytest.raises(TooManyVariables):
        brute_qbf(QbfFormula(tuple(("e", i) for i in range(1, 22)), CnfFormula(21, ())))


def test_cnf_to_formula_shapes():
    assert cnf_to_formula(CnfFormula(1, ())) == parse_formula("true")
    assert cnf_to_formula(CnfFormula(2, ((1, -2),))) == parse_formula("x1 | !x2")
    assert cnf_to_formula(CnfFormula(1, ((),))) == parse_formula("false")


# ---------------------------------------------------------------------------
# Satisfiability instances


def test_sat_instance_shape_examples():
    K, _ = build_sat_instance(CnfFormula(4, ()))
    assert len(K.states) == 9 and len(K.edges) == 16
    K1, _ = build_sat_instance(CnfFormula(1, ()))
    assert K1.edges == {("w0", "w1_T"), ("w0", "w1_F"), ("w1_T", "w1_T"), ("w1_F", "w1_F")}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sat_instance_shape_formula(n):
    K, gamma = build_sat_instance(CnfFormula(n, ()))
    assert len(K.states) == 2 * n + 1
    assert len(K.edges) == 4 * n
    assert classify(desugar(gamma)).prop
    reparsed = parse_kripke(format_kripke(K))
    assert reparsed == K


def test_sat_instance_empty_variable_set():
    K, gamma = build_sat_instance(CnfFormula(0, ()))
    assert K.states == ("w0",) and K.edges == {("w0", "w0")}
    assert model_check_univ(K, desugar(gamma)).result == "fails"  # empty CNF is true
    K2, gamma2 = build_sat_instance(CnfFormula(0, ((),)))
    assert model_check_univ(K2, desugar(gamma2)).holds


def test_sat_instance_unsatisfiable_holds():
    K, gamma = build_sat_instance(parse_formula("x1 & !x1"), ["x1"])
    assert model_check_univ(K, desugar(gamma)).holds


def test_sat_instance_counterexample_decodes_assignment():
    cnf = CnfFormula(3, ((1,), (-2,), (3,)))
    K, gamma = build_sat_instance(cnf)
    verdict = model_check_univ(K, desugar(gamma))
    assert verdict.result == "fails"
    variables = [f"x{i}" for i in range(1, 4)]
    assignment = decode_sat_assignment(variables, K, verdict.counterexample)
    assert assignment == {"x1": True, "x2": False, "x3": True}


def test_sat_instance_differential_small():
    rng = rng_for("sat-mini")
    for _ in range(40):
        cnf = random_cnf(rng, max_vars=4, max_clauses=6)
        K, gamma = build_sat_instance(cnf)
        verdict = model_check_univ(K, desugar(gamma))
        assert brute_sat(cnf) == (verdict.result == "fails")


# ---------------------------------------------------------------------------
# QBF instances


def test_qbf_instance_shape_examples():
    K, xi = build_qbf_instance(QbfFormula((("e", 1),), CnfFormula(1, ((1,),))))
    assert len(K.states) == 7 and len(K.edges) == 8
    assert to_text(xi) == "start -> <~B>((<A> x1_aux) & x1)"
    assert prop_letters(xi) == {"start", "x1", "x1_aux"}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_qbf_instance_shape_formula(n):
    prefix = tuple(("e" if i % 2 else "a", i) for i in range(n, 0, -1))
    K, xi = build_qbf_instance(QbfFormula(prefix, CnfFormula(n, ())))
    assert len(K.states) == 4 * n + 3
    assert len(K.edges) == 6 * n + 2
    frag = classify(xi)
    assert frag.names() == ("ABbar",)
    assert parse_kripke(format_kripke(K)) == K


def test_qbf_instance_no_variables():
    K, xi = build_qbf_instance(QbfFormula((), CnfFormula(0, ())))
    assert set(K.states) == {"w0", "w1", "sink"}
    assert K.edges == {("w0", "w1"), ("w1", "sink"), ("sink", "sink")}
    assert check_ab(K, xi).holds
    K2, xi2 = build_qbf_instance(QbfFormula((), CnfFormula(0, ((),))))
    assert check_ab(K2, xi2).result == "fails"


def test_qbf_instance_differential_small():
    rng = rng_for("qbf-mini")
    for _ in range(25):
        qbf = random_qbf(rng, max_vars=3, max_clauses=5)
        K, xi = build_qbf_instance(qbf)
        assert brute_qbf(qbf) == check_ab(K, xi).holds


def test_qbf_instance_differential_at_benchmark_sizes():
    # 5-7 variables, as in the smaller benchmark instances; every
    # counterexample is an initial track whose class falsifies the formula.
    rng = rng_for("qbf-mid")
    verdicts = []
    for _ in range(24):
        qbf = random_qbf(rng, max_vars=7, max_clauses=9, min_vars=5)
        K, xi = build_qbf_instance(qbf)
        verdict = check_ab(K, xi)
        assert brute_qbf(qbf) == verdict.holds
        verdicts.append(verdict.result)
        if verdict.result == "fails":
            ce = verdict.counterexample
            assert is_track(K, ce) and ce[0] == K.init == "w0"
            view = ClassView(ClassEngine(K, xi))
            assert not view.holds(xi, view.of_track(ce))
    assert {"holds", "fails"} <= set(verdicts)


def _qbf_with_value(rng, n, want):
    """Seeded draw of n variables, n // 2 of them universal, and n clauses
    of 1-3 literals, redrawn until its truth value is `want`."""
    for _ in range(500):
        order = rng.sample(range(1, n + 1), n)
        kinds = ["a"] * (n // 2) + ["e"] * (n - n // 2)
        rng.shuffle(kinds)
        clauses = []
        for _ in range(n):
            chosen = rng.sample(range(1, n + 1), rng.randint(1, 3))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
        qbf = QbfFormula(tuple(zip(kinds, order)), CnfFormula(n, tuple(clauses)))
        if brute_qbf(qbf) == want:
            return qbf
    raise AssertionError(f"no draw with value {want} at n={n}")


def test_qbf_instance_differential_at_largest_benchmark_sizes():
    # 9 and 10 variables, one true and one false draw each, next to the
    # benchmark's largest instances (n = 11).
    rng = rng_for("qbf-large")
    for n in (9, 10):
        for want in (True, False):
            qbf = _qbf_with_value(rng, n, want)
            K, xi = build_qbf_instance(qbf)
            verdict = check_ab(K, xi)
            assert verdict.holds == want
            if not want:
                ce = verdict.counterexample
                assert is_track(K, ce) and ce[0] == K.init
                view = ClassView(ClassEngine(K, xi))
                assert not view.holds(xi, view.of_track(ce))


def test_qbf_instance_round_trip_through_files(tmp_path):
    qbf = parse_qdimacs("p cnf 2 2\ne 2 0\na 1 0\n-1 2 0\n1 -2 0\n")
    K, xi = build_qbf_instance(qbf)
    model_file = tmp_path / "m.kripke"
    model_file.write_text(format_kripke(K))
    reparsed = parse_kripke(model_file.read_text())
    assert reparsed == K
    assert parse_formula(to_text(xi)) == xi
