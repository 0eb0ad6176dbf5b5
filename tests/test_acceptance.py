"""Acceptance suite: every criterion runs at its stated size and tolerance
and prints one pass line with its runtime.
"""

import time

from intervalmc import (
    KripkeStructure,
    enumerate_tracks,
    format_kripke,
    is_track,
    parse_kripke,
    witnessed_descriptors,
    shortest_witness,
)
from intervalmc.class_checker import ClassEngine, check_ab
from intervalmc.descriptor_checker import model_check_univ
from intervalmc.logic import (
    Not,
    classify,
    desugar,
    formula_size,
    modal_count,
    negate_to_exists,
    parse_formula,
    subformulas,
)
from intervalmc.oracle import BoundedEvaluator
from intervalmc.reductions import (
    CnfFormula,
    QbfFormula,
    brute_qbf,
    brute_sat,
    build_qbf_instance,
    build_sat_instance,
    decode_sat_assignment,
)
from intervalmc.tracknfa import accepts_track, compile_positive, find_satisfying_track

from _check_exists import check_exists
from _class_view import ClassView
from _descriptor_of import descriptor_of
from _instances import (
    random_ab_formula,
    random_cnf,
    random_exists_formula,
    random_forall_formula,
    random_kripke,
    random_qbf,
    rng_for,
)


def _report(number, name, started, limit_s):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s (limit {limit_s}s)")
    assert elapsed < limit_s, f"criterion {number} exceeded its {limit_s}s budget"


def test_criterion_1_sat_differential():
    started = time.monotonic()
    rng = rng_for("acceptance::sat")
    agree = 0
    for _ in range(200):
        cnf = random_cnf(rng, max_vars=6, max_clauses=12)
        K, gamma = build_sat_instance(cnf)
        verdict = model_check_univ(K, desugar(gamma))
        assert brute_sat(cnf) == (verdict.result == "fails")
        if verdict.result == "fails":
            ce = verdict.counterexample
            assert is_track(K, ce) and ce[0] == K.init
        agree += 1
    assert agree == 200
    _report(1, "satisfiability differential", started, 60)


def test_criterion_2_qbf_differential():
    started = time.monotonic()
    rng = rng_for("acceptance::qbf")
    agree = 0
    for _ in range(100):
        qbf = random_qbf(rng, max_vars=4, max_clauses=8)
        K, xi = build_qbf_instance(qbf)
        assert brute_qbf(qbf) == check_ab(K, xi).holds
        agree += 1
    assert agree == 100
    _report(2, "quantified differential", started, 120)


def test_criterion_3_descriptor_search_differential():
    started = time.monotonic()
    rng = rng_for("acceptance::exists")
    agree = 0
    while agree < 300:
        K = random_kripke(rng, max_states=4)
        psi = desugar(random_exists_formula(rng, ("p", "q"), modal_budget=3))
        m = modal_count(psi)
        assert m <= 3
        bound = (m + 1) * (2 + len(K.states) ** 2)
        v = rng.choice(K.states)
        witnessed = witnessed_descriptors(K, v, "forward")
        if not witnessed:
            continue
        d = rng.choice(witnessed)
        ok, wit = check_exists(K, psi, d)
        bounded_witness = find_satisfying_track(
            K, psi, bound, first=d.v_in, last=d.v_fin, interior=d.interior
        )
        assert ok == (bounded_witness is not None)
        if ok:
            assert is_track(K, wit)
            assert descriptor_of(wit) == d
            assert len(wit) <= bound
            assert accepts_track(compile_positive(K, psi, bound), wit, bound)
        agree += 1
    assert agree == 300
    _report(3, "existential search differential", started, 120)


def test_criterion_4_witness_length_bound():
    started = time.monotonic()
    rng = rng_for("acceptance::witness")
    for _ in range(50):
        K = random_kripke(rng, max_states=5, letters=("p", "q"))
        limit = 2 + len(K.states) ** 2
        for v in K.states:
            for d in witnessed_descriptors(K, v, "forward"):
                w = shortest_witness(K, d)
                assert len(w) <= limit
                assert descriptor_of(w) == d
    _report(4, "witness length bound", started, 30)


def _renamed_copy(K):
    names = {s: f"c_{s}" for s in K.states}
    copy = KripkeStructure(
        ap=K.ap,
        states=[names[s] for s in reversed(K.states)],
        edges={(names[a], names[b]) for a, b in K.edges},
        labels={names[s]: K.labels[s] for s in K.states},
        init=names[K.init],
    )
    return copy, names


def test_criterion_5_quotient_property():
    started = time.monotonic()
    rng = rng_for("acceptance::quotient")
    for _ in range(100):
        K = random_kripke(rng, max_states=4)
        psi = desugar(random_ab_formula(rng, ("p", "q"), max_nodes=6))
        view = ClassView(ClassEngine(K, psi))
        copy, names = _renamed_copy(K)
        view2 = ClassView(ClassEngine(copy, psi))
        nodes = set(subformulas(psi))
        verdict_by_class = {}
        for rho in enumerate_tracks(K, 8):
            c = view.of_track(rho)
            verdict = view.holds(psi, c)
            if c in verdict_by_class:
                assert verdict_by_class[c] == verdict
            else:
                verdict_by_class[c] = verdict
            rho2 = tuple(names[s] for s in rho)
            c2 = view2.of_track(rho2)
            assert c2 == (c[0], names[c[1]])
            for node in nodes:
                assert view.holds(node, c) == view2.holds(node, c2)
        assert check_ab(K, psi).result == check_ab(copy, psi).result
    _report(5, "class quotient property", started, 60)


def test_criterion_6_dualization_exactness():
    started = time.monotonic()
    rng = rng_for("acceptance::dual")
    for _ in range(200):
        K = random_kripke(rng, min_states=2, max_states=3)
        psi = desugar(random_forall_formula(rng, ("p", "q"), modal_budget=2))
        flipped = negate_to_exists(psi)
        assert classify(flipped).exists_aabe
        assert formula_size(flipped) <= 2 * formula_size(psi)
        bound = rng.randint(4, 10)
        while sum(1 for _ in enumerate_tracks(K, bound)) > 3000:
            bound -= 1
        ev = BoundedEvaluator(K, bound)
        for rho in enumerate_tracks(K, bound):
            assert ev.eval(rho, Not(psi)) == ev.eval(rho, flipped)
    _report(6, "dualization exactness", started, 60)


def test_criterion_7_golden_sanity(kequiv):
    started = time.monotonic()
    assert model_check_univ(kequiv, parse_formula("[A] true")).holds
    assert model_check_univ(kequiv, parse_formula("p")).result == "fails"

    K, gamma = build_sat_instance(CnfFormula(1, ((1,),)))
    verdict = model_check_univ(K, desugar(gamma))
    assert verdict.result == "fails"
    assert decode_sat_assignment(["x1"], K, verdict.counterexample) == {"x1": True}

    Kq, xi = build_qbf_instance(QbfFormula((("e", 1),), CnfFormula(1, ((1,),))))
    assert check_ab(Kq, xi).holds
    Kq2, xi2 = build_qbf_instance(QbfFormula((("a", 1),), CnfFormula(1, ((1,),))))
    assert check_ab(Kq2, xi2).result == "fails"
    _report(7, "golden sanity suite", started, 5)


def test_criterion_8_structure_shapes():
    started = time.monotonic()
    for n in (1, 2, 3, 4):
        K, _ = build_sat_instance(CnfFormula(n, ()))
        assert len(K.states) == 2 * n + 1
        assert len(K.edges) == 4 * n
        assert parse_kripke(format_kripke(K)) == K
        prefix = tuple(("e" if i % 2 else "a", i) for i in range(1, n + 1))
        Kq, _ = build_qbf_instance(QbfFormula(prefix, CnfFormula(n, ())))
        assert len(Kq.states) == 4 * n + 3
        assert len(Kq.edges) == 6 * n + 2
        assert parse_kripke(format_kripke(Kq)) == Kq
    _report(8, "generated structure shapes", started, 5)
