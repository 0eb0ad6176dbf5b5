import hashlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest

from intervalmc import cli, enumerate_tracks, format_kripke, parse_kripke, shortest_witness, witnessed_descriptors
from intervalmc.cli import main
from intervalmc.logic import FormulaTable

from _instances import rng_for, sparse_kripke


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check


def test_check_holds_exit_zero(kequiv_path, capsys):
    code, out, _ = run(capsys, "check", "--model", str(kequiv_path), "--formula", "[A] true")
    assert code == 0
    assert "result: holds" in out
    assert "engine: descriptor" in out


def test_check_fails_exit_one(kequiv_path, capsys):
    code, out, _ = run(capsys, "check", "--model", str(kequiv_path), "--formula", "p")
    assert code == 1
    assert "result: fails" in out
    assert "counterexample:" in out


def test_check_json_schema(kequiv_path, capsys):
    code, out, _ = run(
        capsys, "check", "--model", str(kequiv_path), "--formula", "p", "--json"
    )
    assert code == 1
    report = json.loads(out)
    assert set(report) == {"result", "engine", "counterexample", "stats", "bound"}
    assert report["result"] == "fails"
    assert report["engine"] == "descriptor"
    assert isinstance(report["counterexample"], list)
    assert report["bound"] is None
    K = parse_kripke(kequiv_path.read_text())
    ce = report["counterexample"]
    assert ce[0] == K.init
    assert all((a, b) in K.edges for a, b in zip(ce, ce[1:]))


def test_check_class_engine_selected(kequiv_path, capsys):
    code, out, _ = run(
        capsys, "check", "--model", str(kequiv_path), "--formula", "!<~B> q", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["engine"] == "class"
    assert report["result"] == "holds"


def test_check_fragment_gate_exit_three(kequiv_path, capsys):
    code, _, err = run(
        capsys,
        "check",
        "--model",
        str(kequiv_path),
        "--formula",
        "<D> p",
        "--engine",
        "descriptor",
    )
    assert code == 3
    assert "fragment" in err


def test_check_class_gate_exit_three(kequiv_path, capsys):
    code, _, err = run(
        capsys,
        "check",
        "--model",
        str(kequiv_path),
        "--formula",
        "[B] p",
        "--engine",
        "class",
    )
    assert code == 3


def test_descriptors_backward_listing(kequiv_path, capsys):
    code, out, _ = run(
        capsys, "descriptors", "--model", str(kequiv_path), "--state", "v1", "--dir", "bwd"
    )
    assert code == 0
    assert len([line for line in out.splitlines() if line.strip()]) == 8


def test_check_oracle_approximate_exit_four(kequiv_path, capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--model",
        str(kequiv_path),
        "--formula",
        "<D> p",
        "--json",
    )
    assert code == 4
    report = json.loads(out)
    assert report["engine"] == "oracle"
    assert report["result"].startswith("approximate-")
    assert isinstance(report["bound"], int)


def test_check_oracle_bounded_refutation_is_exact(kequiv_path, capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--model",
        str(kequiv_path),
        "--formula",
        "p",
        "--engine",
        "oracle",
        "--bound",
        "4",
        "--json",
    )
    assert code == 1
    report = json.loads(out)
    assert report["result"] == "fails"
    assert report["bound"] == 4
    assert report["counterexample"] == ["v0", "v1"]


def test_check_oracle_counts_initial_tracks(kequiv_path, capsys):
    # All initial tracks up to the bound when none fails; otherwise up to
    # the failing one, whose 1-based position in enumeration order it is.
    K = parse_kripke(kequiv_path.read_text())
    tracks = list(enumerate_tracks(K, 4, start=K.init))
    argv = ("check", "--model", str(kequiv_path), "--engine", "oracle", "--bound", "4", "--json")
    code, out, _ = run(capsys, *argv, "--formula", "<~B> true | <B> true")
    report = json.loads(out)
    assert (code, report["result"]) == (4, "approximate-true")
    assert report["stats"]["initial_tracks"] == len(tracks) == 14
    code, out, _ = run(capsys, *argv, "--formula", "[E] p")
    report = json.loads(out)
    assert (code, report["result"]) == (1, "fails")
    failing = tuple(report["counterexample"])
    assert report["stats"]["initial_tracks"] == tracks.index(failing) + 1 == 4


def test_check_oracle_constant_root_at_default_bound(kequiv_path, capsys):
    # `[~E] true` folds to true, so the oracle only counts the initial
    # tracks up to the default bound of 204 instead of evaluating each.
    scheduler = kequiv_path.parent / "scheduler.kripke"
    started = time.perf_counter()
    code, out, _ = run(capsys, "check", "--model", str(scheduler), "--formula", "[~E] true")
    assert time.perf_counter() - started < 1.0
    assert code == 4
    assert out.strip().splitlines()[0] == "result: approximate-true"


def test_check_oracle_track_count_saturates(tmp_path, capsys):
    states = [f"s{i}" for i in range(6)]
    lines = ["ap: p", "init: s0"] + [f"state {s}: p" for s in states]
    lines += [f"edge: {s} {t}" for s in states for t in states]
    model = tmp_path / "complete6.kripke"
    model.write_text("\n".join(lines) + "\n")
    argv = ("check", "--model", str(model), "--formula", "[~E] true", "--bound", "40", "--json")
    code, out, _ = run(capsys, *argv)
    report = json.loads(out)
    assert (code, report["result"]) == (4, "approximate-true")
    # 6**39 tracks of length 40 alone: the count stops at 2**63 - 1.
    assert report["stats"]["initial_tracks"] == 2**63 - 1


def test_check_oracle_saturated_count_stops_early(kequiv_path, capsys):
    # Once the count is saturated and a step reaches no new last state, the
    # remaining steps of a bound of 10**6 change nothing and are skipped.
    scheduler = kequiv_path.parent / "scheduler.kripke"
    argv = ("check", "--model", str(scheduler), "--formula", "[~E] true", "--bound", str(10**6), "--json")
    started = time.perf_counter()
    code, out, _ = run(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    report = json.loads(out)
    assert (code, report["result"]) == (4, "approximate-true")
    assert report["stats"]["initial_tracks"] == 2**63 - 1


def test_check_oracle_length_dependent_root_answers_fast(kequiv_path, capsys):
    # `<~B><D> true` depends on a track's last state and length only, so the
    # oracle decides it once per reachable (last state, length) at the
    # default bound 408, where the initial tracks are far too many to
    # enumerate.
    scheduler = kequiv_path.parent / "scheduler.kripke"
    argv = ("check", "--model", str(scheduler), "--formula", "<~B><D> true", "--json")
    started = time.perf_counter()
    code, out, _ = run(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    report = json.loads(out)
    assert (code, report["result"], report["bound"]) == (4, "approximate-false", 408)


def test_check_oracle_box_over_every_extension_answers_fast(kequiv_path, capsys):
    # `[~B] <B> true` holds everywhere, so no walk over the extensions of a
    # key stops early; a walk that finds nothing settles `<~B>` at every
    # key it walked, so each (last state, length) is walked from once.
    scheduler = kequiv_path.parent / "scheduler.kripke"
    argv = ("check", "--model", str(scheduler), "--formula", "[~B] <B> true", "--engine", "oracle", "--json")
    started = time.perf_counter()
    code, out, _ = run(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    report = json.loads(out)
    assert (code, report["result"], report["bound"]) == (4, "approximate-true", 306)


def test_check_input_error_exit_two(tmp_path, capsys):
    missing = tmp_path / "missing.kripke"
    code, _, err = run(capsys, "check", "--model", str(missing), "--formula", "p")
    assert code == 2
    bad = tmp_path / "bad.kripke"
    bad.write_text("nothing sensible\n")
    code, _, err = run(capsys, "check", "--model", str(bad), "--formula", "p")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--model", "{bad}", "--formula", "p"),
        ("check", "--model", "{kequiv}", "--formula-file", "{bad}"),
        ("gen-sat", "--dimacs", "{bad}", "--out-model", "{out}/m", "--out-formula", "{out}/f"),
        ("gen-qbf", "--qdimacs", "{bad}", "--out-model", "{out}/m", "--out-formula", "{out}/f"),
        ("descriptors", "--model", "{bad}", "--state", "v0"),
    ],
    ids=["check-model", "check-formula-file", "gen-sat", "gen-qbf", "descriptors"],
)
def test_input_that_is_not_utf8_exit_two(argv, kequiv_path, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    paths = {"bad": bad, "kequiv": kequiv_path, "out": tmp_path}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "utf-8" in err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize(
    "argv, text",
    [
        (("check", "--model", "{input}", "--formula", "p"), "kequiv"),
        (("check", "--model", "{kequiv}", "--formula-file", "{input}"), "[A] p & [B] q\n"),
        (("gen-sat", "--dimacs", "{input}", "--out-model", "{out}m", "--out-formula", "{out}f"), "p cnf 2 1\n1 -2 0\n"),
        (
            ("gen-qbf", "--qdimacs", "{input}", "--out-model", "{out}m", "--out-formula", "{out}f"),
            "p cnf 2 1\ne 1 0\na 2 0\n1 -2 0\n",
        ),
        (("descriptors", "--model", "{input}", "--state", "v0"), "kequiv"),
    ],
    ids=["check-model", "check-formula-file", "gen-sat", "gen-qbf", "descriptors"],
)
def test_input_with_a_byte_order_mark_reads_as_without(argv, text, kequiv_path, tmp_path, capsys):
    # Some editors start a UTF-8 file with the mark U+FEFF.
    text = kequiv_path.read_text() if text == "kequiv" else text
    outcomes = []
    for prefix in ("", "\ufeff"):
        source, out = tmp_path / f"input{len(prefix)}", tmp_path / f"out{len(prefix)}-"
        source.write_text(prefix + text, encoding="utf-8")
        paths = {"input": source, "kequiv": kequiv_path, "out": out}
        code, stdout, err = run(capsys, *(arg.format(**paths) for arg in argv))
        stdout = [line for line in stdout.splitlines() if not line.startswith("stats.time_ms")]
        outcomes.append((code, stdout, err, sorted(p.read_text() for p in tmp_path.glob(f"{out.name}*"))))
    assert outcomes[0][0] in (0, 1) and outcomes[0][1]
    assert outcomes[0] == outcomes[1]


def test_check_bad_bound_exit_two(kequiv_path, capsys):
    code, _, err = run(
        capsys,
        "check",
        "--model",
        str(kequiv_path),
        "--formula",
        "p",
        "--engine",
        "oracle",
        "--bound",
        "1",
    )
    assert code == 2
    assert "bound" in err


@pytest.mark.parametrize(
    "formula, engine, bound",
    [("[A] true", "auto", "1"), ("<A> p", "class", "0")],
    ids=["auto-to-descriptor", "class"],
)
def test_check_bound_below_two_exit_two_for_every_engine(kequiv_path, capsys, formula, engine, bound):
    argv = ("check", "--model", str(kequiv_path), "--formula", formula, "--engine", engine)
    code, out, err = run(capsys, *argv, "--bound", bound)
    assert (code, out, err) == (2, "", "error: --bound must be at least 2\n")
    # At bound 2 the same line runs, on an exact engine.
    code, out, _ = run(capsys, *argv, "--bound", "2", "--json")
    assert code in (0, 1)
    assert json.loads(out)["engine"] == ("descriptor" if engine == "auto" else engine)


def test_check_bad_formula_exit_two(kequiv_path, capsys):
    code, _, err = run(capsys, "check", "--model", str(kequiv_path), "--formula", "<A> <A>")
    assert code == 2


def test_check_too_deep_formula_exit_two(kequiv_path, capsys):
    # The descriptor engine and the oracle recurse on the modal nodes of the
    # formula; running out of stack must not exit 1, which reads as `fails`.
    scheduler = kequiv_path.parent / "scheduler.kripke"
    for engine, used in (("auto", "descriptor"), ("oracle", "oracle")):
        argv = ("check", "--model", str(scheduler), "--formula", "[A]" * 5000 + " r0", "--engine", engine)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: formula nested too deeply for the {used} engine\n"


def test_check_deep_negation_chain_gets_a_verdict(kequiv_path, capsys):
    # The descriptor engine and the oracle compile their propositional
    # leaves without recursion, so a 5,000-deep `!` chain is checked like
    # the letter it reduces to.
    scheduler = str(kequiv_path.parent / "scheduler.kripke")
    for engine, used in (("auto", "descriptor"), ("oracle", "oracle")):
        reports = []
        for formula in ("!" * 5000 + "r0", "r0"):
            argv = ("check", "--model", scheduler, "--formula", formula, "--engine", engine, "--json")
            code, out, _ = run(capsys, *argv)
            report = json.loads(out)
            del report["stats"]["time_ms"]
            reports.append((code, report))
        assert reports[0] == reports[1]
        assert reports[0][0] == 1 and reports[0][1]["engine"] == used


def test_oracle_checks_a_5000_clause_cnf(tmp_path, capsys):
    # The negated CNF is one propositional leaf of the oracle, compiled
    # without recursion; 5,000 random 3-clauses over 10 variables are
    # unsatisfiable, so the negation holds on every initial track.
    rng = random.Random("cli-oracle-5000-clauses")
    lines = ["p cnf 10 5000"]
    for _ in range(5000):
        lines.append(" ".join(str(v if rng.random() < 0.5 else -v) for v in rng.sample(range(1, 11), 3)) + " 0")
    dimacs, model_out, formula_out = tmp_path / "f.cnf", tmp_path / "m.kripke", tmp_path / "f.formula"
    dimacs.write_text("\n".join(lines) + "\n")
    argv = ("gen-sat", "--dimacs", str(dimacs), "--out-model", str(model_out), "--out-formula", str(formula_out))
    assert run(capsys, *argv)[0] == 0
    argv = ("check", "--model", str(model_out), "--formula-file", str(formula_out), "--json")
    code, out, _ = run(capsys, *argv, "--engine", "oracle", "--bound", "12")
    report = json.loads(out)
    assert (code, report["result"], report["counterexample"]) == (4, "approximate-true", None)
    # One track per choice of the first k <= 10 variables over k steps from
    # w0; the 11th step stays on the last variable's state.
    assert report["stats"]["initial_tracks"] == sum(2 ** min(k, 10) for k in range(1, 12))
    code, out, _ = run(capsys, *argv)
    assert (code, json.loads(out)["result"]) == (0, "holds")


def test_box_over_a_5000_clause_cnf_gets_one_verdict_from_both_engines(tmp_path, capsys):
    # `[A]` over the CNF of `test_oracle_checks_a_5000_clause_cnf`, without
    # the `!` that `gen-sat` puts in front: dualizing it for the descriptor
    # engine negates the 5,000-clause conjunction without recursion. The
    # CNF is unsatisfiable, so the box fails; each engine gives its own
    # counterexample, which `check` checks is an initial track.
    rng = random.Random("cli-oracle-5000-clauses")
    lines = ["p cnf 10 5000"]
    for _ in range(5000):
        lines.append(" ".join(str(v if rng.random() < 0.5 else -v) for v in rng.sample(range(1, 11), 3)) + " 0")
    dimacs, model_out, formula_out = tmp_path / "f.cnf", tmp_path / "m.kripke", tmp_path / "f.formula"
    dimacs.write_text("\n".join(lines) + "\n")
    argv = ("gen-sat", "--dimacs", str(dimacs), "--out-model", str(model_out), "--out-formula", str(formula_out))
    assert run(capsys, *argv)[0] == 0
    negated = formula_out.read_text().strip()
    assert negated.startswith("!(") and negated.endswith(")")
    box = tmp_path / "box.formula"
    box.write_text("[A] " + negated[1:] + "\n")
    reports = {}
    for engine in ("auto", "class"):
        argv = ("check", "--model", str(model_out), "--formula-file", str(box), "--engine", engine, "--json")
        code, out, _ = run(capsys, *argv)
        report = json.loads(out)
        reports[report["engine"]] = (code, report["result"], bool(report["counterexample"]))
    assert reports == {"descriptor": (1, "fails", True), "class": (1, "fails", True)}


def test_check_builds_one_formula_table_per_engine(kequiv_path, capsys, monkeypatch):
    # `check` builds the one table of the check and classifies the
    # formula on it; dualization and each engine work on that table.
    scheduler = str(kequiv_path.parent / "scheduler.kripke")
    built = []
    init = FormulaTable.__init__

    def counting(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(FormulaTable, "__init__", counting)
    cases = (("descriptor", "[E] !(e0 & e1)", 1), ("class", "[~B] !(e0 & e1)", 0), ("oracle", "[~E] true", 4))
    for engine, formula, exit_code in cases:
        built.clear()
        code, _, _ = run(capsys, "check", "--model", scheduler, "--formula", formula, "--engine", engine)
        assert (code, len(built)) == (exit_code, 1), engine


def test_check_formula_file(kequiv_path, tmp_path, capsys):
    phi = tmp_path / "phi.formula"
    phi.write_text("[A] true\n")
    code, out, _ = run(
        capsys, "check", "--model", str(kequiv_path), "--formula-file", str(phi)
    )
    assert code == 0


# ---------------------------------------------------------------------------
# generators


def test_gen_sat_flow(tmp_path, capsys):
    dimacs = tmp_path / "f.cnf"
    dimacs.write_text("p cnf 1 1\n-1 0\n")
    model_out = tmp_path / "m.kripke"
    formula_out = tmp_path / "f.formula"
    code, out, _ = run(
        capsys,
        "gen-sat",
        "--dimacs",
        str(dimacs),
        "--out-model",
        str(model_out),
        "--out-formula",
        str(formula_out),
    )
    assert code == 0
    assert "|W|=3" in out and "|delta|=4" in out
    K = parse_kripke(model_out.read_text())
    assert len(K.states) == 3

    code, out, _ = run(
        capsys,
        "check",
        "--model",
        str(model_out),
        "--formula-file",
        str(formula_out),
        "--json",
    )
    assert code == 1  # x1:=false satisfies the input, so the negation fails
    report = json.loads(out)
    assert report["stats"]["assignment"] == {"x1": False}


def test_gen_sat_positive_literal_counterexample(tmp_path, capsys):
    dimacs = tmp_path / "f.cnf"
    dimacs.write_text("p cnf 1 1\n1 0\n")
    model_out = tmp_path / "m.kripke"
    formula_out = tmp_path / "f.formula"
    run(
        capsys,
        "gen-sat",
        "--dimacs",
        str(dimacs),
        "--out-model",
        str(model_out),
        "--out-formula",
        str(formula_out),
    )
    code, out, _ = run(
        capsys,
        "check",
        "--model",
        str(model_out),
        "--formula-file",
        str(formula_out),
        "--json",
    )
    assert code == 1
    report = json.loads(out)
    assert report["counterexample"] == ["w0", "w1_T"]
    assert report["stats"]["assignment"] == {"x1": True}


def test_gen_sat_header_names_the_variables(tmp_path, capsys):
    dimacs = tmp_path / "f.cnf"
    dimacs.write_text("p cnf 3 1\n1 -3 0\n")
    model_out, formula_out = tmp_path / "m.kripke", tmp_path / "f.formula"
    argv = ("gen-sat", "--dimacs", str(dimacs), "--out-model", str(model_out), "--out-formula", str(formula_out))
    assert run(capsys, *argv)[0] == 0
    assert model_out.read_text().splitlines()[0] == "# gen-sat: x1 x2 x3"
    code, out, _ = run(capsys, "check", "--model", str(model_out), "--formula-file", str(formula_out), "--json")
    assert code == 1
    assert set(json.loads(out)["stats"]["assignment"]) == {"x1", "x2", "x3"}


def test_gen_sat_reads_a_satlib_file_to_its_trailer(tmp_path, capsys):
    # "%" and then "0" end a SATLIB file; the "0" is no empty clause.
    dimacs = tmp_path / "uf3.cnf"
    dimacs.write_text("c SATLIB\np cnf 3 2\n1 -2 3 0\n-1 2 0\n%\n0\n\n")
    model_out, formula_out = tmp_path / "m.kripke", tmp_path / "f.formula"
    argv = ("gen-sat", "--dimacs", str(dimacs), "--out-model", str(model_out), "--out-formula", str(formula_out))
    assert run(capsys, *argv)[0] == 0
    code, out, _ = run(capsys, "check", "--model", str(model_out), "--formula-file", str(formula_out), "--json")
    assert code == 1
    assignment = json.loads(out)["stats"]["assignment"]
    assert set(assignment) == {"x1", "x2", "x3"}
    assert all(any(assignment[f"x{abs(v)}"] == (v > 0) for v in c) for c in ((1, -2, 3), (-1, 2)))


@pytest.mark.parametrize("engine", ["class", "oracle"])
def test_gen_sat_assignment_from_every_refuting_engine(tmp_path, capsys, engine):
    # The assignment follows the instance: the class engine's and the
    # oracle's counterexamples decode to a satisfying assignment too. The
    # instance with no variables is satisfied by the empty assignment.
    dimacs = tmp_path / "f.cnf"
    model_out, formula_out = tmp_path / "m.kripke", tmp_path / "f.formula"
    for text, clauses in (("p cnf 3 2\n1 -2 3 0\n-1 2 0\n", ((1, -2, 3), (-1, 2))), ("p cnf 0 0\n", ())):
        dimacs.write_text(text)
        argv = ("gen-sat", "--dimacs", str(dimacs), "--out-model", str(model_out), "--out-formula", str(formula_out))
        assert run(capsys, *argv)[0] == 0
        argv = ("check", "--model", str(model_out), "--formula-file", str(formula_out), "--engine", engine, "--json")
        code, out, _ = run(capsys, *argv)
        report = json.loads(out)
        assert (code, report["engine"], report["result"]) == (1, engine, "fails")
        assignment = report["stats"]["assignment"]
        assert set(assignment) == {f"x{v}" for c in clauses for v in map(abs, c)}
        assert all(any(assignment[f"x{abs(v)}"] == (v > 0) for v in c) for c in clauses)


def test_sat_shaped_structure_without_header_gets_no_assignment(tmp_path, capsys):
    # The shape `gen-sat` builds for one variable, written by hand: only the
    # header line marks a SAT instance.
    lines = ["ap: x1", "init: w0", "state w0: x1", "state w1_T: x1", "state w1_F:"]
    lines += ["edge: w0 w1_T", "edge: w0 w1_F", "edge: w1_T w1_T", "edge: w1_F w1_F"]
    model = tmp_path / "hand.kripke"
    model.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "check", "--model", str(model), "--formula", "!(!x1)", "--json")
    report = json.loads(out)
    assert (code, report["engine"], report["result"]) == (1, "descriptor", "fails")
    assert "assignment" not in report["stats"]
    model.write_text("# gen-sat: x1\n" + model.read_text())
    code, out, _ = run(capsys, "check", "--model", str(model), "--formula", "!(!x1)", "--json")
    assert json.loads(out)["stats"]["assignment"] == {"x1": False}


def test_gen_qbf_flow(tmp_path, capsys):
    qdimacs = tmp_path / "f.qdimacs"
    qdimacs.write_text("p cnf 1 1\ne 1 0\n1 0\n")
    model_out = tmp_path / "m.kripke"
    formula_out = tmp_path / "f.formula"
    code, out, _ = run(
        capsys,
        "gen-qbf",
        "--qdimacs",
        str(qdimacs),
        "--out-model",
        str(model_out),
        "--out-formula",
        str(formula_out),
    )
    assert code == 0
    assert "|W|=7" in out and "|delta|=8" in out
    assert formula_out.read_text().strip() == "start -> <~B>((<A> x1_aux) & x1)"
    code, _, _ = run(
        capsys, "check", "--model", str(model_out), "--formula-file", str(formula_out)
    )
    assert code == 0


def test_gen_qbf_free_variable_warning_is_one_line(tmp_path, capsys):
    # Variable 1 is free, and is read as the outermost existential: the
    # instance is the one whose prefix binds it so.
    written = {}
    for name, text in (("free", "p cnf 2 1\na 2 0\n1 2 0\n"), ("bound", "p cnf 2 1\ne 1 0\na 2 0\n1 2 0\n")):
        source, model_out, formula_out = (tmp_path / f"{name}.{ext}" for ext in ("qdimacs", "kripke", "formula"))
        source.write_text(text)
        code, _, err = run(
            capsys, "gen-qbf", "--qdimacs", str(source), "--out-model", str(model_out), "--out-formula", str(formula_out)
        )
        assert code == 0, name
        written[name] = (err, model_out.read_text(), formula_out.read_text())
    assert written["free"][0] == "warning: free variables [1] treated as outermost existentials\n"
    assert written["bound"][0] == ""
    assert written["free"][1:] == written["bound"][1:]


def test_gen_sat_malformed_exit_two(tmp_path, capsys):
    dimacs = tmp_path / "bad.cnf"
    dimacs.write_text("p cnf zero files\n")
    code, _, err = run(
        capsys,
        "gen-sat",
        "--dimacs",
        str(dimacs),
        "--out-model",
        str(tmp_path / "m"),
        "--out-formula",
        str(tmp_path / "f"),
    )
    assert code == 2


@pytest.mark.parametrize(
    "command, flag, header",
    [("gen-sat", "--dimacs", "p cnf -3 0"), ("gen-sat", "--dimacs", "p cnf 2 -1"), ("gen-qbf", "--qdimacs", "p cnf -2 0")],
)
def test_generators_negative_counts_exit_two(tmp_path, capsys, command, flag, header):
    source = tmp_path / "negative.in"
    source.write_text(header + "\n")
    argv = (command, flag, str(source), "--out-model", str(tmp_path / "m"), "--out-formula", str(tmp_path / "f"))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: malformed problem line {header!r} (line 1)\n")
    assert not (tmp_path / "m").exists() and not (tmp_path / "f").exists()


def test_gen_sat_lax_number_exit_two(tmp_path, capsys):
    source = tmp_path / "lax.cnf"
    source.write_text("p cnf 3 1\n+1 -2 0\n")
    argv = ("gen-sat", "--dimacs", str(source), "--out-model", str(tmp_path / "m"), "--out-formula", str(tmp_path / "f"))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: malformed clause line '+1 -2 0' (line 2)\n")
    assert not (tmp_path / "m").exists() and not (tmp_path / "f").exists()


def test_generators_unwritable_output_exit_two(tmp_path, capsys):
    sources = {
        "gen-sat": ("--dimacs", "p cnf 1 1\n1 0\n"),
        "gen-qbf": ("--qdimacs", "p cnf 1 1\ne 1 0\n1 0\n"),
    }
    for command, (flag, text) in sources.items():
        source = tmp_path / f"{command}.in"
        source.write_text(text)
        code, _, err = run(
            capsys,
            command,
            flag,
            str(source),
            "--out-model",
            str(tmp_path / "missing" / "m.kripke"),
            "--out-formula",
            str(tmp_path / "f.formula"),
        )
        assert code == 2, command
        assert err.startswith("error:"), command


# ---------------------------------------------------------------------------
# classify / descriptors


def test_classify_output(capsys):
    code, out, _ = run(capsys, "classify", "--formula", "p & !q")
    assert code == 0
    assert out.strip() == "Prop ExistsAABE ForallAABE ABbar"


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--formula", "[A](p & [B] q)", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["fragments"] == ["ForallAABE"]
    assert report["modalities"] == ["A", "B"]


def test_classify_error(capsys):
    code, _, err = run(capsys, "classify", "--formula", "p &")
    assert code == 2


def test_descriptors_listing(kequiv_path, capsys):
    code, out, _ = run(
        capsys, "descriptors", "--model", str(kequiv_path), "--state", "v0", "--dir", "fwd"
    )
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 8
    assert all("witness_len=" in line for line in lines)


@pytest.mark.parametrize(
    "direction,lines,first,last,digest",
    (
        ("fwd", 268, "(w0, {w0,w1,w2,w3,w4,w5}, w0) witness_len=10", "(w0, {w2,w3,w8}, w9) witness_len=5",
         "172bc0b8cc4a65f0296bd093d4231a4ca668f4827f93291e4a9427287add3fa5"),
        ("bwd", 278, "(w0, {w0,w1,w2,w3,w4,w5}, w0) witness_len=10", "(w9, {w0,w2,w4,w5}, w0) witness_len=6",
         "6d5a179437faea9cbbcb25c3b3b2817285d96c7340cd13a3decb0bf221e30e8a"),
    ),
    ids=("fwd", "bwd"),
)
def test_descriptors_scheduler_listing_pinned(kequiv_path, capsys, direction, lines, first, last, digest):
    # The listing in canonical order with each element's shortest witness,
    # as printed before the descriptor fixpoint moved onto state ids.
    scheduler = str(kequiv_path.parent / "scheduler.kripke")
    code, out, _ = run(capsys, "descriptors", "--model", scheduler, "--state", "w0", "--dir", direction)
    assert code == 0
    got = out.splitlines()
    assert (len(got), got[0], got[-1]) == (lines, first, last)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("direction", ("fwd", "bwd"))
def test_descriptors_witness_len_is_the_shortest_witness(tmp_path, capsys, direction):
    # The lengths come from the listing's own breadth-first search; each
    # must be that of the element's shortest witness, found forward.
    rng = rng_for(f"descriptors-{direction}")
    path = tmp_path / "m.kripke"
    listed = 0
    for _ in range(40):
        K = sparse_kripke(rng, max_states=7)
        path.write_text(format_kripke(K))
        for v in K.states:
            code, out, _ = run(capsys, "descriptors", "--model", str(path), "--state", v, "--dir", direction)
            elements = witnessed_descriptors(K, v, "forward" if direction == "fwd" else "backward")
            assert code == 0
            assert out.splitlines() == [f"{d!r} witness_len={len(shortest_witness(K, d))}" for d in elements]
            listed += len(elements)
    assert listed > 2000


def test_descriptors_unknown_state(kequiv_path, capsys):
    code, _, err = run(
        capsys, "descriptors", "--model", str(kequiv_path), "--state", "nope", "--dir", "fwd"
    )
    assert code == 2


def test_console_entry_exit_codes(kequiv_path):
    # `python -m intervalmc` exits with `main`'s code through `cli.entry`;
    # were that code dropped, every run would exit 0 and a `fails` would
    # read as `holds`.
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).resolve().parents[1]))
    for formula, expected in (("[A] true", 0), ("p", 1), ("p &", 2)):
        argv = [sys.executable, "-m", "intervalmc", "check", "--model", str(kequiv_path), "--formula", formula]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == expected, proc.stderr


# The subject of a validation error is printed even when its name occurs in
# the message, as "c" does in "declared" and "e" in "UnknownState".


def test_descriptors_unknown_state_named_inside_the_reason(kequiv_path, capsys):
    code, _, err = run(capsys, "descriptors", "--model", str(kequiv_path), "--state", "e")
    assert (code, err) == (2, "error: UnknownState: e\n")


def test_undeclared_edge_target_named_inside_the_message(tmp_path, capsys):
    path = tmp_path / "m.kripke"
    path.write_text("ap: p\ninit: b\nstate b: p\nedge: b c\nedge: b b\n")
    code, _, err = run(capsys, "check", "--model", str(path), "--formula", "p")
    assert (code, err) == (2, "error: edge target is not declared: c\n")


def test_stray_letter_named_inside_the_reason(tmp_path, capsys):
    path = tmp_path / "m.kripke"
    path.write_text("ap: q\ninit: v0\nstate v0: p\nedge: v0 v0\n")
    code, _, err = run(capsys, "check", "--model", str(path), "--formula", "q")
    assert (code, err) == (2, "error: UnknownProposition: p\n")


# ---------------------------------------------------------------------------
# command-line contract: `main` builds only the parser of the subcommand it
# runs, once per process, and that changes no output and no exit code


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # help and usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, re.sub(r'time_ms"?:? [0-9.]+', "time_ms", captured.out), captured.err


def _argv_table(kequiv_path):
    K = str(kequiv_path)
    return [
        ["--help"],
        [],
        ["chek"],
        ["--json", "check"],
        ["check", "-h"],
        ["gen-sat", "-h"],
        ["gen-qbf", "-h"],
        ["classify", "-h"],
        ["descriptors", "-h"],
        ["check", "--formula", "p"],
        ["check", "--model", K, "--formula", "p", "--formula-file", "f"],
        ["check", "--model", K, "--formula", "p", "--engine", "fast"],
        ["check", "--model", K, "--formula", "p", "extra"],
        ["check", "--model", K, "--formula", "[A] true", "--json"],
        ["classify", "--formula", "p & !q"],
        ["descriptors", "--model", K, "--state", "v0", "--dir", "up"],
    ]


def test_per_subcommand_parser_matches_the_full_parser(kequiv_path, capsys, monkeypatch):
    lines = _argv_table(kequiv_path)
    full, asked = cli.build_parser, []

    def recording(command=None):
        asked.append(command)
        return full(command)

    monkeypatch.setattr(cli, "build_parser", recording)
    per_command = [_outcome(capsys, argv) for argv in lines]
    assert asked == [argv[0] if argv and argv[0] in cli.COMMANDS else None for argv in lines]
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert [_outcome(capsys, argv) for argv in lines] == per_command

    help_code, help_out, _ = per_command[0]
    assert help_code == 0
    assert all(f"    {name}" in help_out for name in cli.COMMANDS)
    assert [code for code, _, _ in per_command[1:4]] == [2, 2, 2]
    # An unrecognized argument prints the top-level usage, which names every subcommand.
    assert "{check,gen-sat,gen-qbf,classify,descriptors}" in per_command[12][2]


def test_check_builds_a_parser_with_only_check(kequiv_path, capsys, monkeypatch):
    full, built = cli.build_parser, []

    def recording(command=None):
        built.append(full(command))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", recording)
    code, _, _ = run(capsys, "check", "--model", str(kequiv_path), "--formula", "[A] true")
    assert code == 0
    (parser,) = built
    (subcommands,) = (action for action in parser._actions if action.dest == "command")
    assert list(subcommands.choices) == ["check"]
    assert len(next(a for a in full()._actions if a.dest == "command").choices) == len(cli.COMMANDS)


def test_each_parser_is_built_once_per_process():
    for command in (*cli.COMMANDS, None):
        assert cli.build_parser(command) is cli.build_parser(command)
    assert cli.build_parser() is not cli.build_parser("check")


def test_kept_parsers_give_the_same_outcomes_twice(kequiv_path, capsys):
    lines = _argv_table(kequiv_path)
    cli.build_parser.cache_clear()  # the first pass builds every parser, the second reuses them
    first = [_outcome(capsys, argv) for argv in lines]
    assert [_outcome(capsys, argv) for argv in lines] == first


def test_usage_error_leaves_the_kept_parser_usable(kequiv_path, capsys):
    argv = ["check", "--model", str(kequiv_path), "--formula", "[A] true", "--json"]
    code, out, err = _outcome(capsys, [*argv, "--engine", "fast"])
    assert code == 2 and out == "" and "invalid choice: 'fast'" in err
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["result"] == "holds"


def test_help_reads_the_same_twice(capsys):
    first = _outcome(capsys, ["--help"])
    assert first[0] == 0 and first[1].startswith("usage: intervalmc")
    assert _outcome(capsys, ["--help"]) == first


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["intervalmc", "classify", "--formula", "p & !q"])
    assert main() == 0
    assert capsys.readouterr().out == "Prop ExistsAABE ForallAABE ABbar\n"


def test_python_dash_m_report_matches_main(kequiv_path, capsys):
    argv = ["check", "--model", str(kequiv_path.parent / "scheduler.kripke"), "--formula", "[E] !(e0 & e1)", "--json"]
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "intervalmc", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    code, out, err = run(capsys, *argv)
    assert (proc.returncode, proc.stderr) == (code, err) == (1, "")
    reports = [json.loads(text) for text in (proc.stdout, out)]
    for report in reports:
        report["stats"].pop("time_ms")
    assert reports[0] == reports[1]
    assert reports[0]["result"] == "fails"
