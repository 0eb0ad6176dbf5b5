import json
import time

from intervalmc import enumerate_tracks, parse_kripke
from intervalmc.cli import main


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
    K = parse_kripke(open(kequiv_path).read())
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
    K = parse_kripke(open(kequiv_path).read())
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


def test_check_input_error_exit_two(tmp_path, capsys):
    missing = tmp_path / "missing.kripke"
    code, _, err = run(capsys, "check", "--model", str(missing), "--formula", "p")
    assert code == 2
    bad = tmp_path / "bad.kripke"
    bad.write_text("nothing sensible\n")
    code, _, err = run(capsys, "check", "--model", str(bad), "--formula", "p")
    assert code == 2
    assert "error:" in err


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


def test_check_bad_formula_exit_two(kequiv_path, capsys):
    code, _, err = run(capsys, "check", "--model", str(kequiv_path), "--formula", "<A> <A>")
    assert code == 2


def test_check_too_deep_formula_exit_two(kequiv_path, capsys):
    # The descriptor engine and the oracle recurse on the formula; running
    # out of stack must not exit 1, which reads as `fails`.
    scheduler = kequiv_path.parent / "scheduler.kripke"
    deep = "!" * 5000 + "r0"
    for engine, used in (("auto", "descriptor"), ("oracle", "oracle")):
        argv = ("check", "--model", str(scheduler), "--formula", deep, "--engine", engine)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: formula nested too deeply for the {used} engine\n"


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


def test_descriptors_unknown_state(kequiv_path, capsys):
    code, _, err = run(
        capsys, "descriptors", "--model", str(kequiv_path), "--state", "nope", "--dir", "fwd"
    )
    assert code == 2
