"""`intervalmc.check`, the library's model-checking call, against the
`check --json` report that the CLI prints from it: the same result,
engine, counterexample, stats and bound on random instances for every
engine, the same exit code for each result, and the same errors."""

import json

import pytest

from intervalmc import check, format_kripke, parse_formula, to_text
from intervalmc.cli import ENGINES, EXIT_FRAGMENT, main
from intervalmc.errors import IntervalMCError, NotInFragment

from _instances import random_ab_formula, random_forall_formula, random_hs_formula, random_kripke, rng_for

EXIT_CODES = {"holds": 0, "fails": 1, "approximate-true": 4, "approximate-false": 4}


def _cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_matches_the_cli_report_for_every_engine(tmp_path, capsys):
    rng = rng_for("check-vs-cli")
    model_path, formula_path = tmp_path / "m.kripke", tmp_path / "f.formula"
    drawers = (random_forall_formula, random_ab_formula, random_hs_formula)
    answered, refused = {engine: set() for engine in ENGINES}, set()
    for i in range(30):
        K = random_kripke(rng, max_states=3)
        phi = drawers[i % 3](rng, ("p", "q"), 2)
        # The oracle's default bound on universal formulas only: at it,
        # `<~B> p` on three states takes seconds.
        bound = None if i % 3 == 0 else 4
        model_path.write_text(format_kripke(K))
        formula_path.write_text(to_text(phi) + "\n")
        for engine in ENGINES:
            argv = ["check", "--model", str(model_path), "--formula-file", str(formula_path), "--engine", engine]
            code, out, err = _cli(capsys, *argv, "--json", *(() if bound is None else ("--bound", str(bound))))
            try:
                verdict = check(K, phi, engine, bound)
            except NotInFragment as exc:
                assert (code, out, err) == (EXIT_FRAGMENT, "", f"error: {exc}\n")
                refused.add(engine)
                continue
            report = json.loads(out)
            del report["stats"]["time_ms"], verdict.stats["time_ms"]
            rho = verdict.counterexample
            assert report == {
                "result": verdict.result,
                "engine": verdict.engine,
                "counterexample": list(rho) if rho is not None else None,
                "stats": verdict.stats,
                "bound": verdict.bound,
            }
            assert code == EXIT_CODES[verdict.result]
            answered[engine].add(verdict.result)
    # Every engine answered, both exact engines refused some formula, and
    # the oracle gave an exact refutation as well as approximate verdicts.
    assert all(answered.values()) and refused == {"descriptor", "class"}
    assert answered["oracle"] == {"fails", "approximate-true", "approximate-false"}


def test_check_bound_goes_to_the_oracle_only(kequiv):
    phi = parse_formula("[A] p")
    assert check(kequiv, phi, "oracle", bound=3).bound == 3
    assert check(kequiv, phi, "descriptor", bound=3).bound is None


@pytest.mark.parametrize("engine", ENGINES)
def test_check_refuses_a_bound_below_two_for_every_engine(kequiv, engine):
    with pytest.raises(ValueError, match="bound must be at least 2"):
        check(kequiv, parse_formula("[A] true"), engine, bound=1)


def test_check_refuses_an_unknown_engine(kequiv):
    with pytest.raises(ValueError, match="unknown engine 'fast'"):
        check(kequiv, parse_formula("p"), "fast")


@pytest.mark.parametrize("engine, formula, fragment", [("descriptor", "<A> p", "ForallAABE"), ("class", "[B] p", "ABbar")])
def test_forced_engine_outside_its_fragment(kequiv, kequiv_path, capsys, engine, formula, fragment):
    message = f"formula is not in the {fragment} fragment"
    with pytest.raises(NotInFragment, match=message):
        check(kequiv, parse_formula(formula), engine)
    code, out, err = _cli(capsys, "check", "--model", str(kequiv_path), "--formula", formula, "--engine", engine)
    assert (code, out, err) == (EXIT_FRAGMENT, "", f"error: {message}\n")


def test_too_deep_formula_names_the_engine_auto_chose(scheduler):
    phi = parse_formula("[A]" * 2000 + " r0")
    with pytest.raises(IntervalMCError, match="^formula nested too deeply for the descriptor engine$"):
        check(scheduler, phi)
