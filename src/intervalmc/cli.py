"""Command-line front end, and `check`, the library's one model-checking
call: it picks the engine, decides when a bounded verdict is exact and
re-validates the counterexample. `intervalmc check` reads its two files,
calls `check` and prints the verdict.

Exit codes: 0 holds, 1 fails, 2 input error (for every subcommand: an
unreadable or malformed input, an output that cannot be written, or a
formula nested deeper than the selected engine can recurse), 3 formula
outside the selected engine's fragment, 4 approximate verdict (bounded
oracle on a formula it cannot decide exactly).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from functools import cache

from . import class_checker, descriptor_checker, logic, model, oracle, reductions
from .errors import IntervalMCError, NotInFragment
from .record import Verdict

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INPUT_ERROR = 2
EXIT_FRAGMENT = 3
EXIT_APPROXIMATE = 4

# The fragment of each exact engine, in `auto`'s order; the rest go to the oracle.
EXACT_ENGINES = {"descriptor": "ForallAABE", "class": "ABbar"}
ENGINES = ("auto", *EXACT_ENGINES, "oracle")

# First line of a `gen-sat` model file, followed by the instance's variables.
SAT_HEADER = "# gen-sat:"


def _read(path):
    with open(path, "r", encoding="utf-8-sig") as handle:  # drops a byte order mark
        return handle.read()


def _load_formula(args):
    return logic.parse_formula(args.formula if args.formula is not None else _read(args.formula_file))


def _emit(report, as_json):
    if as_json:
        print(json.dumps(report, sort_keys=True))
        return
    print(f"result: {report['result']}")
    print(f"engine: {report['engine']}")
    if report["counterexample"] is not None:
        print("counterexample: " + " ".join(report["counterexample"]))
    if report["bound"] is not None:
        print(f"bound: {report['bound']}")
    for key in sorted(report["stats"]):
        print(f"stats.{key}: {report['stats'][key]}")


def check(K, formula, engine="auto", bound=None) -> Verdict:
    """Model check `formula` on `K` with `engine`, one of `ENGINES`.

    `auto` takes the first exact engine whose fragment holds the formula,
    else the bounded oracle, at `bound` or else at `oracle.default_bound`;
    `bound` is ignored by the exact engines. The oracle's bounded
    refutation of a ForallAABE formula is exact (`fails`); its other
    verdicts read `approximate-true` or `approximate-false`. NotInFragment
    when a forced exact engine's fragment misses the formula;
    IntervalMCError when the formula is nested deeper than the engine can
    recurse, or when a counterexample is not an initial track of `K`.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}, expected one of {', '.join(ENGINES)}")
    if bound is not None and bound < 2:
        raise ValueError("bound must be at least 2")
    desugared = logic.desugar(formula)
    root = logic.table_node(desugared)  # the check's one formula table, for every step below
    frag = logic.classify(root)
    if engine == "auto":
        engine = next((e for e, name in EXACT_ENGINES.items() if name in frag.names()), "oracle")
    elif engine in EXACT_ENGINES and EXACT_ENGINES[engine] not in frag.names():
        raise NotInFragment(f"formula is not in the {EXACT_ENGINES[engine]} fragment")

    started = time.monotonic()
    try:
        if engine == "descriptor":
            verdict = descriptor_checker.model_check_univ(K, root)
        elif engine == "class":
            verdict = class_checker.check_ab(K, root)
        else:
            bound = bound if bound is not None else oracle.default_bound(K, desugared)
            bv = oracle.model_check_bounded(K, root, bound)
            exact = not bv.value and frag.forall_aabe  # a bounded refutation of a universal formula
            result = "fails" if exact else "approximate-" + ("true" if bv.value else "false")
            stats = {"initial_tracks": bv.initial_tracks}
            verdict = Verdict(result, bv.failing_track if exact else None, engine, stats, bound)
    except RecursionError:
        # Uncaught, this would exit 1 in the CLI, which reads as `fails`.
        raise IntervalMCError(f"formula nested too deeply for the {engine} engine") from None
    verdict.stats["time_ms"] = round((time.monotonic() - started) * 1000, 3)

    rho = verdict.counterexample
    if rho is not None and not (model.is_track(K, rho) and rho[0] == K.init):
        raise IntervalMCError("internal counterexample failed re-validation")
    return verdict


def cmd_check(args) -> int:
    if args.bound is not None and args.bound < 2:
        print("error: --bound must be at least 2", file=sys.stderr)
        return EXIT_INPUT_ERROR
    text = _read(args.model)
    K = model.parse_kripke(text)
    verdict = check(K, _load_formula(args), args.engine, args.bound)
    first = text.split("\n", 1)[0]
    if verdict.result == "fails" and first.startswith(SAT_HEADER):
        variables = first[len(SAT_HEADER):].split()
        verdict.stats["assignment"] = reductions.decode_sat_assignment(variables, K, verdict.counterexample)
    rho = verdict.counterexample
    report = {
        "result": verdict.result,
        "engine": verdict.engine,
        "counterexample": list(rho) if rho is not None else None,
        "stats": verdict.stats,
        "bound": verdict.bound,
    }
    _emit(report, args.json)
    return {"holds": EXIT_HOLDS, "fails": EXIT_FAILS}.get(verdict.result, EXIT_APPROXIMATE)


def cmd_generate(args) -> int:
    # The parser and builder are named, not bound, so that they are looked
    # up in `reductions` when the command runs.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        instance = getattr(reductions, args.parse)(_read(args.source))
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    K, phi = getattr(reductions, args.build)(instance)
    header = ""
    if args.command == "gen-sat":
        variables = (reductions.var_name(i) for i in range(1, instance.num_vars + 1))
        header = " ".join((SAT_HEADER, *variables)) + "\n"
    _write_instance(args.out_model, args.out_formula, K, phi, header)
    print(f"|W|={len(K.states)} |delta|={len(K.edges)} |pl|={len(logic.prop_letters(phi))}")
    return EXIT_HOLDS


def _write_instance(model_path, formula_path, K, phi, header):
    with open(model_path, "w", encoding="utf-8") as handle:
        handle.write(header + model.format_kripke(K))
    with open(formula_path, "w", encoding="utf-8") as handle:
        handle.write(logic.to_text(phi) + "\n")


def cmd_classify(args) -> int:
    frag = logic.classify(logic.desugar(logic.parse_formula(args.formula)))
    names = frag.names()
    if args.json:
        print(
            json.dumps(
                {
                    "fragments": list(names),
                    "modalities": sorted(m.text for m in frag.modalities),
                },
                sort_keys=True,
            )
        )
    else:
        print(" ".join(names) if names else "none")
    return EXIT_HOLDS


def cmd_descriptors(args) -> int:
    K = model.parse_kripke(_read(args.model))
    direction = {"fwd": "forward", "bwd": "backward"}[args.dir]
    for d, length in model.witness_lengths(K, args.state, direction):
        print(f"{d!r} witness_len={length}")
    return EXIT_HOLDS


COMMANDS = ("check", "gen-sat", "gen-qbf", "classify", "descriptors")


@cache
def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` only; built once per process and only read."""
    parser = argparse.ArgumentParser(
        prog="intervalmc",
        description="Model checking for interval temporal logic fragments over finite Kripke structures.",
    )
    # A lone subcommand keeps the full list in the usage line that an error prints.
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    wanted = COMMANDS if command is None else (command,)

    if "check" in wanted:
        check = sub.add_parser("check", help="model check a formula against a structure")
        check.add_argument("--model", required=True)
        group = check.add_mutually_exclusive_group(required=True)
        group.add_argument("--formula")
        group.add_argument("--formula-file")
        check.add_argument("--engine", choices=ENGINES, default="auto")
        check.add_argument("--bound", type=int)
        check.add_argument("--json", action="store_true")
        check.set_defaults(func=cmd_check)

    generators = (
        ("gen-sat", "DIMACS", "parse_dimacs", "build_sat_instance"),
        ("gen-qbf", "QDIMACS", "parse_qdimacs", "build_qbf_instance"),
    )
    for name, kind, parse, build in generators:
        if name in wanted:
            gen = sub.add_parser(name, help=f"build a checking instance from a {kind} file")
            gen.add_argument(f"--{kind.lower()}", dest="source", metavar=kind, required=True)
            gen.add_argument("--out-model", required=True)
            gen.add_argument("--out-formula", required=True)
            gen.set_defaults(func=cmd_generate, parse=parse, build=build)

    if "classify" in wanted:
        classify_p = sub.add_parser("classify", help="print fragment membership of a formula")
        classify_p.add_argument("--formula", required=True)
        classify_p.add_argument("--json", action="store_true")
        classify_p.set_defaults(func=cmd_classify)

    if "descriptors" in wanted:
        descr = sub.add_parser("descriptors", help="list witnessed descriptor elements")
        descr.add_argument("--model", required=True)
        descr.add_argument("--state", required=True)
        descr.add_argument("--dir", choices=("fwd", "bwd"), default="fwd")
        descr.set_defaults(func=cmd_descriptors)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A first word that is not a subcommand (an option, a typo, none) gets the full parser.
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except NotInFragment as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FRAGMENT
    except (IntervalMCError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entry():
    raise SystemExit(main())
