"""Command-line front end.

Exit codes: 0 holds, 1 fails, 2 input error (for every subcommand: an
unreadable or malformed input, or an output that cannot be written), 3
formula outside the selected engine's fragment, 4 approximate verdict
(bounded oracle on a formula it cannot decide exactly). A formula nested
deeper than the selected engine can recurse is an input error: `check`
prints `error: formula nested too deeply for the <engine> engine` and
exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings

from . import class_checker, descriptor_checker, logic, model, oracle, reductions
from .errors import IntervalMCError

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INPUT_ERROR = 2
EXIT_FRAGMENT = 3
EXIT_APPROXIMATE = 4

# The fragment of each exact engine, in `auto`'s order; the rest go to the oracle.
EXACT_ENGINES = {"descriptor": "ForallAABE", "class": "ABbar"}

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


def cmd_check(args) -> int:
    if args.bound is not None and args.bound < 2:
        print("error: --bound must be at least 2", file=sys.stderr)
        return EXIT_INPUT_ERROR
    text = _read(args.model)
    K = model.parse_kripke(text)
    phi = _load_formula(args)
    desugared = logic.desugar(phi)
    root = logic.table_node(desugared)  # the check's one formula table, for every step below
    frag = logic.classify(root)

    engine, names = args.engine, frag.names()
    if engine == "auto":
        engine = next((e for e, name in EXACT_ENGINES.items() if name in names), "oracle")
        args.engine = engine
    elif engine in EXACT_ENGINES and EXACT_ENGINES[engine] not in names:
        print(f"error: formula is not in the {EXACT_ENGINES[engine]} fragment", file=sys.stderr)
        return EXIT_FRAGMENT

    started = time.monotonic()
    bound = None
    if engine == "descriptor":
        verdict = descriptor_checker.model_check_univ(K, root)
        result, counterexample, stats = verdict.result, verdict.counterexample, verdict.stats
    elif engine == "class":
        verdict = class_checker.check_ab(K, root)
        result, counterexample, stats = verdict.result, verdict.counterexample, verdict.stats
    else:
        bound = args.bound if args.bound is not None else oracle.default_bound(K, desugared)
        bv = oracle.model_check_bounded(K, root, bound)
        counterexample = None
        stats = {"initial_tracks": bv.initial_tracks}
        if not bv.value and frag.forall_aabe:
            # A bounded refutation of a universal-fragment formula is exact.
            result = "fails"
            counterexample = bv.failing_track
        elif bv.value:
            result = "approximate-true"
        else:
            result = "approximate-false"
    stats = dict(stats)
    stats["time_ms"] = round((time.monotonic() - started) * 1000, 3)

    if counterexample is not None and not (
        model.is_track(K, counterexample) and counterexample[0] == K.init
    ):
        print("error: internal counterexample failed re-validation", file=sys.stderr)
        return EXIT_INPUT_ERROR
    report = {
        "result": result,
        "engine": engine,
        "counterexample": list(counterexample) if counterexample is not None else None,
        "stats": stats,
        "bound": bound,
    }
    first = text.split("\n", 1)[0]
    variables = first[len(SAT_HEADER):].split() if first.startswith(SAT_HEADER) else []
    if engine == "descriptor" and result == "fails" and variables:
        report["stats"]["assignment"] = reductions.decode_sat_assignment(variables, K, counterexample)
    _emit(report, args.json)
    if result == "holds":
        return EXIT_HOLDS
    if result == "fails":
        return EXIT_FAILS
    return EXIT_APPROXIMATE


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


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, given `command`, of that one only."""
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
        check.add_argument(
            "--engine", choices=("auto", "descriptor", "class", "oracle"), default="auto"
        )
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
    except (IntervalMCError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RecursionError:
        # Only `check` recurses on a formula. Uncaught, this would exit 1,
        # which reads as `fails`.
        print(f"error: formula nested too deeply for the {args.engine} engine", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entry():
    raise SystemExit(main())
