"""Seeded inputs for the benchmark's two workloads.

`draw` turns a workload and a seed into a list of `Instance`s: the input
text of one `intervalmc check --json` call plus what the verifier needs to
judge its report. `write` is the set-up a user goes through: it writes the
DIMACS and QDIMACS text to files and turns them into model/formula files
with `intervalmc gen-sat` and `intervalmc gen-qbf`, writes the Kripke
files, and fills in each instance's argument list.

The workloads split the package by engine. `descriptor` holds the
universal-fragment checks (SAT instances and the scheduler's `[B]`/`[E]`
formulas) and bypasses the class engine and the oracle; `class_oracle`
holds the class-engine checks (QBF instances and the scheduler's class
formulas) and the bounded oracle, and bypasses the descriptor engine.

Random CNF and QBF draws are stratified by their truth value (checked with
the bit-parallel truth tables below), so that every seed gives the same mix
of `holds` and `fails` verdicts and the same instance sizes; only the
clauses, prefixes and labels change with the seed. This rejection
sampling is the benchmark's own work, and how long it takes depends on the
seed, so it is kept out of `write`.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

WORKLOADS = ("descriptor", "class_oracle")
# Within an untraced pass, an instance is checked again until it has run
# this many seconds, so that the checks around the workload's median get
# enough samples: the n = 7 SAT draws (about 0.3 s) on `descriptor`, the
# oracle checks (about 50 ms) on `class_oracle`. A longer time on
# `class_oracle` would cut the passes, and with them the samples of the
# n = 10 and 11 QBF checks that make up most of its `wall_s`.
REPEAT_SECONDS = {"descriptor": 0.5, "class_oracle": 0.1}

# (variables, unsatisfiable draws) per SAT size. Per n there is one
# satisfiable draw at 2n clauses (early exit with a counterexample) and the
# given number of unsatisfiable draws at 6n clauses (exhaustive search).
# The five n = 7 draws hold the workload's median check, which is then the
# middle of five draws rather than the slower of two: with two, the median
# followed the seed by 15 to 19 % (interquartile distance over median, 5
# seeds). n = 10 unsat alone takes about 4 s and n = 12 about 23 s, which
# would leave too few repetitions in one run.
SAT_SIZES = ((6, 2), (7, 5), (8, 2), (9, 2))
SAT_SIZES_TINY = ((3, 2), (4, 2))
# Variables per QBF instance, with n clauses that use every variable, one
# true and one false draw per n, and n // 2 universal variables. n = 11
# sets the workload's peak memory (about 60 MB in one check), and the class
# engine's memory grows with the number of universal variables (at n = 12,
# 94 MB with 4 and 114 MB with 10), so that number does not change with the
# seed. n = 12 (about 2.5 s a check) is left out: its two checks took half
# of a pass and got 4 to 5 samples per run.
QBF_SIZES = (6, 8, 9, 10, 11)
QBF_SIZES_TINY = (4, 5)
# States of the random structures for the bounded oracle. Every state has
# the same number of successors and of predecessors, so every seed
# enumerates the same number of tracks forwards and backwards.
ORACLE_STATES = (7, 9, 11)
ORACLE_STATES_TINY = (3,)
ORACLE_DEGREE = 4
ORACLE_DEGREE_TINY = 2
# An explicit bound: the default bound of the oracle grows with |W|^2 and
# does not finish in a run (ROADMAP item 3). At 7, each structure has 5460
# initial tracks and a check takes about 50 ms, so the oracle checks, which
# hold the workload's median check, get many samples per run; at 8 (21844
# tracks, about 200 ms a check) they got 4 to 5.
ORACLE_BOUND = 7
ORACLE_BOUND_TINY = 4
ORACLE_LETTERS = ("p", "q", "r")
# Positive-diamond formulas outside both exact fragments, plus one box
# formula the oracle can only approximate. The first three hold on every
# initial track for nearly every seed. `<~B><D> true` holds on a track
# only if the track can still be extended within the bound, so it fails
# on the tracks of exactly the bound's length, which the oracle reaches
# last: every seed has one `approximate-false` verdict per structure, and
# an oracle that skipped the longest tracks would answer it wrongly.
ORACLE_FORMULAS = (
    "<A><D> p",
    "<A>(<D> p | <E> q)",
    "<~A><E>(q | <A> p)",
    "[~E] true",
    "<~B><D> true",
)

_ALL_BUSY = "!r0 & !r1 & !e0 & !e1"
# Universal-fragment formulas for the descriptor engine on the bundled
# scheduler; their verdicts are checked against the track automata.
SCHED_DESCRIPTOR = ("[E] !(e0 & e1)", "[B] !(e0 & e1)", "[~A][E](r0 -> !e1)")
SCHED_DESCRIPTOR_TINY = ("[A] !(e0 & e1)",)
# Class-engine formulas with the verdicts the test suite asserts for them.
SCHED_CLASS = (
    ("[A](r0 -> <A> e0 | <A><A> e0)", "holds"),
    (f"[A](r0 & r1 -> [A](e0 | e1 | ({_ALL_BUSY})))", "holds"),
    (f"[A](r0 -> [A](e0 | ({_ALL_BUSY})))", "fails"),
    ("x0 -> <~B> x0", "holds"),
)

_MAX_DRAWS = 10_000


@dataclass
class Instance:
    """One check: its input, its CLI arguments once written, and the data
    its verification needs."""

    name: str
    kind: str
    formula: str = ""
    cnf: tuple = ()
    num_vars: int = 0
    prefix: tuple = ()
    expected: str = ""
    bound: int = 0
    # The DIMACS, QDIMACS or Kripke text `write` puts in `file`; none for
    # the bundled scheduler. Oracle instances of one structure share it.
    file: str = ""
    text: str = ""
    argv: list = field(default_factory=list)
    model_path: str = ""


def draw(workload: str, seed: int, tiny: bool = False):
    """Instances of `workload` for `seed`, not yet written."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "descriptor":
        return _sat(rng, SAT_SIZES_TINY if tiny else SAT_SIZES) + _sched_univ(tiny)
    if workload == "class_oracle":
        return _qbf(rng, QBF_SIZES_TINY if tiny else QBF_SIZES) + _sched_class() + _oracle(rng, tiny)
    raise ValueError(f"unknown workload {workload!r}")


GENERATORS = {"sat": ("gen-sat", "--dimacs"), "qbf": ("gen-qbf", "--qdimacs")}


def write(instances, workdir: Path, cli):
    """Write the instances' files under `workdir` and return the
    instances with their argument lists."""
    workdir.mkdir(parents=True, exist_ok=True)
    scheduler = str(Path(cli.__file__).parent / "data" / "scheduler.kripke")
    written, out = set(), []
    for inst in instances:
        if not inst.file:
            out.append(replace(inst, argv=_check_argv(scheduler, inst.formula), model_path=scheduler))
            continue
        source = workdir / inst.file
        if inst.file not in written:
            source.write_text(inst.text, encoding="utf-8")
            written.add(inst.file)
        if inst.kind not in GENERATORS:
            out.append(replace(inst, argv=_check_argv(str(source), inst.formula, inst.bound), model_path=str(source)))
            continue
        command, flag = GENERATORS[inst.kind]
        model_path = workdir / f"{inst.name}.kripke"
        formula_path = workdir / f"{inst.name}.formula"
        _run_cli(
            cli,
            [command, flag, str(source), "--out-model", str(model_path), "--out-formula", str(formula_path)],
        )
        argv = ["check", "--model", str(model_path), "--formula-file", str(formula_path), "--json"]
        out.append(replace(inst, argv=argv, model_path=str(model_path)))
    return out


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"intervalmc {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")


def _random_clauses(rng, n, m):
    clauses = []
    for _ in range(m):
        chosen = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return tuple(clauses)


def _truth_table(n, clauses):
    """The CNF as a 2^n-bit integer: bit a is set iff assignment a (bit
    v-1 of a is the value of variable v) satisfies every clause."""
    full = (1 << (1 << n)) - 1
    columns = []
    for v in range(n):
        block = 1 << v
        pattern = ((1 << block) - 1) << block  # one period: `block` zeros, `block` ones
        col = 0
        for start in range(0, 1 << n, 2 * block):
            col |= pattern << start
        columns.append(col)
    table = full
    for clause in clauses:
        c = 0
        for lit in clause:
            col = columns[abs(lit) - 1]
            c |= col if lit > 0 else full & ~col
        table &= c
    return table


def _qbf_value(n, prefix, clauses) -> bool:
    """Truth of a prenex QBF, quantifying the truth table innermost first."""
    table = _truth_table(n, clauses)
    size = 1 << n
    for q, v in reversed(prefix):
        block = 1 << (v - 1)
        low = 0
        for start in range(0, size, 2 * block):
            low |= ((1 << block) - 1) << start
        lo, hi = table & low, (table >> block) & low
        table = (lo | hi) if q == "e" else (lo & hi)
    return bool(table & 1)


def _uses_every_variable(n, clauses):
    # The class engine's work doubles with each letter of the formula, so a
    # variable missing from the matrix would halve the instance.
    return len({abs(lit) for clause in clauses for lit in clause}) == n


def _rejection_sample(accept, one):
    for _ in range(_MAX_DRAWS):
        value = one()
        if accept(value):
            return value
    raise RuntimeError("no draw with the requested truth value")


def _sat(rng, sizes):
    out = []
    for n, unsat in sizes:
        unsat_names = [f"sat-n{n}-unsat"] + [f"sat-n{n}-unsat{k}" for k in range(2, unsat + 1)]
        for name, m in [(f"sat-n{n}-sat", 2 * n)] + [(u, 6 * n) for u in unsat_names]:
            want = name.endswith("-sat")
            clauses = _rejection_sample(
                lambda cl: bool(_truth_table(n, cl)) == want,
                lambda: _random_clauses(rng, n, m),
            )
            text = f"c {name}\np cnf {n} {m}\n" + "".join(
                " ".join(map(str, cl)) + " 0\n" for cl in clauses
            )
            out.append(Instance(name, "sat", cnf=clauses, num_vars=n, file=f"{name}.cnf", text=text))
    return out


def _qbf(rng, sizes):
    out = []
    for n in sizes:
        for want in (True, False):

            def one():
                order = list(range(1, n + 1))
                rng.shuffle(order)
                kinds = ["a"] * (n // 2) + ["e"] * (n - n // 2)
                rng.shuffle(kinds)
                prefix = tuple(zip(kinds, order))
                return prefix, _random_clauses(rng, n, n)

            prefix, clauses = _rejection_sample(
                lambda d: _uses_every_variable(n, d[1]) and _qbf_value(n, *d) == want,
                one,
            )
            name = f"qbf-n{n}-{'true' if want else 'false'}"
            quant = "".join(f"{q} {v} 0\n" for q, v in prefix)
            text = f"c {name}\np cnf {n} {n}\n{quant}" + "".join(
                " ".join(map(str, cl)) + " 0\n" for cl in clauses
            )
            out.append(
                Instance(name, "qbf", cnf=clauses, num_vars=n, prefix=prefix, file=f"{name}.qdimacs", text=text)
            )
    return out


def _sched_univ(tiny):
    formulas = SCHED_DESCRIPTOR_TINY if tiny else SCHED_DESCRIPTOR
    return [Instance(f"sched-univ-{i}", "sched-univ", text) for i, text in enumerate(formulas)]


def _sched_class():
    return [
        Instance(f"sched-class-{i}", "sched-class", text, expected=expected)
        for i, (text, expected) in enumerate(SCHED_CLASS)
    ]


def _regular_edges(rng, states, degree):
    """Edges of a random digraph in which every state has `degree` distinct
    successors and `degree` distinct predecessors: the union of `degree`
    permutations that never agree on a state."""
    rows = []
    while len(rows) < degree:
        perm = states[:]
        rng.shuffle(perm)
        if all(perm[i] != row[i] for row in rows for i in range(len(states))):
            rows.append(perm)
    return sorted((s, row[i]) for i, s in enumerate(states) for row in rows)


def _check_argv(model_path, formula, bound=0):
    argv = ["check", "--model", model_path, "--formula", formula, "--json"]
    if bound:
        argv += ["--bound", str(bound)]
    return argv


def _oracle(rng, tiny):
    degree = ORACLE_DEGREE_TINY if tiny else ORACLE_DEGREE
    bound = ORACLE_BOUND_TINY if tiny else ORACLE_BOUND
    out = []
    for size in ORACLE_STATES_TINY if tiny else ORACLE_STATES:
        states = [f"s{i}" for i in range(size)]
        lines = [f"ap: {' '.join(ORACLE_LETTERS)}", "init: s0"]
        for s in states:
            # The initial state carries every letter, which makes the
            # first four formulas true on every initial track for nearly
            # every seed: each check then enumerates all of them, and the
            # verdict mix (and with it the work) does not change with the
            # seed.
            letters = ORACLE_LETTERS if s == "s0" else [p for p in ORACLE_LETTERS if rng.random() < 0.55]
            lines.append(f"state {s}:" + "".join(f" {p}" for p in letters))
        lines += [f"edge: {a} {b}" for a, b in _regular_edges(rng, states, degree)]
        text = "\n".join(lines) + "\n"
        out += [
            Instance(f"oracle-w{size}-f{i}", "oracle", formula, bound=bound, file=f"oracle-w{size}.kripke", text=text)
            for i, formula in enumerate(ORACLE_FORMULAS)
        ]
    return out
