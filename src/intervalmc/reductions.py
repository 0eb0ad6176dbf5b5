"""SAT and QBF instance generators with brute-force truth oracles.

A propositional formula over variables x1..xn maps to a structure whose
initial tracks range over all truth assignments (one chain level per
variable, a top and a bottom state each); checking the negated formula
then fails exactly on the satisfying assignments. A prenex QBF maps to a
structure whose right extensions of the start track choose values level
by level, checked with a formula that alternates right-extension
quantifiers following the prefix.
"""

from __future__ import annotations

import itertools
import warnings

from .errors import NonPrenex, NotPropositional, OutOfRangeLiteral, ParseError, TooManyVariables
from .logic import (
    And,
    Diamond,
    Box,
    FALSE,
    Formula,
    Implies,
    Modality,
    Not,
    Or,
    Prop,
    TRUE,
    compile_prop,
    is_propositional,
    prop_letters,
)
from .model import KripkeStructure, Track, track_label
from .record import Record

_BRUTE_LIMIT = 20


class CnfFormula(Record):
    """Clauses as tuples of nonzero signed variable indices (1-based)."""

    __slots__ = ("num_vars", "clauses")

    def __init__(self, num_vars: int, clauses: tuple):
        for clause in clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > num_vars:
                    raise OutOfRangeLiteral(f"literal {lit} out of range for {num_vars} variables")
        self.num_vars = num_vars
        self.clauses = clauses


class QbfFormula(Record):
    """Prenex quantified Boolean formula; prefix is outermost-first pairs
    of ('e'|'a', variable index) binding every matrix variable once.
    """

    __slots__ = ("prefix", "matrix")

    def __init__(self, prefix: tuple, matrix: CnfFormula):
        seen = set()
        for q, v in prefix:
            if q not in ("e", "a"):
                raise NonPrenex(f"bad quantifier {q!r}")
            if v in seen:
                raise NonPrenex(f"variable {v} quantified twice")
            seen.add(v)
        used = {abs(lit) for clause in matrix.clauses for lit in clause}
        if not used <= seen:
            raise NonPrenex(f"matrix variables {sorted(used - seen)} are unbound")
        self.prefix = prefix
        self.matrix = matrix


def var_name(i: int) -> str:
    return f"x{i}"


def cnf_to_formula(cnf: CnfFormula) -> Formula:
    """Propositional AST of a CNF; the empty CNF is true, an empty clause false."""
    out = None
    for clause in cnf.clauses:
        lit_f = None
        for lit in clause:
            atom = Prop(var_name(abs(lit)))
            term = atom if lit > 0 else Not(atom)
            lit_f = term if lit_f is None else Or(lit_f, term)
        clause_f = FALSE if lit_f is None else lit_f
        out = clause_f if out is None else And(out, clause_f)
    return TRUE if out is None else out


# ---------------------------------------------------------------------------
# DIMACS / QDIMACS parsing


def _plain(line):
    """Whether `line` is ASCII without `_` and `+`. On such a line `int()`
    reads exactly DIMACS numbers: decimal digits with an optional `-`."""
    return line.isascii() and "_" not in line and "+" not in line


def _tokenize_dimacs(text: str):
    header = None
    quant_lines = []
    numbers = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("%"):  # SATLIB's trailer, "%" and then "0", ends the clauses
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ParseError("duplicate problem line", line=lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf" or not _plain(line):
                raise ParseError(f"malformed problem line {line!r}", line=lineno)
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise ParseError(f"malformed problem line {line!r}", line=lineno) from None
            if min(header) < 0:
                raise ParseError(f"malformed problem line {line!r}", line=lineno)
            continue
        if line[0] in "ea":
            if header is None or numbers:
                raise ParseError("quantifier line not between the problem line and the clauses", line=lineno)
            quant_lines.append((lineno, line))
            continue
        if header is None:
            raise ParseError("clause before problem line", line=lineno)
        try:
            if not _plain(line):
                raise ValueError
            numbers.extend((lineno, int(tok)) for tok in line.split())
        except ValueError:
            raise ParseError(f"malformed clause line {line!r}", line=lineno) from None
    if header is None:
        raise ParseError("missing problem line")
    return header, quant_lines, numbers


def _group_clauses(numbers, num_vars):
    clauses = []
    current = []
    for lineno, lit in numbers:
        if lit == 0:
            clauses.append(tuple(current))
            current = []
            continue
        if abs(lit) > num_vars:
            raise OutOfRangeLiteral(f"literal {lit} exceeds {num_vars} variables", line=lineno)
        current.append(lit)
    if current:
        raise ParseError("last clause is not terminated by 0")
    return tuple(clauses)


def parse_dimacs(text: str) -> CnfFormula:
    (num_vars, _), quant_lines, numbers = _tokenize_dimacs(text)
    if quant_lines:
        raise ParseError("quantifier line in a plain DIMACS file", line=quant_lines[0][0])
    return CnfFormula(num_vars, _group_clauses(numbers, num_vars))


def parse_qdimacs(text: str) -> QbfFormula:
    (num_vars, _), quant_lines, numbers = _tokenize_dimacs(text)
    clauses = _group_clauses(numbers, num_vars)
    prefix = []
    for lineno, line in quant_lines:
        parts = line.split()
        kind = parts[0]
        if kind not in ("e", "a") or not _plain(line):
            raise ParseError(f"malformed quantifier line {line!r}", line=lineno)
        try:
            values = [int(tok) for tok in parts[1:]]
        except ValueError:
            raise ParseError(f"malformed quantifier line {line!r}", line=lineno) from None
        if not values or values[-1] != 0:
            raise ParseError("quantifier line is not terminated by 0", line=lineno)
        for v in values[:-1]:
            if v <= 0 or v > num_vars:
                raise OutOfRangeLiteral(f"variable {v} out of range", line=lineno)
            prefix.append((kind, v))
    used = {abs(lit) for clause in clauses for lit in clause}
    free = sorted(used.difference(v for _, v in prefix))
    qbf = QbfFormula(tuple([("e", v) for v in free] + prefix), CnfFormula(num_vars, clauses))
    if free:  # only once QbfFormula has accepted the prefix
        warnings.warn(f"free variables {free} treated as outermost existentials", stacklevel=2)
    return qbf


# ---------------------------------------------------------------------------
# Brute-force truth oracles


def brute_sat(beta) -> bool:
    """Exact satisfiability by truth table (at most 20 variables)."""
    if isinstance(beta, CnfFormula):
        if beta.num_vars > _BRUTE_LIMIT:
            raise TooManyVariables(f"{beta.num_vars} variables exceed the brute-force limit")
        for bits in itertools.product((False, True), repeat=beta.num_vars):
            if _cnf_true(beta, {i + 1: b for i, b in enumerate(bits)}):
                return True
        return False
    if not is_propositional(beta):
        raise NotPropositional("brute_sat expects a propositional formula")
    letters = sorted(prop_letters(beta))
    if len(letters) > _BRUTE_LIMIT:
        raise TooManyVariables(f"{len(letters)} letters exceed the brute-force limit")
    # Assignment m sets bit i when the i-th letter in sorted order is true.
    test = compile_prop(beta, {p: 1 << i for i, p in enumerate(letters)})
    return any(test(m) for m in range(1 << len(letters)))


def _cnf_true(cnf: CnfFormula, assignment) -> bool:
    for clause in cnf.clauses:
        if not any((lit > 0) == assignment[abs(lit)] for lit in clause):
            return False
    return True


def brute_qbf(psi: QbfFormula) -> bool:
    """Exact truth by recursive quantifier expansion (at most 20 variables)."""
    if psi.matrix.num_vars > _BRUTE_LIMIT or len(psi.prefix) > _BRUTE_LIMIT:
        raise TooManyVariables("instance exceeds the brute-force limit")

    def rec(i, assignment):
        if i == len(psi.prefix):
            # QbfFormula binds every matrix variable, so the assignment is total.
            return _cnf_true(psi.matrix, assignment)
        q, v = psi.prefix[i]
        first = rec(i + 1, assignment | {v: True})
        if q == "e" and first:
            return True
        if q == "a" and not first:
            return False
        return rec(i + 1, assignment | {v: False})

    return rec(0, {})


# ---------------------------------------------------------------------------
# Instance generators


def build_sat_instance(beta, variables=None):
    """(structure, formula) pair whose universal check fails exactly when
    `beta` is satisfiable: initial tracks encode assignments (the bottom
    state of level i removes letter xi), and the formula is the negation
    of `beta`.
    """
    if isinstance(beta, CnfFormula):
        variables = [var_name(i) for i in range(1, beta.num_vars + 1)]
        beta = cnf_to_formula(beta)
    if not is_propositional(beta):
        raise NotPropositional("build_sat_instance expects a propositional formula")
    if variables is None:
        variables = sorted(prop_letters(beta))
    variables = list(variables)
    n = len(variables)
    ap = set(variables)
    if n == 0:
        K = KripkeStructure(
            ap=(), states=("w0",), edges={("w0", "w0")}, labels={"w0": ()}, init="w0"
        )
        return K, Not(beta)
    states = ["w0"]
    labels = {"w0": ap}
    edges = set()
    for i in range(1, n + 1):
        top, bot = f"w{i}_T", f"w{i}_F"
        states += [top, bot]
        labels[top] = ap
        labels[bot] = ap - {variables[i - 1]}
        if i == 1:
            edges |= {("w0", top), ("w0", bot)}
        else:
            for a in (f"w{i-1}_T", f"w{i-1}_F"):
                edges |= {(a, top), (a, bot)}
    edges |= {(f"w{n}_T", f"w{n}_T"), (f"w{n}_F", f"w{n}_F")}
    K = KripkeStructure(ap=ap, states=states, edges=edges, labels=labels, init="w0")
    return K, Not(beta)


def decode_sat_assignment(variables, K: KripkeStructure, rho: Track) -> dict:
    """Assignment induced by a track: a variable is true iff it labels
    every state of the track.
    """
    letters = track_label(K, rho)
    return {v: v in letters for v in variables}


def aux_name(i: int) -> str:
    return f"x{i}_aux"


def build_qbf_instance(psi: QbfFormula):
    """(structure, formula) pair equivalent to a prenex QBF: the structure
    holds once, then per-level top/bottom state pairs feeding a sink; the
    formula existentially or universally quantifies right extensions per
    prefix position, using the per-level marker letter to detect depth.
    """
    n = len(psi.prefix)
    variables = [var_name(v) for _, v in psi.prefix]
    var_set = set(variables)
    ap = var_set | {"start"} | {aux_name(v) for _, v in psi.prefix}

    states = ["w0", "w1"]
    labels = {"w0": var_set | {"start"}, "w1": var_set | {"start"}}
    edges = {("w0", "w1"), ("sink", "sink")}
    # prefix[0] is the outermost quantifier; it owns the first level after w1.
    for pos, (_, v) in enumerate(psi.prefix):
        x = var_name(v)
        t1, t2, b1, b2 = (f"w{v}_T1", f"w{v}_T2", f"w{v}_F1", f"w{v}_F2")
        states += [t1, t2, b1, b2]
        labels[t1] = labels[t2] = var_set | {aux_name(v)}
        labels[b1] = labels[b2] = (var_set - {x}) | {aux_name(v)}
        edges |= {(t1, t2), (b1, b2)}
        if pos == 0:
            edges |= {("w1", t1), ("w1", b1)}
        else:
            _, prev = psi.prefix[pos - 1]
            for a in (f"w{prev}_T2", f"w{prev}_F2"):
                edges |= {(a, t1), (a, b1)}
    states.append("sink")
    labels["sink"] = var_set
    if n == 0:
        edges |= {("w1", "sink")}
    else:
        _, last = psi.prefix[-1]
        edges |= {(f"w{last}_T2", "sink"), (f"w{last}_F2", "sink")}
    K = KripkeStructure(ap=ap, states=states, edges=edges, labels=labels, init="w0")

    body = cnf_to_formula(psi.matrix)
    for q, v in reversed(psi.prefix):
        probe = Diamond(Modality.A, Prop(aux_name(v)))
        if q == "e":
            body = Diamond(Modality.BBAR, And(probe, body))
        else:
            body = Box(Modality.BBAR, Implies(probe, body))
    return K, Implies(Prop("start"), body)
