"""The formula text layer (`_tokens`, `parse_formula`, `to_text`, `desugar`)
against a recursive-descent reference, and on inputs nested deeper than the
interpreter's recursion limit."""

import json
import random
import time

import pytest

from intervalmc.cli import main
from intervalmc.errors import ParseError, UnknownModality
from intervalmc.logic import (
    FALSE,
    TRUE,
    And,
    Box,
    Const,
    Diamond,
    FormulaTable,
    Implies,
    Modality,
    Not,
    Or,
    Prop,
    classify,
    desugar,
    parse_formula,
    to_text,
)
from intervalmc.reductions import build_sat_instance, parse_dimacs

from _instances import random_hs_formula, rng_for

# ---------------------------------------------------------------------------
# Reference: the recursive-descent lexer, parser, printer and desugaring the
# text layer replaced, kept verbatim in behaviour.

_REF_MODS = {m.text: m for m in Modality}


class _RefLexer:
    def __init__(self, text):
        self.text = text
        self.tokens = []
        self._scan()
        self.index = 0

    def _scan(self):
        text, n = self.text, len(self.text)
        i = 0
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c in "()!&|":
                self.tokens.append((c, c, i))
                i += 1
            elif c == "-":
                if i + 1 < n and text[i + 1] == ">":
                    self.tokens.append(("->", "->", i))
                    i += 2
                else:
                    raise ParseError("expected '->'", column=i + 1)
            elif c in "<[":
                close = ">" if c == "<" else "]"
                j = text.find(close, i + 1)
                if j < 0:
                    raise ParseError(f"unterminated modality starting with {c!r}", column=i + 1)
                inner = text[i + 1 : j].replace(" ", "")
                if inner not in _REF_MODS:
                    raise UnknownModality(f"unknown modality {inner!r}", column=i + 1)
                self.tokens.append(("diamond" if c == "<" else "box", inner, i))
                i = j + 1
            elif c.isalpha() or c == "_":
                j = i + 1
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                self.tokens.append((word if word in ("true", "false") else "ident", word, i))
                i = j
            else:
                raise ParseError(f"unexpected character {c!r}", column=i + 1)

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return ("eof", "", len(self.text))

    def take(self):
        tok = self.peek()
        self.index += 1
        return tok


def _ref_parse(text):
    lex = _RefLexer(text)
    phi = _ref_implies(lex)
    kind, value, pos = lex.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {value!r}", column=pos + 1)
    return phi


def _ref_implies(lex):
    left = _ref_or(lex)
    if lex.peek()[0] == "->":
        lex.take()
        return Implies(left, _ref_implies(lex))
    return left


def _ref_or(lex):
    phi = _ref_and(lex)
    while lex.peek()[0] == "|":
        lex.take()
        phi = Or(phi, _ref_and(lex))
    return phi


def _ref_and(lex):
    phi = _ref_unary(lex)
    while lex.peek()[0] == "&":
        lex.take()
        phi = And(phi, _ref_unary(lex))
    return phi


def _ref_unary(lex):
    kind, value, _ = lex.peek()
    if kind == "!":
        lex.take()
        return Not(_ref_unary(lex))
    if kind in ("diamond", "box"):
        lex.take()
        return (Diamond if kind == "diamond" else Box)(_REF_MODS[value], _ref_unary(lex))
    return _ref_atom(lex)


def _ref_atom(lex):
    kind, value, pos = lex.take()
    if kind == "true":
        return TRUE
    if kind == "false":
        return FALSE
    if kind == "ident":
        return Prop(value)
    if kind == "(":
        phi = _ref_implies(lex)
        k, _, p = lex.take()
        if k != ")":
            raise ParseError("expected ')'", column=p + 1)
        return phi
    raise ParseError(f"missing operand (found {value or kind!r})", column=pos + 1)


def _ref_atomic(phi):
    return isinstance(phi, (Prop, Const))


def _ref_to_text(phi):
    if isinstance(phi, Prop):
        return phi.name
    if isinstance(phi, Const):
        return "true" if phi.value else "false"
    if isinstance(phi, Not):
        return "!" + (_ref_to_text(phi.sub) if _ref_atomic(phi.sub) else f"({_ref_to_text(phi.sub)})")
    if isinstance(phi, (Diamond, Box)):
        op = f"<{phi.mod.text}>" if isinstance(phi, Diamond) else f"[{phi.mod.text}]"
        sub = _ref_to_text(phi.sub)
        return f"{op} {sub}" if _ref_atomic(phi.sub) else f"{op}({sub})"
    if isinstance(phi, And):
        return f"{_ref_operand(phi.left, And)} & {_ref_operand(phi.right, None)}"
    if isinstance(phi, Or):
        return f"{_ref_operand(phi.left, Or)} | {_ref_operand(phi.right, None)}"
    lhs = f"({_ref_to_text(phi.left)})" if isinstance(phi.left, Implies) else _ref_to_text(phi.left)
    return f"{lhs} -> {_ref_to_text(phi.right)}"


def _ref_operand(phi, left_of):
    if _ref_atomic(phi) or isinstance(phi, Not) or (left_of is not None and isinstance(phi, left_of)):
        return _ref_to_text(phi)
    return f"({_ref_to_text(phi)})"


_REF_SUGAR = {
    Modality.L: (Modality.A, Modality.A),
    Modality.D: (Modality.B, Modality.E),
    Modality.O: (Modality.E, Modality.BBAR),
    Modality.LBAR: (Modality.ABAR, Modality.ABAR),
    Modality.DBAR: (Modality.BBAR, Modality.EBAR),
    Modality.OBAR: (Modality.B, Modality.EBAR),
}


def _ref_desugar(phi):
    if isinstance(phi, (Prop, Const)):
        return phi
    if isinstance(phi, Not):
        return Not(_ref_desugar(phi.sub))
    if isinstance(phi, (And, Or, Implies)):
        return type(phi)(_ref_desugar(phi.left), _ref_desugar(phi.right))
    sub = _ref_desugar(phi.sub)
    if phi.mod.primitive:
        return type(phi)(phi.mod, sub)
    outer, inner = _REF_SUGAR[phi.mod]
    return type(phi)(outer, type(phi)(inner, sub))


# ---------------------------------------------------------------------------
# Differential tests


def _outcome(fn, arg):
    try:
        return ("ok", fn(arg))
    except ParseError as exc:
        return (type(exc), str(exc), exc.column)


# Tokens an operand may start with, tokens that may follow one, and
# malformed tokens, whitespace and non-ASCII letters and digits (`é` and `ß`
# are letters, `²` and `١` digits to `isalnum`); each also with a space.
_ATOM = ["p", "q", "x1", "_a", "true", "false", "truex"]
_OPERAND = _ATOM + ["!", "(", "<A>", "[B]", "<~E>", "[~A]", "<L>", "[~O]", "< ~ D >"]
_OPERATOR = ["&", "|", "->", ")"]
_ODD = ["-", ">", "]", "<", "[", "~", "<X>", "<A", "[\tA]", "$", "-->", "<>", "[]"]
_ODD += [" ", "\t", "\n", "é", "²", "ß", "١", "xé²", "π"]
_OPERAND, _OPERATOR, _ODD = ([t + s for t in pool for s in ("", " ")] for pool in (_OPERAND, _OPERATOR, _ODD))
_ANY = _OPERAND + _OPERATOR
# Whether an operand is expected after a piece.
_THEN_OPERAND = {t: t.strip() not in _ATOM and t.strip() != ")" for t in _ANY + _ODD}


def _token_string(rng):
    """Mostly follows the grammar, so that parses also fail late and deep."""
    rand, parts, operand = rng.random, [], True
    for _ in range(int(rand() * 25)):
        r = rand()
        pool = _ODD if r < 0.03 else _ANY if r < 0.1 else _OPERAND if operand else _OPERATOR
        parts.append(pool[int(rand() * len(pool))])
        operand = _THEN_OPERAND[parts[-1]]
    if rand() < 0.7:  # finish the operand and close the parentheses
        parts.append(_ATOM[int(rand() * len(_ATOM))] if operand else "")
        parts.append(")" * (parts.count("(") + parts.count("( ") - parts.count(")") - parts.count(") ")))
    return "".join(parts)


def test_parser_matches_recursive_descent_on_random_token_strings():
    rng = random.Random(20161)
    seen = set()
    for _ in range(50_000):
        text = _token_string(rng)
        want = _outcome(_ref_parse, text)
        assert _outcome(parse_formula, text) == want, text
        seen.add("ok" if want[0] == "ok" else want[1])
    # The strings reach every way the lexer and the parser can end.
    ends = ("ok", "missing operand", "unexpected trailing input", "expected ')'", "expected '->'")
    for end in ends + ("unterminated modality", "unknown modality", "unexpected character"):
        assert any(outcome.startswith(end) for outcome in seen), end


_SUGARED = {
    Modality.A: Modality.L,
    Modality.B: Modality.D,
    Modality.E: Modality.O,
    Modality.ABAR: Modality.LBAR,
    Modality.BBAR: Modality.DBAR,
    Modality.EBAR: Modality.OBAR,
}


def _with_sugar(rng, phi):
    """`phi` with some of its modalities replaced by sugared ones."""
    if isinstance(phi, (Prop, Const)):
        return phi
    if isinstance(phi, Not):
        return Not(_with_sugar(rng, phi.sub))
    if isinstance(phi, (And, Or, Implies)):
        return type(phi)(_with_sugar(rng, phi.left), _with_sugar(rng, phi.right))
    mod = _SUGARED[phi.mod] if rng.random() < 0.4 else phi.mod
    return type(phi)(mod, _with_sugar(rng, phi.sub))


def test_printer_and_desugar_match_the_recursive_versions():
    rng = rng_for("text-layer")
    for _ in range(5_000):
        phi = _with_sugar(rng, random_hs_formula(rng, ("p", "q"), rng.randint(0, 5)))
        for f in (phi, _ref_desugar(phi)):
            text = to_text(f)
            assert text == _ref_to_text(f)
            assert parse_formula(text) == f
        assert desugar(phi) == _ref_desugar(phi)


def test_desugar_keeps_unchanged_subformulas():
    phi = parse_formula("(p & <A> q) | <L> r")
    out = desugar(phi)
    assert out.left is phi.left
    assert out.right == parse_formula("<A><A> r")
    primitive = parse_formula("[A](p -> <~B> q)")
    assert desugar(primitive) is primitive


# ---------------------------------------------------------------------------
# Depth beyond the recursion limit


def _same(a, b):
    # `==` on formulas recurses; equal formulas share one table id.
    table = FormulaTable()
    return table.add(a) == table.add(b)


def _nested(prefix, depth, suffix=""):
    """`prefix` nested `depth` deep over p, as text and as a built AST."""
    phi = Prop("p")
    for _ in range(depth):
        phi = Not(phi) if prefix == "!" else Box(Modality.A, phi)
    return prefix * depth + "p" + suffix * depth, phi


@pytest.mark.parametrize("prefix, depth, suffix", [("!", 5000, ""), ("[A](", 3000, ")")], ids=["not", "box"])
def test_deep_text_needs_no_recursion(prefix, depth, suffix):
    text, want = _nested(prefix, depth, suffix)
    started = time.perf_counter()
    phi = parse_formula(text)
    printed = to_text(phi)
    plain = desugar(phi)
    frag = classify(plain)
    assert time.perf_counter() - started < 1.0
    assert _same(phi, want) and _same(plain, want) and _same(parse_formula(printed), want)
    assert frag.prop == (prefix == "!") and frag.forall_aabe


def test_gen_sat_on_5000_clauses(tmp_path, capsys):
    rng = random.Random(5000)
    lines = ["p cnf 10 5000"]
    for _ in range(5000):
        chosen = rng.sample(range(1, 11), 3)
        lines.append(" ".join(str(v if rng.random() < 0.5 else -v) for v in chosen) + " 0")
    text = "\n".join(lines) + "\n"
    dimacs = tmp_path / "big.cnf"
    dimacs.write_text(text)
    model, formula = tmp_path / "big.kripke", tmp_path / "big.formula"
    started = time.perf_counter()
    code = main(["gen-sat", "--dimacs", str(dimacs), "--out-model", str(model), "--out-formula", str(formula)])
    assert code == 0
    phi = parse_formula(formula.read_text())
    assert time.perf_counter() - started < 1.0
    assert _same(phi, build_sat_instance(parse_dimacs(text))[1])
    capsys.readouterr()


def test_check_class_engine_on_5000_negations(kequiv_path, capsys):
    # An even number of negations: the verdict and counterexample of `p`.
    def check(formula):
        argv = ["check", "--model", str(kequiv_path), "--formula", formula, "--engine", "class", "--json"]
        code = main(argv)
        report = json.loads(capsys.readouterr().out)
        report["stats"].pop("time_ms")
        return code, report

    started = time.perf_counter()
    deep = check("!" * 5000 + "p")
    assert time.perf_counter() - started < 1.0
    assert deep == check("p") and deep[0] == 1
