"""Formula AST and its hash-consed node table (`FormulaTable`), parser,
desugaring, fragment classification, dualization, and propositional
evaluation over descriptor elements.

Surface syntax (ASCII): letters `[a-zA-Z_][a-zA-Z0-9_]*`, constants
`true`/`false`, connectives `!`, `&`, `|`, `->` (right-associative), and
modalities `<A>`, `[A]`, ..., with `~` marking inverses (`<~B>`, `[~A]`).
Precedence: unary operators bind tightest, then `&`, then `|`, then `->`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Union

from .errors import NotInFragment, NotPropositional, ParseError, UnknownModality
from .model import DescriptorElement, KripkeStructure


class Modality(enum.Enum):
    A = "A"
    B = "B"
    E = "E"
    ABAR = "~A"
    BBAR = "~B"
    EBAR = "~E"
    L = "L"
    D = "D"
    O = "O"
    LBAR = "~L"
    DBAR = "~D"
    OBAR = "~O"

    @property
    def text(self):
        return self.value

    @property
    def primitive(self):
        return self in _PRIMITIVE


_PRIMITIVE = frozenset(
    {Modality.A, Modality.B, Modality.E, Modality.ABAR, Modality.BBAR, Modality.EBAR}
)


@dataclass(frozen=True)
class Prop:
    name: str


@dataclass(frozen=True)
class Const:
    value: bool


TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Diamond:
    mod: Modality
    sub: "Formula"


@dataclass(frozen=True)
class Box:
    mod: Modality
    sub: "Formula"


Formula = Union[Prop, Const, Not, And, Or, Implies, Diamond, Box]

_BINARY = (And, Or, Implies)
_MODAL = (Diamond, Box)
_UNARY = (Not,) + _MODAL


def subformulas(phi: Formula) -> Iterator[Formula]:
    """Postorder traversal (children before parents), duplicates included.

    Collects parents before children, right subtrees first, with an
    explicit stack, and reverses that order; this costs O(size) at any
    depth.
    """
    order = []
    stack = [phi]
    while stack:
        node = stack.pop()
        order.append(node)
        if isinstance(node, _BINARY):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, _UNARY):
            stack.append(node.sub)
    return reversed(order)


def formula_size(phi: Formula) -> int:
    """Number of AST nodes."""
    return sum(1 for _ in subformulas(phi))


def modal_count(phi: Formula) -> int:
    return sum(1 for f in subformulas(phi) if isinstance(f, _MODAL))


def prop_letters(phi: Formula) -> frozenset:
    return frozenset(f.name for f in subformulas(phi) if isinstance(f, Prop))


def is_propositional(phi: Formula) -> bool:
    return not any(isinstance(f, _MODAL) for f in subformulas(phi))


class FormulaTable:
    """Hash-consed formulas: node `i` is `(kind, a, b)`, that is `(Prop,
    name, None)`, `(Const, value, None)`, `(Not, sub, None)`, `(And|Or|Implies,
    left, right)` or `(modality, sub, is_diamond)`, with child ids below `i`.
    Keyed by these tuples, equal subformulas share one id and no formula is
    hashed; built over `subformulas`, depth costs no recursion. `formulas[i]`
    is a formula of node `i`; `prop[i]` says it has no modality and
    `desugared[i]` no sugared one."""

    def __init__(self):
        self.nodes: list = []
        self.formulas: list = []
        self.prop: list = []
        self.desugared: list = []
        self._ids: dict = {}

    def add(self, phi) -> int:
        """Id of `phi`, adding it and its subformulas on first use."""
        return self._walk(phi, True)

    def find(self, phi) -> int:
        """Id of `phi`; KeyError when the table does not hold it."""
        return self._walk(phi, False)

    def _walk(self, phi, add: bool) -> int:
        ids, prop, desugared = [], self.prop, self.desugared
        for f in subformulas(phi):
            if isinstance(f, Prop):
                node, p, d = (Prop, f.name, None), True, True
            elif isinstance(f, Const):
                node, p, d = (Const, f.value, None), True, True
            elif isinstance(f, Not):
                a = ids.pop()
                node, p, d = (Not, a, None), prop[a], desugared[a]
            elif isinstance(f, _BINARY):
                b, a = ids.pop(), ids.pop()
                node, p, d = (type(f), a, b), prop[a] and prop[b], desugared[a] and desugared[b]
            elif isinstance(f, _MODAL):
                a = ids.pop()
                node, p, d = (f.mod, a, isinstance(f, Diamond)), False, f.mod.primitive and desugared[a]
            else:
                raise TypeError(f"not a formula node: {f!r}")
            i = self._ids.get(node) if add else self._ids[node]
            if i is None:
                i = self._ids[node] = len(self.nodes)
                self.nodes.append(node)
                self.formulas.append(f)
                prop.append(p)
                desugared.append(d)
            ids.append(i)
        return ids.pop()


# ---------------------------------------------------------------------------
# Parsing


_MOD_BY_TEXT = {m.text: m for m in Modality}


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
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
                if inner not in _MOD_BY_TEXT:
                    raise UnknownModality(f"unknown modality {inner!r}", column=i + 1)
                kind = "diamond" if c == "<" else "box"
                self.tokens.append((kind, inner, i))
                i = j + 1
            elif c.isalpha() or c == "_":
                j = i + 1
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                if word in ("true", "false"):
                    self.tokens.append((word, word, i))
                else:
                    self.tokens.append(("ident", word, i))
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


def parse_formula(text: str) -> Formula:
    """Parse surface syntax into an AST; sugar modalities are kept intact."""
    lex = _Lexer(text)
    phi = _parse_implies(lex)
    kind, value, pos = lex.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {value!r}", column=pos + 1)
    return phi


def _parse_implies(lex) -> Formula:
    left = _parse_or(lex)
    if lex.peek()[0] == "->":
        lex.take()
        return Implies(left, _parse_implies(lex))
    return left


def _parse_or(lex) -> Formula:
    phi = _parse_and(lex)
    while lex.peek()[0] == "|":
        lex.take()
        phi = Or(phi, _parse_and(lex))
    return phi


def _parse_and(lex) -> Formula:
    phi = _parse_unary(lex)
    while lex.peek()[0] == "&":
        lex.take()
        phi = And(phi, _parse_unary(lex))
    return phi


def _parse_unary(lex) -> Formula:
    kind, value, pos = lex.peek()
    if kind == "!":
        lex.take()
        return Not(_parse_unary(lex))
    if kind in ("diamond", "box"):
        lex.take()
        return (Diamond if kind == "diamond" else Box)(_MOD_BY_TEXT[value], _parse_unary(lex))
    return _parse_atom(lex)


def _parse_atom(lex) -> Formula:
    kind, value, pos = lex.take()
    if kind == "true":
        return TRUE
    if kind == "false":
        return FALSE
    if kind == "ident":
        return Prop(value)
    if kind == "(":
        phi = _parse_implies(lex)
        k, v, p = lex.take()
        if k != ")":
            raise ParseError("expected ')'", column=p + 1)
        return phi
    raise ParseError(f"missing operand (found {value or kind!r})", column=pos + 1)


def _atomic(phi):
    return isinstance(phi, (Prop, Const))


def to_text(phi: Formula) -> str:
    """Render an AST back to surface syntax (parses back to the same tree)."""
    if isinstance(phi, Prop):
        return phi.name
    if isinstance(phi, Const):
        return "true" if phi.value else "false"
    if isinstance(phi, Not):
        return "!" + (to_text(phi.sub) if _atomic(phi.sub) else f"({to_text(phi.sub)})")
    if isinstance(phi, (Diamond, Box)):
        op = f"<{phi.mod.text}>" if isinstance(phi, Diamond) else f"[{phi.mod.text}]"
        return f"{op} {to_text(phi.sub)}" if _atomic(phi.sub) else f"{op}({to_text(phi.sub)})"
    if isinstance(phi, And):
        return f"{_pp_operand(phi.left, And)} & {_pp_operand(phi.right, None)}"
    if isinstance(phi, Or):
        return f"{_pp_operand(phi.left, Or)} | {_pp_operand(phi.right, None)}"
    if isinstance(phi, Implies):
        lhs = f"({to_text(phi.left)})" if isinstance(phi.left, Implies) else to_text(phi.left)
        return f"{lhs} -> {to_text(phi.right)}"
    raise TypeError(f"not a formula node: {phi!r}")


def _pp_operand(phi, left_of) -> str:
    # Binary connectives parse left-associatively, so only a left operand
    # of the same connective may stay bare.
    if _atomic(phi) or isinstance(phi, Not) or (left_of is not None and isinstance(phi, left_of)):
        return to_text(phi)
    return f"({to_text(phi)})"


# ---------------------------------------------------------------------------
# Desugaring

# Rewrites into the six primitive modalities under strict semantics; the
# bounded-oracle equivalence tests exercise each rule against a direct
# implementation of the corresponding interval relation.
_SUGAR = {
    Modality.L: (Modality.A, Modality.A),
    Modality.D: (Modality.B, Modality.E),
    Modality.O: (Modality.E, Modality.BBAR),
    Modality.LBAR: (Modality.ABAR, Modality.ABAR),
    Modality.DBAR: (Modality.BBAR, Modality.EBAR),
    Modality.OBAR: (Modality.B, Modality.EBAR),
}


def desugar(phi: Formula) -> Formula:
    """Rewrite L/D/O modalities (and inverses) into the six primitives."""
    if isinstance(phi, (Prop, Const)):
        return phi
    if isinstance(phi, Not):
        return Not(desugar(phi.sub))
    if isinstance(phi, _BINARY):
        return type(phi)(desugar(phi.left), desugar(phi.right))
    sub = desugar(phi.sub)
    node = type(phi)
    if phi.mod.primitive:
        return node(phi.mod, sub)
    outer, inner = _SUGAR[phi.mod]
    return node(outer, node(inner, sub))


# ---------------------------------------------------------------------------
# Fragment classification


@dataclass(frozen=True)
class Fragment:
    """Grammar membership flags for a desugared formula."""

    prop: bool
    exists_aabe: bool
    forall_aabe: bool
    ab_bar: bool
    modalities: frozenset

    def names(self):
        flags = {"Prop": self.prop, "ExistsAABE": self.exists_aabe, "ForallAABE": self.forall_aabe, "ABbar": self.ab_bar}
        return tuple(name for name, on in flags.items() if on)


_EXISTS_MODS = frozenset({Modality.A, Modality.B, Modality.E, Modality.ABAR})
_AB_MODS = frozenset({Modality.A, Modality.BBAR})


def classify(phi: Formula) -> Fragment:
    """Fragment membership of a desugared formula, from one pass over its
    node table that marks the ExistsAABE and ForallAABE nodes."""
    table = FormulaTable()
    root = table.add(phi)
    if not table.desugared[root]:
        raise ValueError("classify expects a desugared formula")
    exists, forall = [], []
    for prop, (kind, a, b) in zip(table.prop, table.nodes):
        modal = kind in _EXISTS_MODS
        exists.append(prop or (kind is Or and exists[a] and exists[b]) or (modal and b and exists[a]))
        forall.append(prop or (kind is And and forall[a] and forall[b]) or (modal and not b and forall[a]))
    mods = frozenset(kind for kind, _, _ in table.nodes if isinstance(kind, Modality))
    return Fragment(
        prop=not mods,
        exists_aabe=exists[root],
        forall_aabe=forall[root],
        ab_bar=mods <= _AB_MODS,
        modalities=mods,
    )


def negate_to_exists(psi: Formula) -> Formula:
    """Equivalent of the negation of a universal-fragment formula, with
    boxes dualized to diamonds, conjunctions to disjunctions, and negation
    pushed down to the propositional leaves. At most doubles the size.
    NotInFragment when `psi` is not in ForallAABE.

    One postorder pass with a stack that holds, per operand, its negation,
    or None while it is propositional: such an operand is negated only
    where a modal parent needs it, or at the root.
    """
    order = list(subformulas(psi))
    if not any(isinstance(f, _MODAL) for f in order):
        return _neg_prop(psi)
    negs: list = []
    for f in order:
        if isinstance(f, _BINARY):
            y, x = negs.pop(), negs.pop()
            if x is None and y is None:
                negs.append(None)
                continue
            if not isinstance(f, And):
                raise _outside(f)
            negs.append(Or(_neg_prop(f.left) if x is None else x, _neg_prop(f.right) if y is None else y))
        elif isinstance(f, _MODAL):
            x = negs.pop()
            if isinstance(f, Diamond) or f.mod not in _EXISTS_MODS:
                raise _outside(f)
            negs.append(Diamond(f.mod, _neg_prop(f.sub) if x is None else x))
        elif isinstance(f, Not):
            if negs[-1] is not None:
                raise _outside(f)
        else:  # a leaf, or not a formula, which `_neg_prop` refuses
            negs.append(None)
    return negs.pop()


def _outside(f) -> NotInFragment:
    return NotInFragment(f"{type(f).__name__} node outside the ForallAABE fragment")


def _neg_prop(phi) -> Formula:
    if isinstance(phi, Prop):
        return Not(phi)
    if isinstance(phi, Const):
        return FALSE if phi.value else TRUE
    if isinstance(phi, Not):
        return phi.sub
    if isinstance(phi, And):
        return Or(_neg_prop(phi.left), _neg_prop(phi.right))
    if isinstance(phi, Or):
        return And(_neg_prop(phi.left), _neg_prop(phi.right))
    if isinstance(phi, Implies):
        return And(phi.left, _neg_prop(phi.right))
    raise NotPropositional(f"not a propositional node: {phi!r}")


# ---------------------------------------------------------------------------
# Propositional evaluation


def eval_prop(beta: Formula, letters) -> bool:
    """Evaluate a Boolean combination with exactly the given letters true."""
    if isinstance(beta, Prop):
        return beta.name in letters
    if isinstance(beta, Const):
        return beta.value
    if isinstance(beta, Not):
        return not eval_prop(beta.sub, letters)
    if isinstance(beta, And):
        return eval_prop(beta.left, letters) and eval_prop(beta.right, letters)
    if isinstance(beta, Or):
        return eval_prop(beta.left, letters) or eval_prop(beta.right, letters)
    if isinstance(beta, Implies):
        return not eval_prop(beta.left, letters) or eval_prop(beta.right, letters)
    raise NotPropositional(f"modal node in propositional evaluation: {beta!r}")


def val(beta: Formula, d: DescriptorElement, K: KripkeStructure) -> bool:
    """Evaluate a Boolean combination over a descriptor element: a letter is
    true iff it labels the endpoints and every interior state, which equals
    its truth on any track the element abstracts.
    """
    letters = K.labels[d.v_in] & K.labels[d.v_fin]
    for s in d.interior:
        letters = letters & K.labels[s]
    return eval_prop(beta, letters)
