"""Formula AST and its hash-consed node table (`FormulaTable`), parser,
desugaring, fragment classification, dualization, propositional
evaluation over descriptor elements, and the compiler of propositional
formulas into tests on letter bitmasks (`compile_prop`).

Surface syntax (ASCII): letters `[a-zA-Z_][a-zA-Z0-9_]*`, constants
`true`/`false`, connectives `!`, `&`, `|`, `->` (right-associative), and
modalities `<A>`, `[A]`, ..., with `~` marking inverses (`<~B>`, `[~A]`).
Precedence: unary operators bind tightest, then `&`, then `|`, then `->`.

The parser, the printer, desugaring, dualization and `compile_prop` keep
explicit stacks, so nesting depth costs no recursion.
Every propositional evaluation goes through `compile_prop`: `val` over a
descriptor element's label mask, `reductions.brute_sat` over assignments,
and the engines' leaves over the label masks of `K.numbering()`.
"""

from __future__ import annotations

import enum
from typing import Iterator

from .errors import NotInFragment, NotPropositional, ParseError, UnknownModality
from .model import DescriptorElement, KripkeStructure
from .record import Record


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


class Prop(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Const(Record):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value


TRUE = Const(True)
FALSE = Const(False)


class Not(Record):
    __slots__ = ("sub",)

    def __init__(self, sub: Formula):
        self.sub = sub


class And(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right


class Or(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right


class Implies(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right


class Diamond(Record):
    __slots__ = ("mod", "sub")

    def __init__(self, mod: Modality, sub: Formula):
        self.mod = mod
        self.sub = sub


class Box(Record):
    __slots__ = ("mod", "sub")

    def __init__(self, mod: Modality, sub: Formula):
        self.mod = mod
        self.sub = sub


# A union of classes, not `typing.Union`: typing caches every Union it builds,
# which would keep each imported copy of this module alive.
Formula = Prop | Const | Not | And | Or | Implies | Diamond | Box

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


def _tokens(text: str) -> list:
    """Tokens `(kind, value, position)` of `text`, then `("eof", "", len(text))`."""
    tokens, n, i = [], len(text), 0
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()!&|":
            tokens.append((c, c, i))
            i += 1
        elif c == "-":
            if i + 1 < n and text[i + 1] == ">":
                tokens.append(("->", "->", i))
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
            tokens.append(("diamond" if c == "<" else "box", inner, i))
            i = j + 1
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append((word if word in ("true", "false") else "ident", word, i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", column=i + 1)
    tokens.append(("eof", "", n))
    return tokens


# Binding powers on the operator stack: prefix operators 3, `&` 2, `|` 1,
# `->` 0, `(` -1 (reduced only by its `)`), and the stack's bottom -2.
_OPENING = {"!": (3, Not), "diamond": (3, Diamond), "box": (3, Box), "(": (-1, None)}
_BINARY_OPS = {"&": (2, And), "|": (1, Or), "->": (0, Implies)}
_ATOMS = {"true": TRUE, "false": FALSE}


def parse_formula(text: str) -> Formula:
    """Parse surface syntax into an AST; sugar modalities are kept intact.

    One operator-precedence loop over a stack of `(power, constructor,
    first argument)` entries: an operator reduces the entries of at least
    its power (above it for the right-associative `->`) into the operand
    `phi`, then is pushed with `phi` as its left operand."""
    ops = [(-2, None, None)]
    tokens = iter(_tokens(text))
    for kind, value, pos in tokens:
        # Operand position: prefix operators and `(` stack up until an atom.
        if kind in _OPENING:
            ops.append(_OPENING[kind] + (_MOD_BY_TEXT.get(value),))
            continue
        phi = Prop(value) if kind == "ident" else _ATOMS.get(kind)
        if phi is None:
            raise ParseError(f"missing operand (found {value or kind!r})", column=pos + 1)
        # Operator position: a connective, or `)` / end of input.
        for kind, value, pos in tokens:
            power, node = _BINARY_OPS.get(kind, (0, None))
            while ops[-1][0] >= power + (kind == "->"):
                _, make, first = ops.pop()
                phi = make(phi) if first is None else make(first, phi)
            if node is not None:
                ops.append((power, node, phi))
                break
            if kind == ")" and ops[-1][0] == -1:
                ops.pop()
            elif kind == "eof" and len(ops) == 1:
                return phi
            else:
                message = "expected ')'" if ops[-1][0] == -1 else f"unexpected trailing input {value!r}"
                raise ParseError(message, column=pos + 1)


_LEAF = (Prop, Const)
# Infix text and the operand types printed in parentheses on the left and
# on the right: `&` and `|` parse left-associatively, `->` right-associatively.
_WRAP = {And, Or, Implies, Diamond, Box}
_INFIX = {
    And: (" & ", _WRAP - {And}, _WRAP),
    Or: (" | ", _WRAP - {Or}, _WRAP),
    Implies: (" -> ", {Implies}, ()),
}


def to_text(phi: Formula) -> str:
    """Render an AST back to surface syntax (parses back to the same tree),
    in one postorder pass with a stack of operand texts."""
    out: list = []
    for f in subformulas(phi):
        kind = type(f)
        if kind is Prop:
            out.append(f.name)
        elif kind in _INFIX:
            op, wrap_left, wrap_right = _INFIX[kind]
            b, a = out.pop(), out.pop()
            a = f"({a})" if type(f.left) in wrap_left else a
            out.append(a + op + (f"({b})" if type(f.right) in wrap_right else b))
        elif kind is Not:
            a = out.pop()
            out.append("!" + a if isinstance(f.sub, _LEAF) else f"!({a})")
        elif kind is Const:
            out.append("true" if f.value else "false")
        elif kind in _MODAL:
            op = f"<{f.mod.text}>" if kind is Diamond else f"[{f.mod.text}]"
            a = out.pop()
            out.append(f"{op} {a}" if isinstance(f.sub, _LEAF) else f"{op}({a})")
        else:
            raise TypeError(f"not a formula node: {f!r}")
    return out.pop()


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
    """Rewrite L/D/O modalities (and inverses) into the six primitives, in
    one postorder pass; a subformula whose children did not change is kept."""
    out: list = []
    for f in subformulas(phi):
        if isinstance(f, _BINARY):
            b, a = out.pop(), out.pop()
            out.append(f if a is f.left and b is f.right else type(f)(a, b))
        elif isinstance(f, _UNARY):
            a = out.pop()
            if isinstance(f, Not):
                out.append(f if a is f.sub else Not(a))
            elif f.mod.primitive:
                out.append(f if a is f.sub else type(f)(f.mod, a))
            else:
                outer, inner = _SUGAR[f.mod]
                out.append(type(f)(outer, type(f)(inner, a)))
        else:
            out.append(f)
    return out.pop()


# ---------------------------------------------------------------------------
# Fragment classification


class Fragment(Record):
    """Grammar membership flags for a desugared formula."""

    __slots__ = ("prop", "exists_aabe", "forall_aabe", "ab_bar", "modalities")

    def __init__(self, prop: bool, exists_aabe: bool, forall_aabe: bool, ab_bar: bool, modalities: frozenset):
        self.prop = prop
        self.exists_aabe = exists_aabe
        self.forall_aabe = forall_aabe
        self.ab_bar = ab_bar
        self.modalities = modalities

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
    """Equivalent of the negation of a universal-fragment formula: boxes
    become diamonds, conjunctions disjunctions, and each maximal Boolean
    operand is negated whole, as `!x`, or as `y` when it is `!y`. Every
    engine compiles such an operand with `compile_prop`, which pushes the
    negation down. At most doubles the size. NotInFragment when `psi` is
    not in ForallAABE.

    One postorder pass with a stack that holds, per operand, its negation,
    or None while it is Boolean: such an operand is negated only where a
    modal parent needs it, or at the root.
    """
    order = list(subformulas(psi))
    if not any(isinstance(f, _MODAL) for f in order):
        return _not(psi)
    negs: list = []
    for f in order:
        if isinstance(f, _BINARY):
            y, x = negs.pop(), negs.pop()
            if x is None and y is None:
                negs.append(None)
                continue
            if not isinstance(f, And):
                raise _outside(f)
            negs.append(Or(_not(f.left) if x is None else x, _not(f.right) if y is None else y))
        elif isinstance(f, _MODAL):
            x = negs.pop()
            if isinstance(f, Diamond) or f.mod not in _EXISTS_MODS:
                raise _outside(f)
            negs.append(Diamond(f.mod, _not(f.sub) if x is None else x))
        elif isinstance(f, Not):
            if negs[-1] is not None:
                raise _outside(f)
        else:  # a leaf; a non-formula fails where a `FormulaTable` first takes it
            negs.append(None)
    return negs.pop()


def _outside(f) -> NotInFragment:
    return NotInFragment(f"{type(f).__name__} node outside the ForallAABE fragment")


def _not(phi) -> Formula:
    return phi.sub if isinstance(phi, Not) else Not(phi)


# ---------------------------------------------------------------------------
# Propositional evaluation


def val(beta: Formula, d: DescriptorElement, K: KripkeStructure) -> bool:
    """Evaluate a Boolean combination over a descriptor element: a letter is
    true iff it labels the endpoints and every interior state, which equals
    its truth on any track the element abstracts.
    """
    numbering = K.numbering()
    mask = -1
    for s in (d.v_in, d.v_fin, *d.interior):
        mask &= numbering.labels[numbering.ids[s]]
    return compile_prop(beta, numbering.letter_bit)(mask)


# Negation normal form of a binary node: (is a conjunction, left operand
# negated, right operand negated), indexed by whether the node is negated.
_NNF = {
    And: ((True, False, False), (False, True, True)),
    Or: ((False, False, False), (True, True, True)),
    Implies: ((False, True, False), (True, False, True)),
}


def compile_prop(beta: Formula, letter_bit: dict):
    """Compile a Boolean combination into a test on letter masks: `test(m)`
    is its truth when exactly the letters whose `letter_bit` bits `m` sets
    are true. A letter `letter_bit` lacks reads false.

    One pass with an explicit stack puts `beta` in negation normal form
    with its and/or chains flattened. Each and/or node keeps its literals
    as two masks, `pos` and `neg`, and each child that is an or/and of
    literals only as one `(pos, neg)` test, so a CNF becomes one node with
    a list of clause tests; any other child is a node of its own. Nodes are
    listed children first, and the test evaluates them in that order.
    """
    spare = 1 << max(letter_bit.values(), default=1).bit_length()
    program = []
    # Frames [is_and, pos, neg, tests, kids, operands], with the operands
    # still to fold in as (formula, negated) pairs.
    stack = [[True, 0, 0, [], [], [(beta, False)]]]
    while stack:
        frame = stack[-1]
        is_and, operands = frame[0], frame[5]
        if not operands:
            stack.pop()
            _, pos, neg, tests, kids, _ = frame
            if stack and not tests and not kids:
                stack[-1][3].append((pos, neg))
                continue
            program.append((is_and, pos, neg, tuple(tests), tuple(kids)))
            if stack:
                stack[-1][4].append(len(program) - 1)
            continue
        f, negated = operands.pop()
        while type(f) is Not:
            f, negated = f.sub, not negated
        kind = type(f)
        if kind is Prop:
            frame[2 if negated else 1] |= letter_bit.get(f.name, spare)
        elif kind is Const:
            if (f.value != negated) != is_and:
                # false under a conjunction, true under a disjunction:
                # a test that never (always) holds.
                frame[3].append((0, 0))
        elif kind in _NNF:
            conj, neg_left, neg_right = _NNF[kind][negated]
            pair = [(f.left, neg_left), (f.right, neg_right)]
            if conj is is_and:
                operands += pair
            else:
                stack.append([conj, 0, 0, [], [], pair])
        else:
            raise NotPropositional(f"modal node in propositional evaluation: {f!r}")

    def test(m: int) -> bool:
        done = []
        for is_and, pos, neg, tests, kids in program:
            if is_and:
                done.append(
                    m & pos == pos
                    and not m & neg
                    and all(m & p or ~m & n for p, n in tests)
                    and all(done[k] for k in kids)
                )
            else:
                done.append(
                    bool(m & pos or ~m & neg)
                    or any(m & p == p and not m & n for p, n in tests)
                    or any(done[k] for k in kids)
                )
        return done[-1]

    return test
