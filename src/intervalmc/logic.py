"""Formula AST and its hash-consed node table (`FormulaTable`), parser,
desugaring, fragment classification, dualization, propositional
evaluation over descriptor elements, and the compiler of propositional
formulas into tests on letter bitmasks (`compile_prop`).

Surface syntax: letters (`_` or a Unicode letter, then `_`, letters and
digits: `pé²` is one, and it reads false, as no structure declares it),
constants `true`/`false`, connectives `!`, `&`, `|`, `->` (right-associative),
and modalities `<A>`, `[A]`, ..., with `~` marking inverses (`<~B>`, `[~A]`).
Precedence: unary operators bind tightest, then `&`, then `|`, then `->`.

A check builds one `FormulaTable`, which sets each node's fragment flags
as it adds the node: `classify` reads them, `FormulaTable.dual` adds the
dual next to the formula, and the engines compile a root's nodes. Each
takes a `TableNode` or a formula, for which it builds a table.
The parser, the printer, desugaring, the table, dualization and
`compile_prop` keep explicit stacks, so nesting depth costs no recursion.
Every propositional evaluation goes through `compile_prop`: `val` over a
descriptor element's label mask, `reductions.brute_sat` over assignments,
and the engines' leaves over the label masks of a `KripkeStructure`.
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
        kind = type(node)
        if kind in _BINARY:
            stack.append(node.left)
            stack.append(node.right)
        elif kind in _UNARY:
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


# One bit per modality, for the modality masks of `FormulaTable.mods`.
_BIT = {m: 1 << k for k, m in enumerate(Modality)}
_SUGARED = sum(bit for m, bit in _BIT.items() if not m.primitive)
_EXISTS_MODS = frozenset({Modality.A, Modality.B, Modality.E, Modality.ABAR})
_AB_MODS = frozenset({Modality.A, Modality.BBAR})


class FormulaTable:
    """Hash-consed formulas: node `i` is `(kind, a, b)`, that is `(Prop,
    name, None)`, `(Const, value, None)`, `(Not, sub, None)`, `(And|Or|Implies,
    left, right)` or `(modality, sub, is_diamond)`, with child ids below `i`.
    Keyed by these tuples, equal subformulas share one id and no formula is
    hashed; built over `subformulas`, depth costs no recursion. `add` is
    also the lookup: a formula the table holds gets its id and adds nothing.

    A node's facts are set as it is added: `formulas[i]` is a formula of
    it, `mods[i]` the mask of its modalities, `prop[i]` says it has none,
    `desugared[i]` no sugared one, and `exists[i]` (`forall[i]`) that it
    is in ExistsAABE (ForallAABE)."""

    def __init__(self):
        self.nodes: list = []
        self.formulas: list = []
        self.mods: list = []
        self.prop: list = []
        self.desugared: list = []
        self.exists: list = []
        self.forall: list = []
        self._ids: dict = {}

    def add(self, phi) -> int:
        """Id of `phi`, adding it and its subformulas on first use."""
        ids = []
        for f in subformulas(phi):
            kind = type(f)
            if kind is Prop:
                node = (Prop, f.name, None)
            elif kind is Const:
                node = (Const, f.value, None)
            elif kind is Not:
                node = (Not, ids.pop(), None)
            elif kind in _MODAL:
                node = (f.mod, ids.pop(), kind is Diamond)
            elif kind in _BINARY:
                b, a = ids.pop(), ids.pop()
                node = (kind, a, b)
            else:
                raise TypeError(f"not a formula node: {f!r}")
            ids.append(self._add(node, f))
        return ids.pop()

    def _add(self, node, f) -> int:
        """Id of `node`, added with the formula `f` and its facts on first use."""
        i = self._ids.get(node)
        if i is not None:
            return i
        kind, a, b = node
        mods, exists, forall = self.mods, self.exists, self.forall
        m = 0 if kind is Prop or kind is Const else mods[a] | (mods[b] if kind in _BINARY else _BIT.get(kind, 0))
        e = not m or (kind is Or and exists[a] and exists[b]) or (b is True and kind in _EXISTS_MODS and exists[a])
        fa = not m or (kind is And and forall[a] and forall[b]) or (b is False and kind in _EXISTS_MODS and forall[a])
        i = self._ids[node] = len(self.nodes)
        self.nodes.append(node)
        self.formulas.append(f)
        mods.append(m)
        self.prop.append(not m)
        self.desugared.append(not m & _SUGARED)
        exists.append(e)
        forall.append(fa)
        return i

    def modalities(self, i: int) -> frozenset:
        """The modalities in node `i`."""
        return frozenset(m for m, bit in _BIT.items() if self.mods[i] & bit)

    def below(self, root: int) -> list:
        """Ids of node `root` and of every node below it, in increasing order."""
        seen = bytearray(root + 1)
        seen[root] = 1
        for i in range(root, -1, -1):
            kind, a, b = self.nodes[i]
            if seen[i] and kind is not Prop and kind is not Const:
                seen[a] = seen[b if kind in _BINARY else a] = 1
        return [i for i in range(root + 1) if seen[i]]

    def dual(self, root: int) -> int:
        """Id of the negation of the ForallAABE node `root` as an ExistsAABE
        node: boxes become diamonds, `&` becomes `|`, and each maximal
        Boolean operand `x` becomes `!x`, or `y` if it is `!y`. One walk
        over the modal skeleton adds a node per skeleton node, so a Boolean
        root costs O(1). NotInFragment outside ForallAABE."""
        if not self.forall[root]:
            raise NotInFragment(f"{type(self.formulas[root]).__name__} node outside the ForallAABE fragment")
        nodes, formulas, duals, stack = self.nodes, self.formulas, {}, [root]
        while stack:
            i = stack[-1]
            kind, a, b = nodes[i]
            if self.prop[i]:
                duals[i] = a if kind is Not else self._add((Not, i, None), Not(formulas[i]))
            elif kind is And:
                if a not in duals or b not in duals:
                    stack += [c for c in (a, b) if c not in duals]
                    continue
                x, y = duals[a], duals[b]
                duals[i] = self._add((Or, x, y), Or(formulas[x], formulas[y]))
            elif a in duals:  # a box over A, B, E or ~A
                duals[i] = self._add((kind, duals[a], True), Diamond(kind, formulas[duals[a]]))
            else:
                stack.append(a)
                continue
            stack.pop()
        return duals[root]


class TableNode(Record):
    """Node `id` of a `FormulaTable`: `classify`, `negate_to_exists` and
    the engines take one in place of a formula, and work on its table."""

    __slots__ = ("table", "id")

    def __init__(self, table: FormulaTable, id: int):
        self.table = table
        self.id = id


def table_node(phi, table: FormulaTable | None = None) -> TableNode:
    """`phi` as a `TableNode`: itself if it is one (of `table`, if given),
    else `phi` added to `table`, or to a new table."""
    if isinstance(phi, TableNode):
        if table is not None and phi.table is not table:
            raise ValueError("a node of another formula table")
        return phi
    table = FormulaTable() if table is None else table
    return TableNode(table, table.add(phi))


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
        kind = type(f)
        if kind in _BINARY:
            b, a = out.pop(), out.pop()
            out.append(f if a is f.left and b is f.right else kind(a, b))
        elif kind is Not:
            a = out.pop()
            out.append(f if a is f.sub else Not(a))
        elif kind in _MODAL:
            a = out.pop()
            if f.mod.primitive:
                out.append(f if a is f.sub else kind(f.mod, a))
            else:
                outer, inner = _SUGAR[f.mod]
                out.append(kind(outer, kind(inner, a)))
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


def classify(phi) -> Fragment:
    """Fragment membership of a desugared formula, or of a `TableNode`:
    the flags its table keeps for the root."""
    node = table_node(phi)
    table, root = node.table, node.id
    if not table.desugared[root]:
        raise ValueError("classify expects a desugared formula")
    mods = table.modalities(root)
    return Fragment(not mods, table.exists[root], table.forall[root], mods <= _AB_MODS, mods)


def negate_to_exists(psi):
    """Equivalent of the negation of a universal-fragment formula, from
    `FormulaTable.dual`: a `TableNode` of the same table for a `TableNode`,
    else a formula. NotInFragment when `psi` is not in ForallAABE."""
    node = table_node(psi)
    dual = node.table.dual(node.id)
    return TableNode(node.table, dual) if node is psi else node.table.formulas[dual]


# ---------------------------------------------------------------------------
# Propositional evaluation


def val(beta: Formula, d: DescriptorElement, K: KripkeStructure) -> bool:
    """Evaluate a Boolean combination over a descriptor element: a letter is
    true iff it labels the endpoints and every interior state, which equals
    its truth on any track the element abstracts.
    """
    mask = -1
    for s in (d.v_in, d.v_fin, *d.interior):
        mask &= K.masks[K.id_of(s)]
    return compile_prop(beta, K.letter_bit)(mask)


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
