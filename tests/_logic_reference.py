"""Dualization and classification as they were before the formula table
kept fragment flags: `negate_to_exists`, one postorder pass over the AST,
and `classify`, one pass over a fresh table that marks the ExistsAABE and
ForallAABE nodes. They are the references of the table's `dual` and of
`classify` in `test_formula_table.py`."""

from intervalmc.errors import NotInFragment
from intervalmc.logic import And, Box, Diamond, FormulaTable, Fragment, Implies, Modality, Not, Or, subformulas

_BINARY = (And, Or, Implies)
_MODAL = (Diamond, Box)
_EXISTS_MODS = frozenset({Modality.A, Modality.B, Modality.E, Modality.ABAR})
_AB_MODS = frozenset({Modality.A, Modality.BBAR})


def classify(phi) -> Fragment:
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


def negate_to_exists(psi):
    """Boxes become diamonds, conjunctions disjunctions, and each maximal
    Boolean operand is negated whole, as `!x`, or as `y` when it is `!y`.
    The stack holds, per operand, its negation, or None while it is
    Boolean. NotInFragment when `psi` is not in ForallAABE."""
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
        else:
            negs.append(None)
    return negs.pop()


def _outside(f) -> NotInFragment:
    return NotInFragment(f"{type(f).__name__} node outside the ForallAABE fragment")


def _not(phi):
    return phi.sub if isinstance(phi, Not) else Not(phi)
