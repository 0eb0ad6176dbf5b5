"""Propositional evaluation by recursion on the formula, as the package did
it before every such evaluation went through `logic.compile_prop`. It is
the reference that the compiled tests are checked against."""

from intervalmc.errors import NotPropositional
from intervalmc.logic import And, Const, Implies, Not, Or, Prop


def eval_prop(beta, letters) -> bool:
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
