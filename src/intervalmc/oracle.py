"""Bounded-domain track semantics by direct enumeration.

Every quantifier ranges over tracks of length at most the bound, the bound
applying uniformly to nested quantifiers as well. For existential-fragment
formulas a bounded `true` is exact; for universal-fragment formulas a
bounded `false` is exact. The implementation favours being obviously
correct over speed: it enumerates quantified tracks outright and is only
meant for small bounds. `tracknfa` provides the scalable counterpart for
the positive diamond fragment.

An evaluator adds each formula it sees to one `logic.FormulaTable`, whose
hash-consed nodes `(kind, a, b)` it evaluates. Every node but a constant
has its own memo keyed by the track, or by the last (`<A>`) or first
(`<~A>`) state, on which alone those two depend. `<B>` ranges over
prefixes, `<E>` over suffixes, and the other four modalities over
extensions up to the bound, produced by one depth-first walker for both
directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import logic
from .errors import BoundTooSmall
from .logic import And, Const, Implies, Modality, Not, Or, Prop
from .model import KripkeStructure, Track, enumerate_tracks, track_label

_A, _ABAR, _B, _E, _BBAR = Modality.A, Modality.ABAR, Modality.B, Modality.E, Modality.BBAR


@dataclass(frozen=True)
class BoundedVerdict:
    value: bool
    bound: int
    failing_track: Optional[Track] = None
    # Initial tracks evaluated: all of them, or up to the failing one.
    initial_tracks: int = 0


def default_bound(K: KripkeStructure, phi) -> int:
    """(modal node count + 1) * (2 + |W|^2): long enough that bounded truth
    saturates for the existential fragment (one witness stretch per modal
    node, plus the track itself).
    """
    return (logic.modal_count(phi) + 1) * (2 + len(K.states) ** 2)


class BoundedEvaluator:
    """Memoized evaluation of desugared formulas over tracks."""

    def __init__(self, K: KripkeStructure, bound: int):
        if bound < 2:
            raise ValueError("bound must be at least 2")
        self.K = K
        self.bound = bound
        self._table = logic.FormulaTable()
        self._nodes = self._table.nodes
        self._memo: list = []

    def compile(self, phi) -> int:
        """Node id of `phi`, adding it and its subformulas on first use."""
        root = self._table.add(phi)
        # Per formula, not per new node: a refused formula leaves its nodes.
        if not self._table.desugared[root]:
            raise ValueError("bounded evaluation expects a desugared formula")
        self._memo += [{} for _ in range(len(self._memo), len(self._nodes))]
        return root

    def eval(self, rho: Track, phi) -> bool:
        rho = tuple(rho)
        if len(rho) > self.bound:
            raise BoundTooSmall(f"track of length {len(rho)} exceeds bound {self.bound}")
        return self._value(self.compile(phi), rho)

    def _value(self, i: int, rho: Track) -> bool:
        """Truth of node `i` on the track `rho`, of length at most the bound."""
        kind, a, b = self._nodes[i]
        if kind is Const:
            return a
        key = rho[-1] if kind is _A else rho[0] if kind is _ABAR else rho
        memo = self._memo[i]
        out = memo.get(key)
        if out is not None:
            return out
        if kind is Prop:
            out = a in track_label(self.K, rho)
        elif kind is Not:
            out = not self._value(a, rho)
        elif kind is And:
            out = self._value(a, rho) and self._value(b, rho)
        elif kind is Or:
            out = self._value(a, rho) or self._value(b, rho)
        elif kind is Implies:
            out = not self._value(a, rho) or self._value(b, rho)
        else:
            if kind is _B:
                domain = (rho[:j] for j in range(2, len(rho)))
            elif kind is _E:
                domain = (rho[j:] for j in range(1, len(rho) - 1))
            elif kind is _A or kind is _ABAR:
                domain = self._walk((key,), kind is _A)
            else:
                domain = self._walk(rho, kind is _BBAR)
            out = not b
            for t in domain:
                if self._value(a, t) == b:
                    out = b
                    break
        memo[key] = out
        return out

    def _walk(self, track, forward: bool):
        """Every extension of `track` by one or more states, to the right if
        `forward` and to the left otherwise, up to the bound: depth first,
        each extension before its own, in the order of `K`'s successors
        (predecessors)."""
        bound, K = self.bound, self.K
        stack = []
        t = track
        while True:
            if len(t) < bound:
                if forward:
                    stack += [t + (w,) for w in reversed(K.successors(t[-1]))]
                else:
                    stack += [(w,) + t for w in reversed(K.predecessors(t[0]))]
            if not stack:
                return
            t = stack.pop()
            yield t


def eval_bounded(K: KripkeStructure, rho: Track, phi, bound: int) -> bool:
    """Truth of a desugared formula on one track under the bounded semantics."""
    return BoundedEvaluator(K, bound).eval(rho, phi)


def model_check_bounded(K: KripkeStructure, phi, bound: int) -> BoundedVerdict:
    """Conjunction of the bounded evaluation over all initial tracks of
    length at most the bound.
    """
    ev = BoundedEvaluator(K, bound)
    root = ev.compile(phi)
    count = 0
    for rho in enumerate_tracks(K, bound, start=K.init):
        count += 1
        if not ev._value(root, rho):
            return BoundedVerdict(False, bound, rho, count)
    return BoundedVerdict(True, bound, None, count)
