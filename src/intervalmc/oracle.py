"""Bounded-domain track semantics by direct enumeration.

Every quantifier ranges over tracks of length at most the bound, the bound
applying uniformly to nested quantifiers as well. For existential-fragment
formulas a bounded `true` is exact; for universal-fragment formulas a
bounded `false` is exact. The implementation favours being obviously
correct over speed: but for the two shortcuts below, it enumerates
quantified tracks outright, and it is only meant for small bounds.
`tracknfa` provides the scalable counterpart for the positive diamond
fragment.

An evaluator adds each formula it sees to one `logic.FormulaTable`, whose
hash-consed nodes `(kind, a, b)` it evaluates. A node with the same value
on every track (see `compile`) is answered at once. Every other node has
its own memo keyed by the track, or by the last (`<A>`) or first (`<~A>`)
state, on which alone those two depend. `<B>` ranges over prefixes, `<E>`
over suffixes, and the other four modalities over extensions up to the
bound, produced by one depth-first walker for both directions.

`model_check_bounded` evaluates every initial track, except for a root
that depends on the endpoints alone: on initial tracks that is the last
state, so it decides such a root once per reachable last state and
enumerates tracks only to find the first failing one.
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
    # Initial tracks the verdict covers: all of them, or up to and
    # including the failing one; saturating at MAX_COUNT.
    initial_tracks: int = 0


MAX_COUNT = 2**63 - 1


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
        # Per node (see `compile`): its fixed value or None; whether it
        # depends on the endpoints alone.
        self.fixed: list = []
        self.endpoint: list = []

    def compile(self, phi) -> int:
        """Node id of `phi`, adding it and its subformulas on first use.

        A node is fixed when it is a constant, a Boolean node whose fixed
        operands decide it, `[X]` over a fixed-true or `<X>` over a
        fixed-false operand. It depends on the endpoints alone when it is
        fixed, `<A>`/`<~A>`, or a Boolean node over such nodes."""
        root = self._table.add(phi)
        # Per formula, not per new node: a refused formula leaves its nodes.
        if not self._table.desugared[root]:
            raise ValueError("bounded evaluation expects a desugared formula")
        fixed, endpoint = self.fixed, self.endpoint
        for kind, a, b in self._nodes[len(self._memo) :]:
            self._memo.append({})
            if kind is Const:
                f, e = a, True
            elif kind is Prop:
                f, e = None, False
            elif isinstance(kind, Modality):
                # Also on an empty domain, which is why `<X> true` is not fixed.
                f = fixed[a] if fixed[a] is (not b) else None
                e = kind is _A or kind is _ABAR
            else:
                f = _fold(kind, fixed[a], None if kind is Not else fixed[b])
                e = endpoint[a] and (kind is Not or endpoint[b])
            fixed.append(f)
            endpoint.append(e or f is not None)
        return root

    def eval(self, rho: Track, phi) -> bool:
        rho = tuple(rho)
        if len(rho) > self.bound:
            raise BoundTooSmall(f"track of length {len(rho)} exceeds bound {self.bound}")
        return self._value(self.compile(phi), rho)

    def _value(self, i: int, rho: Track) -> bool:
        """Truth of node `i` on the track `rho`, of length at most the bound."""
        out = self.fixed[i]
        if out is not None:
            return out
        kind, a, b = self._nodes[i]
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


def _fold(kind, x, y):
    """Value of a Boolean node from its operands' fixed values (None when
    not fixed), or None when that does not fix it."""
    if kind is Not:
        return None if x is None else not x
    if kind is And:
        return False if False in (x, y) else None if None in (x, y) else True
    if kind is Implies:
        x = _fold(Not, x, None)
    return True if True in (x, y) else None if None in (x, y) else False


def eval_bounded(K: KripkeStructure, rho: Track, phi, bound: int) -> bool:
    """Truth of a desugared formula on one track under the bounded semantics."""
    return BoundedEvaluator(K, bound).eval(rho, phi)


def model_check_bounded(K: KripkeStructure, phi, bound: int) -> BoundedVerdict:
    """Conjunction of the bounded evaluation over all initial tracks of
    length at most the bound.
    """
    ev = BoundedEvaluator(K, bound)
    root = ev.compile(phi)
    endpoint = ev.endpoint[root]
    if endpoint:
        count, tracks = _by_last_state(K, bound)
        failing = {w for w, rho in tracks.items() if not ev._value(root, rho)}
        if not failing:
            return BoundedVerdict(True, bound, None, count)
    count = 0
    for rho in enumerate_tracks(K, bound, start=K.init):
        count += 1
        if (rho[-1] in failing) if endpoint else not ev._value(root, rho):
            return BoundedVerdict(False, bound, rho, count)
    return BoundedVerdict(True, bound, None, count)


def _by_last_state(K: KripkeStructure, bound: int):
    """(number of initial tracks up to the bound, saturating at MAX_COUNT;
    a shortest initial track to each last state they reach), breadth first
    over the number of tracks of each length per last state. Stops early
    once the count is saturated and a step reaches no new last state: no
    later step can then reach one either."""
    total, tracks = 0, {}
    layer = {K.init: 1}
    for _ in range(bound - 1):
        nxt: dict = {}
        seen = len(tracks)
        for v, n in layer.items():
            prefix = tracks.get(v, (v,))
            for w in K.successors(v):
                nxt[w] = min(nxt.get(w, 0) + n, MAX_COUNT)
                if w not in tracks:
                    tracks[w] = prefix + (w,)
        total = min(total + sum(nxt.values()), MAX_COUNT)
        if total == MAX_COUNT and len(tracks) == seen:
            break
        layer = nxt
    return total, tracks
