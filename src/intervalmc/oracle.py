"""Bounded-domain track semantics by direct evaluation.

Every quantifier ranges over tracks of length at most the bound, the bound
applying uniformly to nested quantifiers as well. For existential-fragment
formulas a bounded `true` is exact; for universal-fragment formulas a
bounded `false` is exact. The evaluator memoizes each node on the
coarsest key its value depends on and settles the keys it has walked (see
below), but a node that needs the whole track is still evaluated per
track within the bound; `tracknfa` is the scalable counterpart for
positive diamonds.

It evaluates the nodes of one `logic.FormulaTable` over the state ids of `K`,
in a check the table `check` built, and compiles the nodes below a root
only.
A node with one value on every track is answered at once; any other node
depends on the first state, the last state, the length, or the whole track
(see `compile`). One method, `_at`, evaluates every node, memoized on the
coarsest key its value depends on. A leaf, a propositional node, takes the
AND of the states' label masks, tested by `compile_prop`. Any other node
that needs the whole track takes the tuple of state ids: `<B>` and `<E>`
range over prefixes and suffixes, `<~B>` and `<~E>` over every extension
up to the bound, shortest first. Any other node takes (first state, last
state, length), None where it does not depend on that part: `<B>` and
`<E>` range over the shorter lengths; `<A>` and `<~A>` over every track
from the state if the operand needs the whole track; else these, `<~B>`
and `<~E>` walk the states at the moving end breadth first, once per
state, or per state and length if the operand depends on the length
(`_walk`); a `<~B>` or `<~E>` walk that meets no witness settles its node
at every key it walked.

`model_check_bounded` evaluates every initial track, shortest first, if
the root needs the whole track. Otherwise it walks the last states from
the initial state breadth first, counting the initial tracks that end in
each, decides the root once per (last state, length), or per last state if
the length does not matter, and finds the first failing track and its
position by counting tracks instead of enumerating them.
"""

from __future__ import annotations

from functools import reduce
from operator import and_

from . import logic
from .errors import BoundTooSmall
from .logic import And, Const, Implies, Modality, Not, Or, Prop, compile_prop
from .model import KripkeStructure, Track, check_track, extend_tracks
from .model import enumerate_tracks, track_label  # unused; perfbench/tracer.py counts calls through these names
from .record import Record

_A, _ABAR, _B, _E, _BBAR, _EBAR = Modality.A, Modality.ABAR, Modality.B, Modality.E, Modality.BBAR, Modality.EBAR

# The track features a node's value can depend on, as bits. TRACK (the
# whole track) holds every bit, so that it absorbs the others under `|`.
FIRST, LAST, LENGTH = 1, 2, 4
TRACK = 15


class BoundedVerdict(Record):
    # `initial_tracks`: the initial tracks the verdict covers, all of them or
    # up to and including the failing one; saturating at MAX_COUNT.
    __slots__ = ("value", "bound", "failing_track", "initial_tracks")

    def __init__(self, value: bool, bound: int, failing_track: Track | None = None, initial_tracks: int = 0):
        self.value = value
        self.bound = bound
        self.failing_track = failing_track
        self.initial_tracks = initial_tracks


MAX_COUNT = 2**63 - 1


def default_bound(K: KripkeStructure, phi) -> int:
    """(modal node count + 1) * (2 + |W|^2): long enough that bounded truth
    saturates for the existential fragment (one witness stretch per modal
    node, plus the track itself). A `TableNode` counts its formula's."""
    phi = phi.table.formulas[phi.id] if isinstance(phi, logic.TableNode) else phi
    return (logic.modal_count(phi) + 1) * (2 + len(K.states) ** 2)


class BoundedEvaluator:
    """Memoized evaluation of desugared formulas over tracks."""

    def __init__(self, K: KripkeStructure, bound: int):
        if bound < 2:
            raise ValueError("bound must be at least 2")
        self.K = K
        self.bound = bound
        self._table = None  # that of the first formula or `TableNode` compiled
        self._nodes: list = []
        # Per compiled node id (see `compile`): its memo, its fixed value or
        # None, and the features of a track its value depends on.
        self._memo: dict = {}
        self.fixed: dict = {}
        self.deps: dict = {}
        self._tests: dict = {}  # leaf id -> its compiled test

    def compile(self, phi) -> int:
        """Node id of `phi`, a formula added to this evaluator's table or a
        `TableNode` of it, compiling it and the nodes below it on first use.

        A node is fixed when it is a constant, a Boolean node whose fixed
        operands decide it, `[X]` over a fixed-true or `<X>` over a
        fixed-false operand; it then depends on nothing. Otherwise it
        depends on the whole track if it is a letter, on the union of its
        operands' features if it is a Boolean node, and on what
        `_modal_deps` gives if it is a modal node."""
        node = logic.table_node(phi, self._table)
        table, root = node.table, node.id
        self._table, self._nodes = table, table.nodes
        if not table.desugared[root]:
            raise ValueError("bounded evaluation expects a desugared formula")
        fixed, deps = self.fixed, self.deps
        for i in () if root in deps else table.below(root):
            if i in deps:  # compiled below an earlier root
                continue
            self._memo[i] = {}
            kind, a, b = table.nodes[i]
            if kind is Const:
                f, d = a, 0
            elif kind is Prop:
                f, d = None, TRACK
            elif isinstance(kind, Modality):
                # Also on an empty domain, which is why `<X> true` is not fixed.
                f = fixed[a] if fixed[a] is (not b) else None
                d = _modal_deps(kind, deps[a])
            else:
                f = _fold(kind, fixed[a], None if kind is Not else fixed[b])
                d = deps[a] | (0 if kind is Not else deps[b])
            fixed[i] = f
            deps[i] = 0 if f is not None else d
        return root

    def eval(self, rho: Track, phi) -> bool:
        """Truth of `phi` on `rho`. ValidationError when `rho` is not a
        track of the structure (see `model.check_track`)."""
        rho = check_track(self.K, rho)
        if len(rho) > self.bound:
            raise BoundTooSmall(f"track of length {len(rho)} exceeds bound {self.bound}")
        return self._at(self.compile(phi), rho)

    def _at(self, i: int, rho, first=None, last=None, length=None) -> bool:
        """Truth of node `i` on the id track `rho`, of at most the bound states,
        or, if `rho` is None and `i` does not need the whole track, on the tracks
        from state id `first` to `last` of `length` states (None where ignored)."""
        dep = self.deps[i]
        if dep != TRACK:
            if rho is not None:
                first, last, length, rho = rho[0], rho[-1], len(rho), None
            key = (first if dep & FIRST else None, last if dep & LAST else None, length if dep & LENGTH else None)
        else:
            key = reduce(and_, map(self.K.masks.__getitem__, rho)) if self._table.prop[i] else rho
        memo = self._memo[i]
        out = memo.get(key, self.fixed[i])
        if out is not None:
            return out
        kind, a, b = self._nodes[i]
        if type(key) is int:  # a leaf, on the AND of the label masks
            if i not in self._tests:
                self._tests[i] = compile_prop(self._table.formulas[i], self.K.letter_bit)
            out = self._tests[i](key)
        elif kind is Not:
            out = not self._at(a, rho, first, last, length)
        elif kind is And:
            out = self._at(a, rho, first, last, length) and self._at(b, rho, first, last, length)
        elif kind is Or:
            out = self._at(a, rho, first, last, length) or self._at(b, rho, first, last, length)
        elif kind is Implies:
            out = not self._at(a, rho, first, last, length) or self._at(b, rho, first, last, length)
        elif rho is not None or self.deps[a] == TRACK:  # over tracks
            if rho is None:  # `<A>` or `<~A>`
                domain = extend_tracks(self.K, [(last,) if kind is _A else (first,)], self.bound, kind is _A)
            elif kind is _B:
                domain = (rho[:j] for j in range(2, len(rho)))
            elif kind is _E:
                domain = (rho[j:] for j in range(1, len(rho) - 1))
            else:
                domain = extend_tracks(self.K, [rho], self.bound, kind is _BBAR)
            out = not b
            for t in domain:
                if self._at(a, t) == b:
                    out = b
                    break
        elif kind is _B or kind is _E:  # over an operand of the kept end and the length
            out = not b
            for n in range(2, length) if kind is _B else range(length - 1, 1, -1):
                if self._at(a, None, first, last, n) == b:
                    out = b
                    break
        else:
            out, walked = not b, []
            for f, l, n in self._walk(kind, first, last, length, self.deps[a] & LENGTH):
                if self._at(a, None, f, l, n) == b:
                    out = b
                    break
                walked.append((f, l, n))
            else:  # `<~B>`/`<~E>` at a walked key, length included, ranges over part of this walk
                for f, l, n in walked if kind is _BBAR or kind is _EBAR else ():
                    memo[(f if dep & FIRST else None, l if dep & LAST else None, n)] = out
        memo[key] = out
        return out

    def _walk(self, kind, first, last, length, by_length: int):
        """Keys of the tracks up to the bound that `<A>`, `<~A>`, `<~B>` or `<~E>`
        ranges over from the given key, breadth first: per length, the first to
        reach each state at the moving end, unless a shorter one did and not `by_length`."""
        forward = kind is _A or kind is _BBAR
        kept = last if kind is _A or kind is _EBAR else first
        step = self.K.succ if forward else self.K.pred
        seen, layer = set(), [last if forward else first]
        for n in range(2 if kind is _A or kind is _ABAR else length + 1, self.bound + 1):
            nxt, seen = [], set() if by_length else seen
            for v in layer:
                for w in step[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
                        yield (kept, w, n) if forward else (w, kept, n)
            if not nxt:
                return
            layer = nxt


def _modal_deps(kind, sub: int) -> int:
    """Features a modal node depends on, given those its operand does.

    `<A>` ranges over the tracks from the last state and `<~A>` over those
    to the first. A prefix keeps the first state and a suffix the last, so
    `<B>` over an operand of at most the first state and the length
    depends on that and the length; `<E>` mirrors it. An extension to the
    right keeps the first state and reaches what the last state and the
    length allow, so `<~B>` over an operand short of the whole track
    depends on those two and on the first state if the operand does;
    `<~E>` mirrors it."""
    if kind is _A:
        return LAST
    if kind is _ABAR:
        return FIRST
    if kind is _B or kind is _E:
        kept = FIRST if kind is _B else LAST
        return TRACK if sub & ~(kept | LENGTH) else sub | LENGTH
    if sub == TRACK:
        return TRACK
    kept, moving = (FIRST, LAST) if kind is _BBAR else (LAST, FIRST)
    return moving | LENGTH | (sub & kept)


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
    length at most the bound, with the first failing one in
    `enumerate_tracks` order."""
    ev = BoundedEvaluator(K, bound)
    root = ev.compile(phi)
    dep = ev.deps[root]
    init = K.ids[K.init]
    if dep == TRACK:
        for count, rho in enumerate(extend_tracks(K, [(init,)], bound), 1):  # K is left-total: not empty
            if not ev._at(root, rho):
                return BoundedVerdict(False, bound, tuple(K.names[v] for v in rho), count)
        return BoundedVerdict(True, bound, None, count)
    # `layer`: the number of initial tracks of each length ending in each state.
    seen, failing, count, layer = set(), [], 0, {init: 1}
    for length in range(2, bound + 1):
        seen = set() if dep & LENGTH else seen
        decided, nxt = len(seen), {}
        for v, n in layer.items():
            for w in K.succ[v]:
                nxt[w] = nxt.get(w, 0) + n
                if w not in seen:
                    seen.add(w)
                    if not ev._at(root, None, init, w, length):
                        failing.append(w)
        if failing:
            return BoundedVerdict(False, bound, *_first_track(K, init, length, failing))
        count = min(count + sum(nxt.values()), MAX_COUNT)
        if count == MAX_COUNT and len(seen) == decided:  # nothing left to decide or count
            break
        layer = {w: min(n, MAX_COUNT) for w, n in nxt.items()} if count == MAX_COUNT else nxt
    return BoundedVerdict(True, bound, None, count)


def _first_track(K: KripkeStructure, init: int, length: int, ends) -> tuple[Track, int]:
    """The first track of `length` states from state id `init` that ends
    in the ids `ends`, in `enumerate_tracks` order, as names, and its
    1-based position in that order (saturating at MAX_COUNT).

    The walk takes, at each step, the first successor in id order from
    which `ends` is reachable in exactly the steps left. The position
    counts the shorter tracks and the continuations of every successor the
    walk passes over."""
    # reach[k]: ids from which `ends` is reachable in exactly k steps;
    # walks[k][v]: number of walks of k steps from v.
    reach, walks = [set(ends)], [[1] * len(K.succ)]
    for _ in range(length - 2):
        reach.append({u for w in reach[-1] for u in K.pred[w]})
        prev = walks[-1]
        walks.append([min(sum(prev[w] for w in ws), MAX_COUNT) for ws in K.succ])
    track, position = [init], 1 + sum(walks[k][init] for k in range(1, length - 1))
    for k in reversed(range(length - 1)):
        for w in K.succ[track[-1]]:
            if w in reach[k]:
                break
            position += walks[k][w]
        track.append(w)
    return tuple(K.names[v] for v in track), min(position, MAX_COUNT)
