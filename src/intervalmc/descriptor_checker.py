"""Existential satisfiability search over descriptor elements, and the
universal model-checking driver built on it.

The search is the deterministic counterpart of a nondeterministic
recursion: every nondeterministic choice becomes exhaustive iteration in
the canonical descriptor order, so verdicts and counterexamples are
reproducible.

An engine checks one formula, which it compiles once into a node table:
each maximal propositional subformula becomes a leaf, each disjunction and
diamond above the leaves an inner node, and equal nodes share one index
(hash-consing). Results are memoized per (node index, descriptor element),
and a leaf is evaluated once per distinct intersection of the labels of an
element's states, kept as a bitmask over the letters.

States are numbered once per engine, and the interior of each forward
descriptor element is kept as a bitmask over them. The forward elements of
a state are indexed by their last state. The `[B]`/`[E]` case finds the
two parts of a split of d among the elements that end at d's last state,
filtered once per split to those whose interior lies inside d's, so a
match is one mask test. One routine serves both modalities, and it decides
each part once per element: for `<B>` the prefix is settled by its first
match, for `<E>` a failed suffix leaves its candidate list. `concat_desc`
confirms the split before each check. The truth of `<A>`/`<~A>` depends
only on d's last/first state, so it is memoized per (node, endpoint); the
witness is still a track of d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import NotInFragment, NotWitnessed
from .logic import Diamond, Modality, Or, classify, is_propositional, negate_to_exists, val
from .model import (
    DescriptorElement,
    KripkeStructure,
    Track,
    concat_desc,
    shortest_witness,
    witnessed_descriptors,
)


@dataclass
class Verdict:
    """Outcome of a model-level check. A counterexample, present exactly
    when the result is "fails", is an initial track falsifying the checked
    formula.
    """

    result: str
    counterexample: Optional[Track]
    engine: str
    stats: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.result == "holds"


# Kinds of compiled nodes besides the diamonds, which use their Modality.
_LEAF = "leaf"
_OR = "or"
_DIAMONDS = frozenset({Modality.A, Modality.ABAR, Modality.B, Modality.E})


class _ExistsEngine:
    """Search for one existential-fragment formula over the descriptor
    elements of one structure. Node `root` is the formula itself."""

    def __init__(self, K: KripkeStructure, phi, use_memo: bool = True):
        self.K = K
        self.use_memo = use_memo
        self._bit = {s: 1 << i for i, s in enumerate(K.states)}
        letter_bit = {p: 1 << i for i, p in enumerate(sorted(K.ap))}
        self._letters = {s: sum(letter_bit[p] for p in K.labels[s]) for s in K.states}
        # Node i is (kind, a, b): (_LEAF, formula, None), (_OR, left, right)
        # or (modality, sub, None), with children as node indices.
        self._nodes: list = []
        self._node_ids: dict = {}
        self.root = self._compile(phi)
        self._witnessed: dict = {}
        self._masked: dict = {}
        self._by_last: dict = {}
        self._memo: dict = {}
        # (node, endpoint state) -> truth of an <A>/<~A> node.
        self._adjacent: dict = {}
        self._leaf_values: dict = {}
        self._witness_cache: dict = {}
        self.stats = {"check_calls": 0, "memo_hits": 0, "descriptors_explored": 0, "adjacent_witnesses": 0}

    def _compile(self, phi) -> int:
        if is_propositional(phi):
            node = (_LEAF, phi, None)
        elif isinstance(phi, Or):
            node = (_OR, self._compile(phi.left), self._compile(phi.right))
        elif isinstance(phi, Diamond):
            if phi.mod not in _DIAMONDS:
                raise NotInFragment(f"modality {phi.mod.text} outside the existential fragment")
            node = (phi.mod, self._compile(phi.sub), None)
        else:
            raise NotInFragment(f"node outside the existential fragment: {phi!r}")
        index = self._node_ids.get(node)
        if index is None:
            index = self._node_ids[node] = len(self._nodes)
            self._nodes.append(node)
        return index

    def witnessed(self, v, direction="forward"):
        key = (v, direction)
        out = self._witnessed.get(key)
        if out is None:
            out = self._witnessed[key] = witnessed_descriptors(self.K, v, direction)
            self.stats["descriptors_explored"] += len(out)
        return out

    def _mask(self, d) -> int:
        return sum(map(self._bit.__getitem__, d.interior))

    def masked(self, v):
        """`witnessed(v)` as (interior mask, element) pairs, in its order."""
        out = self._masked.get(v)
        if out is None:
            out = self._masked[v] = [(self._mask(d), d) for d in self.witnessed(v)]
        return out

    def ending(self, v, last):
        """The pairs of `masked(v)` whose element ends at `last`."""
        index = self._by_last.get(v)
        if index is None:
            index = self._by_last[v] = {}
            for pair in self.masked(v):
                index.setdefault(pair[1].v_fin, []).append(pair)
        return index.get(last, ())

    def realize(self, d) -> Track:
        out = self._witness_cache.get(d)
        if out is None:
            out = shortest_witness(self.K, d)
            self._witness_cache[d] = out
        return out

    def check(self, node: int, d: DescriptorElement):
        """(satisfiable?, witness track associated with d or None)."""
        key = (node, d)
        if self.use_memo:
            out = self._memo.get(key)
            if out is not None:
                self.stats["memo_hits"] += 1
                return out
        self.stats["check_calls"] += 1
        out = self._check(node, d)
        if self.use_memo:
            self._memo[key] = out
        return out

    def _check(self, node, d):
        kind, a, b = self._nodes[node]
        if kind is _LEAF:
            if self._leaf(node, a, d):
                return True, self.realize(d)
            return False, None
        if kind is _OR:
            ok, wit = self.check(a, d)
            if ok:
                return ok, wit
            return self.check(b, d)
        if kind is Modality.A or kind is Modality.ABAR:
            end = d.v_fin if kind is Modality.A else d.v_in
            key = (node, end)
            ok = self._adjacent.get(key) if self.use_memo else None
            if ok is None:
                adjacent = self.witnessed(end, "forward" if kind is Modality.A else "backward")
                ok = any(self.check(a, adj)[0] for adj in adjacent)
                if self.use_memo:
                    self._adjacent[key] = ok
            if ok:
                self.stats["adjacent_witnesses"] += 1
                return True, self.realize(d)
            return False, None
        return self._split(a, d, kind is Modality.B)

    def _leaf(self, node, beta, d) -> bool:
        letters = self._letters
        common = letters[d.v_in] & letters[d.v_fin]
        for s in d.interior:
            common &= letters[s]
        key = (node, common)
        out = self._leaf_values.get(key)
        if out is None:
            out = self._leaf_values[key] = val(beta, d, self.K)
        return out

    def _split(self, sub, d, prefix: bool):
        """`<B> sub` (prefix) or `<E> sub` (suffix) at d. The kept part of a
        track of d either loses one state, the last (first), or d splits
        into witnessed x = (d.v_in, _, u) and y = (v, _, d.v_fin) with
        u -> v, whose join is d; the kept part is x (y). Parts are checked
        in the canonical split order, each at most once."""
        a, b = d.v_in, d.v_fin
        bit, succ = self._bit, self.K.successors
        target = self._mask(d)
        failed = set()

        # The dropped state u is the joint: prefix (a, _, u) with u -> b, or
        # suffix (u, _, b) with a -> u. Each part occurs once here.
        for u in self.K.predecessors(b) if prefix else succ(a):
            for m, part in self.ending(a, u) if prefix else self.ending(u, b):
                if m | bit[u] == target:
                    ok, wit = self.check(sub, part)
                    if ok:
                        return True, wit + (b,) if prefix else (a,) + wit
                    failed.add(part)

        # v -> the suffixes y ending at b with interior inside d's; for <E>,
        # those not failed yet.
        candidates = {}
        for mx, x in self.masked(a):
            if mx & ~target:
                continue
            base = mx | bit[x.v_fin]
            decided = prefix and x in failed
            for v in succ(x.v_fin):
                ys = candidates.get(v)
                if ys is None:
                    # Built before any early exit: descriptors_explored
                    # counts every state the scan reaches.
                    ys = candidates[v] = [
                        (my, y) for my, y in self.ending(v, b)
                        if not my & ~target and (prefix or y not in failed)
                    ]
                joint = base | bit[v]
                if decided or joint & ~target:
                    continue
                need = target & ~joint
                dropped = False
                for my, y in ys:
                    if my & need != need or concat_desc(x, y) != d:
                        continue
                    ok, wit = self.check(sub, x if prefix else y)
                    if ok:
                        return True, wit + self.realize(y) if prefix else self.realize(x) + wit
                    if prefix:
                        decided = True
                        break
                    failed.add(y)
                    dropped = True
                if dropped:
                    candidates[v] = [pair for pair in ys if pair[1] not in failed]
        return False, None


def check_exists(
    K: KripkeStructure, psi, d: DescriptorElement, use_memo: bool = True
):
    """True (plus a witness track associated with d) iff some track the
    element abstracts satisfies the existential-fragment formula.
    """
    if not classify(psi).exists_aabe:
        raise NotInFragment("check_exists expects an ExistsAABE formula")
    engine = _ExistsEngine(K, psi, use_memo=use_memo)
    if d not in engine.witnessed(d.v_in):
        raise NotWitnessed(f"descriptor element {d!r} is not witnessed")
    return engine.check(engine.root, d)


def model_check_univ(K: KripkeStructure, psi, use_memo: bool = True) -> Verdict:
    """Model check a universal-fragment formula: Holds iff no witnessed
    initial descriptor element admits a track satisfying the dualized
    negation; otherwise Fails with the first counterexample track in
    canonical order.
    """
    if not classify(psi).forall_aabe:
        raise NotInFragment("model_check_univ expects a ForallAABE formula")
    negated = negate_to_exists(psi)
    engine = _ExistsEngine(K, negated, use_memo=use_memo)
    for d in engine.witnessed(K.init):
        ok, wit = engine.check(engine.root, d)
        if ok:
            return Verdict("fails", wit, "descriptor", dict(engine.stats))
    return Verdict("holds", None, "descriptor", dict(engine.stats))
