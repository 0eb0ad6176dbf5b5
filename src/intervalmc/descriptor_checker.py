"""Existential satisfiability search over descriptor elements, and the
universal model-checking driver built on it.

The search is the deterministic counterpart of a nondeterministic
recursion: every nondeterministic choice becomes exhaustive iteration in
the canonical descriptor order, so verdicts and counterexamples are
reproducible.

An engine checks one node of a `FormulaTable`: in a check, the dual that
`negate_to_exists` adds to the table `check` built. It compiles only the
nodes below that root, once: each maximal propositional node becomes a
leaf, compiled by `compile_prop` into a test on letter masks, and each
disjunction and diamond above the leaves an inner node, with the table's
node ids as keys, so equal nodes share one. The engine works on the
structure's state ids (`KripkeStructure.ids`): a descriptor
element is an int triple (first id, interior bitmask, last id), and a
`DescriptorElement` is built only where one enters or leaves the engine.
The elements of each state come from one fixpoint (`model._pairs`), which
also gives each element's label intersection, so a leaf costs one lookup
and is evaluated once per distinct intersection. Results are memoized
per (node, element).

The forward elements of a state are indexed by (interior mask, last id).
`<B>`/`<E>` never split d: dropping the last (first) state of a track of
d leaves a track of an element that this index finds in one lookup, and
every track of that element extends back to a track of d. One
breadth-first search over these peels serves both modalities, and a
search that finds nothing marks every element it reached as failed for
its node. The truth of `<A>`/`<~A>` depends only on d's last/first
state, so it is memoized per (node, endpoint); the witness is still a
track of d.
"""

from __future__ import annotations

from .errors import NotInFragment
from .logic import (
    Modality,
    Or,
    classify,  # unused; perfbench/tracer.py counts calls through this name
    compile_prop,
    is_propositional,  # unused; perfbench/tracer.py counts calls through this name
    negate_to_exists,
    table_node,
    val,  # unused; perfbench/tracer.py counts calls through this name
)
from .model import (
    KripkeStructure,
    Track,
    _element,
    _pair_order,
    _pairs,
    concat_desc,  # unused; perfbench/tracer.py counts calls through this name
    shortest_witness,
    witnessed_descriptors,  # unused; perfbench/tracer.py counts calls through this name
)
from .record import Verdict


_LEAF = "leaf"  # the kind of a compiled maximal propositional node


class _ExistsEngine:
    """Search for one existential-fragment formula over the descriptor
    elements of one structure. Node `root` is the formula itself."""

    def __init__(self, K: KripkeStructure, phi):
        self.K = K
        self._compile(phi)
        self._witnessed: dict = {}
        # Element -> intersection of the labels of its states, as a mask.
        self._labels: dict = {}
        self._peels: dict = {}
        self._memo: dict = {}
        # (node, endpoint id) -> truth of an <A>/<~A> node.
        self._adjacent: dict = {}
        self._leaf_values: dict = {}
        self._witness_cache: dict = {}
        self.stats = {"check_calls": 0, "memo_hits": 0, "descriptors_explored": 0, "adjacent_witnesses": 0}

    def _compile(self, phi):
        """Fill `_nodes`, keyed by table id, for the root and the nodes below
        it down to the leaves: (_LEAF, test, None) for a leaf, else the
        table's node, an `Or` or a diamond over A, ~A, B or E."""
        node = table_node(phi)
        table, self.root = node.table, node.id
        if not table.exists[self.root]:
            raise NotInFragment("formula outside the existential fragment")
        nodes = self._nodes = {}
        todo = [self.root]
        while todo:
            i = todo.pop()
            if i in nodes:
                continue
            kind, a, b = nodes[i] = table.nodes[i]
            if table.prop[i]:
                nodes[i] = (_LEAF, compile_prop(table.formulas[i], self.K.letter_bit), None)
            else:
                todo += (a, b) if kind is Or else (a,)

    def witnessed(self, v: int, forward: bool = True) -> list:
        """The elements from (to) state id v, in canonical order."""
        key = (v, forward)
        out = self._witnessed.get(key)
        if out is None:
            parents = _pairs(self.K, v, forward)
            masks = self.K.masks
            # Pair -> intersection of the labels of its interior states.
            inner = {}
            for pair, parent in parents.items():
                inner[pair] = -1 if parent is None else inner[parent] & masks[parent[0]]
            out = self._witnessed[key] = []
            for pair in sorted(parents, key=_pair_order):
                u, mask = pair
                d = (v, mask, u) if forward else (u, mask, v)
                self._labels[d] = inner[pair] & masks[v] & masks[u]
                out.append(d)
            self.stats["descriptors_explored"] += len(out)
        return out

    def peels(self, v: int) -> dict:
        """`witnessed(v)` keyed by (interior mask, last id)."""
        out = self._peels.get(v)
        if out is None:
            out = self._peels[v] = {(d[1], d[2]): d for d in self.witnessed(v)}
        return out

    def realize(self, d) -> Track:
        out = self._witness_cache.get(d)
        if out is None:
            out = self._witness_cache[d] = shortest_witness(self.K, _element(self.K, *d))
        return out

    def check(self, node: int, d):
        """(satisfiable?, witness track associated with d or None)."""
        key = (node, d)
        out = self._memo.get(key)
        if out is not None:
            self.stats["memo_hits"] += 1
            return out
        self.stats["check_calls"] += 1
        out = self._memo[key] = self._check(node, d)
        return out

    def _check(self, node, d):
        kind, a, b = self._nodes[node]
        if kind is _LEAF:
            common = self._labels[d]
            key = (node, common)
            ok = self._leaf_values.get(key)
            if ok is None:
                ok = self._leaf_values[key] = a(common)
            return (True, self.realize(d)) if ok else (False, None)
        if kind is Or:
            ok, wit = self.check(a, d)
            if ok:
                return ok, wit
            return self.check(b, d)
        if kind is Modality.A or kind is Modality.ABAR:
            forward = kind is Modality.A
            key = (node, d[2] if forward else d[0])
            ok = self._adjacent.get(key)
            if ok is None:
                ok = self._adjacent[key] = any(self.check(a, adj)[0] for adj in self.witnessed(key[1], forward))
            if ok:
                self.stats["adjacent_witnesses"] += 1
                return True, self.realize(d)
            return False, None
        return self._peel(node, a, d, kind is Modality.B)

    def _peel(self, node, sub, d, prefix: bool):
        """`<B> sub` (prefix) or `<E> sub` at d. Dropping the last (first)
        state of a track of d = (a, I, b) leaves a track of x = (a, J, u)
        with u -> b (y = (w, J, b) with a -> w), where u (w) is in I and J
        is I less u (w) or I; any track of x (y) extends back to a track of
        d. So the search runs breadth-first over these peels from d, checks
        `sub` on each element on its first visit (d too, when a peel leads
        back to it), and adds the peeled states back to the witness it
        finds."""
        names = self.K.names
        step = self.K.pred if prefix else self.K.succ
        parents = {}
        queue = [d]
        for y in queue:
            a, mask, b = y
            for u in step[b] if prefix else step[a]:
                if not mask >> u & 1:
                    continue
                index = self.peels(a if prefix else u)
                for m in (mask & ~(1 << u), mask):
                    z = index.get((m, u if prefix else b))
                    if z is None or z in parents:
                        continue
                    parents[z] = y
                    ok, wit = self.check(sub, z)
                    if ok:
                        while True:
                            z = parents[z]
                            wit = wit + (names[z[2]],) if prefix else (names[z[0]],) + wit
                            if z == d:
                                return True, wit
                    queue.append(z)
        for z in parents:
            self._memo[(node, z)] = (False, None)
        return False, None


def model_check_univ(K: KripkeStructure, psi) -> Verdict:
    """Model check a universal-fragment formula: Holds iff no witnessed
    initial descriptor element admits a track satisfying the dualized
    negation; otherwise Fails with the first counterexample track in
    canonical order. NotInFragment (from `negate_to_exists`) outside ForallAABE.
    The dual joins the table of `psi`, a formula or a `TableNode`.
    """
    engine = _ExistsEngine(K, negate_to_exists(table_node(psi)))
    for d in engine.witnessed(K.ids[K.init]):
        ok, wit = engine.check(engine.root, d)
        if ok:
            return Verdict("fails", wit, "descriptor", dict(engine.stats))
    return Verdict("holds", None, "descriptor", dict(engine.stats))
