"""Existential satisfiability search over descriptor elements, and the
universal model-checking driver built on it.

The search is the deterministic counterpart of a nondeterministic
recursion: every nondeterministic choice becomes exhaustive iteration in
breadth-first (shortest-track) order, so verdicts and counterexamples are
reproducible, and elements with short tracks are tried first.

An engine checks one node of a `FormulaTable`: in a check, the dual that
`negate_to_exists` adds to the table `check` built. It reads the table's
nodes directly: a propositional node is a leaf, whose test on letter
masks `compile_prop` builds on its first use, and above the leaves are
disjunctions and diamonds. The engine works on the
structure's state ids (`KripkeStructure.ids`): a descriptor
element is an int triple (first id, interior bitmask, last id), and a
`DescriptorElement` is built only where one enters or leaves the engine.
The elements of each state come from one fixpoint (`model._pairs`), which
also gives each element's label intersection, so a leaf costs one lookup
and is evaluated once per distinct intersection. A check returns a
witness track of the element, or False, memoized per (node, element).

The elements from (to) a state are kept in one dict, in the order the
fixpoint discovers them, which is breadth-first (shortest-track) order,
keyed by (interior mask, last (first) id).
`<B>`/`<E>` never split d: dropping the last (first) state of a track of
d leaves a track of an element that the forward dict finds in one lookup,
and every track of that element extends back to a track of d. One
breadth-first search over these peels serves both modalities, and a
search that finds nothing marks every element it reached as failed for
its node. Nothing reachable from such an element satisfies the node's
subformula, so a later search checks it but peels no further from it.
The truth of `<A>`/`<~A>` depends only on d's last/first
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
    _pairs,
    concat_desc,  # unused; perfbench/tracer.py counts calls through this name
    shortest_witness,
    witnessed_descriptors,  # unused; perfbench/tracer.py counts calls through this name
)
from .record import Verdict


class _ExistsEngine:
    """Search for one existential-fragment formula over the descriptor
    elements of one structure. Node `root` is the formula itself."""

    def __init__(self, K: KripkeStructure, phi):
        self.K = K
        node = table_node(phi)
        self._table, self.root = node.table, node.id
        if not self._table.exists[self.root]:
            raise NotInFragment("formula outside the existential fragment")
        self._tests: dict = {}  # leaf id -> its compiled test
        self._witnessed: dict = {}
        # Element -> intersection of the labels of its states, as a mask.
        self._labels: dict = {}
        self._memo: dict = {}
        # (node, endpoint id) -> truth of an <A>/<~A> node.
        self._adjacent: dict = {}
        self._leaf_values: dict = {}
        self._witness_cache: dict = {}
        self.stats = {"check_calls": 0, "memo_hits": 0, "descriptors_explored": 0, "adjacent_witnesses": 0}

    def witnessed(self, v: int, forward: bool = True) -> dict:
        """The elements from (to) state id v, in breadth-first
        (shortest-track) order, keyed by (interior mask, last (first) id)."""
        key = (v, forward)
        out = self._witnessed.get(key)
        if out is None:
            masks = self.K.masks
            # Pair -> intersection of the labels of its interior states.
            inner = {}
            out = self._witnessed[key] = {}
            for pair, parent in _pairs(self.K, v, forward).items():  # a parent comes first
                u, mask = pair
                inner[pair] = -1 if parent is None else inner[parent] & masks[parent[0]]
                d = (v, mask, u) if forward else (u, mask, v)
                self._labels[d] = inner[pair] & masks[v] & masks[u]
                out[mask, u] = d
            self.stats["descriptors_explored"] += len(out)
        return out

    def realize(self, d) -> Track:
        out = self._witness_cache.get(d)
        if out is None:
            out = self._witness_cache[d] = shortest_witness(self.K, _element(self.K, *d))
        return out

    def check(self, node: int, d):
        """A witness track associated with d on which the node holds, or
        False if there is none."""
        key = (node, d)
        out = self._memo.get(key)
        if out is not None:
            self.stats["memo_hits"] += 1
            return out
        self.stats["check_calls"] += 1
        out = self._memo[key] = self._check(node, d)
        return out

    def _check(self, node, d):
        if self._table.prop[node]:
            common = self._labels[d]
            key = (node, common)
            ok = self._leaf_values.get(key)
            if ok is None:
                if node not in self._tests:
                    self._tests[node] = compile_prop(self._table.formulas[node], self.K.letter_bit)
                ok = self._leaf_values[key] = self._tests[node](common)
            return self.realize(d) if ok else False
        kind, a, b = self._table.nodes[node]
        if kind is Or:
            return self.check(a, d) or self.check(b, d)
        if kind is Modality.A or kind is Modality.ABAR:
            forward = kind is Modality.A
            key = (node, d[2] if forward else d[0])
            ok = self._adjacent.get(key)
            if ok is None:
                adjacent = self.witnessed(key[1], forward).values()
                ok = self._adjacent[key] = any(self.check(a, adj) for adj in adjacent)
            if ok:
                self.stats["adjacent_witnesses"] += 1
                return self.realize(d)
            return False
        return self._peel(node, a, d, kind is Modality.B)

    def _peel(self, node, sub, d, prefix: bool):
        """`<B> sub` (prefix) or `<E> sub` at d. Dropping the last (first)
        state of a track of d = (a, I, b) leaves a track of x = (a, J, u)
        with u -> b (y = (w, J, b) with a -> w), where u (w) is in I and J
        is I less u (w) or I; any track of x (y) extends back to a track of
        d. So the search runs breadth-first over these peels from d, checks
        `sub` on each element on its first visit (d too, when a peel leads
        back to it), and adds the peeled states back to the witness it
        finds. It does not peel further from an element already refuted
        for this node: a failed search marked everything it reached, so
        nothing reachable from there satisfies `sub`."""
        names = self.K.names
        step = self.K.pred if prefix else self.K.succ
        parents = {}
        queue = [d]
        for y in queue:
            a, mask, b = y
            for u in step[b] if prefix else step[a]:
                if not mask >> u & 1:
                    continue
                index = self.witnessed(a if prefix else u)
                for m in (mask & ~(1 << u), mask):
                    z = index.get((m, u if prefix else b))
                    if z is None or z in parents:
                        continue
                    parents[z] = y
                    wit = self.check(sub, z)
                    if wit:
                        while True:
                            z = parents[z]
                            wit = wit + (names[z[2]],) if prefix else (names[z[0]],) + wit
                            if z == d:
                                return wit
                    if self._memo.get((node, z)) is not False:
                        queue.append(z)
        for z in parents:
            self._memo[(node, z)] = False
        return False


def model_check_univ(K: KripkeStructure, psi) -> Verdict:
    """Model check a universal-fragment formula: Holds iff no witnessed
    initial descriptor element admits a track satisfying the dualized
    negation; otherwise Fails with a witness of the first such element in
    breadth-first (shortest-track) order. NotInFragment (from
    `negate_to_exists`) outside ForallAABE.
    The dual joins the table of `psi`, a formula or a `TableNode`.
    """
    engine = _ExistsEngine(K, negate_to_exists(table_node(psi)))
    for d in engine.witnessed(K.ids[K.init]).values():
        wit = engine.check(engine.root, d)
        if wit:
            return Verdict("fails", wit, "descriptor", dict(engine.stats))
    return Verdict("holds", None, "descriptor", dict(engine.stats))
