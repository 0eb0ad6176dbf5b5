"""Checking over the finite quotient of tracks by (restricted label set,
last state).

Truth of a formula whose modalities reach only adjacent tracks and right
extensions depends on a track only through the letters of the formula
that hold on it and its last state, so each equivalence class can be
evaluated once. Classes are generated from the length-2 seed tracks and
closed under single-state extension. A class is a dense int id, keyed by
mask * |W| + last state id, with the structure's label mask (`masks`) cut
to the `letter_bit`s of the formula's letters, so that a letter it does
not declare holds on no class; only `_build_classes` and
`find_initial_track` build or decode that key. A root in a `FormulaTable`
and each node below it get an int bitset over ids as their truth set.

`<A>` and `<~B>` both search backwards from their operand's truth set over
one predecessor list, once per node: `<~B>` marks the classes with a
strict extension in it, and `<A>` the last states one of whose seed
classes is in it or reaches it. No state's forward reach set is kept;
`check_ab` makes one breadth-first search from the initial state, which
gives both the verdict and the shortest counterexample.
"""

from __future__ import annotations

from itertools import chain, compress, count
from typing import Optional

from .errors import NotInFragment
from .logic import _AB_MODS, And, Const, Implies, Modality, Not, Or, Prop, table_node
from .logic import classify  # unused; perfbench/tracer.py counts calls through this name
from .model import KripkeStructure, Track
from .record import Verdict


# `_FLAG_OF_BIT[j]` maps a byte to b"1" if its bit j is set, else to b"0";
# `_BIT_OF_DIGIT` maps b"0"/b"1" to the bytes 0/1.
_FLAG_OF_BIT = [bytes(48 + (b >> j & 1) for b in range(256)) for j in range(8)]
_BIT_OF_DIGIT = bytes.maketrans(b"01", b"\0\1")


def _members(mask: int):
    """Ids in an int bitset, in increasing order."""
    return compress(count(), bin(mask)[:1:-1].encode().translate(_BIT_OF_DIGIT))


class ClassEngine:
    """Realized classes of a structure and per-class truth of every
    subformula of one formula over the meets/right-extension fragment.
    """

    def __init__(self, K: KripkeStructure, psi):
        self.K = K
        node = table_node(psi)
        self._table, self._root = table, root = node.table, node.id
        if not table.desugared[root]:
            raise ValueError("class engine expects a desugared formula")
        if not table.modalities(root) <= _AB_MODS:
            raise NotInFragment("class engine expects a formula over <A> and <~B> only")
        self._below = table.below(root)
        self._build_classes()
        self._truth = self._evaluate()

    def _build_classes(self):
        K, n, nodes = self.K, len(self.K.states), self._table.nodes
        # The bits of the formula's letters in `K.letter_bit`; the table holds
        # each letter once, and one that `K` does not declare has no bit.
        own = sum(K.letter_bit.get(nodes[i][1], 0) for i in self._below if nodes[i][0] is Prop)
        label = [m & own for m in K.masks]
        ids, keys, rows, by_last = {}, [], [], [[] for _ in range(n)]
        # `masks` holds each class's letter mask in `width` bytes.
        width, masks = own.bit_length() + 7 >> 3, bytearray()
        # State v stands first as the key `label[v] * n + v`, whose row is
        # v's seed row; then come the classes, as `keys` grows while it is
        # walked. Ids are handed out in discovery order, so id order is
        # breadth-first.
        for source in chain([label[v] * n + v for v in range(n)], keys):
            mask, last = divmod(source, n)
            row = []
            for w in K.succ[last]:
                m = mask & label[w]
                key = m * n + w
                c = ids.get(key)
                if c is None:
                    c = ids[key] = len(keys)
                    keys.append(key)
                    by_last[w].append(c)
                    masks += m.to_bytes(width, "little")
                row.append(c)
            rows.append(row)
        del ids  # freed before the predecessor lists are built, to lower peak memory
        seeds, succ = rows[:n], rows
        del succ[:n]
        pred: list = [[] for _ in keys]
        for c, row in enumerate(succ):
            for c2 in row:
                pred[c2].append(c)
        self._keys, self._seeds, self._class_succ, self._class_pred = keys, seeds, succ, pred
        # Seeds are interned first, so their ids and these bitsets are small.
        self._seed_bits = [sum(1 << c for c in row) for row in seeds]
        self._by_last = [self._bitset(group) for group in by_last]
        self._masks, self._width = masks, width

    def _bitset(self, ids) -> int:
        """Bitset of `ids`, built as ASCII "0"/"1" flags (48/49) read in base 2."""
        flags = bytearray(b"0") * len(self._keys)
        for c in ids:
            flags[c] = 49
        return int(flags[::-1], 2)

    def _closure(self, start, edges) -> int:
        """Bitset of the ids in `start` and of the ids reached from them over `edges`."""
        flags = bytearray(b"0") * len(self._keys)
        todo = list(start)
        while todo:
            c = todo.pop()
            if flags[c] == 48:
                flags[c] = 49
                todo += edges[c]
        return int(flags[::-1], 2)

    def _evaluate(self) -> dict:
        truth, full = {}, (1 << len(self._keys)) - 1
        for i in self._below:
            kind, a, b = self._table.nodes[i]
            if kind is Prop:
                # Byte plane j >> 3 of `_masks` holds bit j of every class's mask, and
                # one translate turns it into "0"/"1" flags; j is -1 for a letter `K` lacks.
                j = self.K.letter_bit.get(a, 0).bit_length() - 1
                sat = int(self._masks[j >> 3 :: self._width].translate(_FLAG_OF_BIT[j & 7])[::-1], 2) if j >= 0 else 0
            elif kind is Const:
                sat = full if a else 0
            elif kind is Not:
                sat = full ^ truth[a]
            elif kind is And:
                sat = truth[a] & truth[b]
            elif kind is Or:
                sat = truth[a] | truth[b]
            elif kind is Implies:
                sat = (full ^ truth[a]) | truth[b]
            else:  # <A> or <~B>, the only modalities `__init__` admits
                # A box is the complement of the diamond of the complement.
                sub = truth[a] if b else full ^ truth[a]
                # Both diamonds search backwards from `sub`. `<~B>` needs a
                # strict extension, so its search starts one step back.
                start = _members(sub)
                if kind is Modality.BBAR:
                    start = chain.from_iterable(map(self._class_pred.__getitem__, start))
                sat = self._closure(start, self._class_pred)
                if kind is Modality.A:
                    # A track from v is a seed track of v or extends one, so
                    # v has a track in `sub` iff a seed class of v is in
                    # `sat`. Classes with distinct last states are distinct,
                    # so this sum is a union.
                    sat = sum(lasts for seeds, lasts in zip(self._seed_bits, self._by_last) if seeds & sat)
                if not b:
                    sat ^= full
            truth[i] = sat
        return truth

    def find_initial_track(self, sat: int) -> Optional[Track]:
        """Shortest initial track whose class is not in the bitset `sat`, or
        None: one breadth-first search from the initial state that visits
        each class once and keeps its parent."""
        names, keys, n = self.K.names, self._keys, len(self.K.states)
        good = format(sat, f"0{len(keys)}b")[::-1]
        # -1 stands for the initial state, whose row is its seed row.
        seeds = self._seeds[self.K.ids[self.K.init]]
        parent, queue = {}, [-1]
        for c in queue:
            for c2 in self._class_succ[c] if c >= 0 else seeds:
                if c2 in parent:
                    continue
                parent[c2] = c
                if good[c2] == "0":
                    track = []
                    while c2 >= 0:
                        track.append(names[keys[c2] % n])
                        c2 = parent[c2]
                    return (self.K.init, *reversed(track))
                queue.append(c2)
        return None


def check_ab(K: KripkeStructure, psi) -> Verdict:
    """Model check a formula over <A> and <~B>: Holds iff the formula is
    true on every class of an initial track, else Fails with a shortest
    initial counterexample track.
    """
    engine = ClassEngine(K, psi)
    track = engine.find_initial_track(engine._truth[engine._root])
    stats = {"classes_realized": len(engine._keys)}
    return Verdict("holds" if track is None else "fails", track, "class", stats)
