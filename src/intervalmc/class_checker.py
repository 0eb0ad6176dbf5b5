"""Checking over the finite quotient of tracks by (restricted label set,
last state).

Truth of a formula whose modalities reach only adjacent tracks and right
extensions depends on a track only through the letters of the formula
that hold on it and its last state, so each equivalence class can be
evaluated once. Classes are generated from the length-2 seed tracks and
closed under single-state extension. A class is a dense int id, keyed by
letter bitmask * |W| + last state number. Each node of the formula's
`logic.FormulaTable` has an int bitset over ids as its truth set.

`<A>` and `<~B>` both search backwards from their operand's truth set over
one predecessor list, once per node: `<~B>` marks the classes with a
strict extension in it, and `<A>` the last states one of whose seed
classes is in it or reaches it. No state's forward reach set is kept;
`check_ab` makes one forward search, from the initial state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count

from .errors import NotInFragment
from .logic import And, Const, FormulaTable, Implies, Modality, Not, Or, Prop, classify, prop_letters
from .descriptor_checker import Verdict
from .model import KripkeStructure, Track, track_label


@dataclass(frozen=True)
class TrackClass:
    letters: frozenset
    last: str

    def __repr__(self):
        inner = ",".join(sorted(self.letters))
        return f"({{{inner}}}, {self.last})"


def class_of(K: KripkeStructure, psi, rho: Track) -> TrackClass:
    """Quotient image of a track: its label restricted to the letters of
    the formula, paired with its last state.
    """
    return TrackClass(track_label(K, rho) & prop_letters(psi), rho[-1])


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
        if not classify(psi).ab_bar:
            raise NotInFragment("class engine expects a formula over <A> and <~B> only")
        self.K = K
        self._table = FormulaTable()
        self._root = self._table.add(psi)
        self.pl = frozenset(a for kind, a, _ in self._table.nodes if kind is Prop)
        self._letters = sorted(self.pl)
        self._index = {s: i for i, s in enumerate(K.states)}
        self._build_classes()
        self._truth = self._evaluate()

    def _build_classes(self):
        K, index, n = self.K, self._index, len(self.K.states)
        bit = {p: 1 << i for i, p in enumerate(self._letters)}
        label = [sum(bit[p] for p in K.labels[s] & self.pl) for s in K.states]
        out = [[index[w] for w in K.successors(s)] for s in K.states]
        ids, keys, rows, by_last = {}, [], [], [[] for _ in range(n)]
        # `masks` holds each class's letter mask in `width` bytes.
        width, masks = len(self._letters) + 7 >> 3, bytearray()
        # State v stands first as the key `label[v] * n + v`, whose row is
        # v's seed row; then come the classes, as `keys` grows while it is
        # walked. Ids are handed out in discovery order, so id order is
        # breadth-first.
        for source in chain([label[v] * n + v for v in range(n)], keys):
            mask, last = divmod(source, n)
            row = []
            for w in out[last]:
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
        self._keys, self._seeds, self._succ, self._pred = keys, seeds, succ, pred
        # Seeds are interned first, so their ids and these bitsets are small.
        self._seed_bits = [sum(1 << c for c in row) for row in seeds]
        self._by_last = [self._bitset(group) for group in by_last]
        # Byte plane i >> 3 of `masks` holds bit i of every class's mask;
        # one translate turns it into the "0"/"1" flags of letter i.
        self._prop = {
            p: int(masks[i >> 3 :: width].translate(_FLAG_OF_BIT[i & 7])[::-1], 2)
            for i, p in enumerate(self._letters)
        }

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

    @cached_property
    def _id_of(self) -> dict:
        """Id of every realized class, in id order."""
        n, letters = len(self.K.states), self._letters
        return {
            TrackClass(frozenset(p for i, p in enumerate(letters) if key // n >> i & 1), self.K.states[key % n]): c
            for c, key in enumerate(self._keys)
        }

    @cached_property
    def classes(self) -> frozenset:
        """Every realized class."""
        return frozenset(self._id_of)

    def _from(self, v: int) -> int:
        """Bitset of the classes of the tracks starting at state number `v`:
        its seed classes and every class reached from them."""
        return self._closure(self._seeds[v], self._succ)

    def classes_from(self, v) -> frozenset:
        """Classes of the tracks starting at `v`."""
        named = list(self._id_of)
        return frozenset(named[c] for c in _members(self._from(self._index[v])))

    def truth(self, phi, c: TrackClass) -> bool:
        """Truth of a subformula on every track of the class."""
        sat = self._truth[self._table.find(phi)]
        cid = self._id_of.get(c)
        return cid is not None and bool(sat >> cid & 1)

    def _evaluate(self) -> list:
        truth, full = [], (1 << len(self._keys)) - 1
        for kind, a, b in self._table.nodes:
            if kind is Prop:
                sat = self._prop[a]
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
            elif kind is Modality.A or kind is Modality.BBAR:
                # A box is the complement of the diamond of the complement.
                sub = truth[a] if b else full ^ truth[a]
                # Both diamonds search backwards from `sub`. `<~B>` needs a
                # strict extension, so its search starts one step back.
                start = _members(sub)
                if kind is Modality.BBAR:
                    start = chain.from_iterable(map(self._pred.__getitem__, start))
                sat = self._closure(start, self._pred)
                if kind is Modality.A:
                    # A track from v is a seed track of v or extends one, so
                    # v has a track in `sub` iff a seed class of v is in
                    # `sat`. Classes with distinct last states are distinct,
                    # so this sum is a union.
                    sat = sum(lasts for seeds, lasts in zip(self._seed_bits, self._by_last) if seeds & sat)
                if not b:
                    sat ^= full
            else:
                raise NotInFragment(f"{kind} node outside the fragment")
            truth.append(sat)
        return truth

    def find_initial_track(self, violating: int) -> Track:
        """Shortest initial track whose class is in the bitset `violating`,
        by breadth-first search with visited-class pruning.
        """
        K, n = self.K, len(self.K.states)
        bad = format(violating, f"0{len(self._keys)}b")[::-1]
        seen = bytearray(len(self._keys))
        frontier = [((K.init,), self._seeds[self._index[K.init]])]
        while frontier:
            nxt = []
            for track, row in frontier:
                for c in row:
                    if seen[c]:
                        continue
                    seen[c] = 1
                    longer = track + (K.states[self._keys[c] % n],)
                    if bad[c] == "1":
                        return longer
                    nxt.append((longer, self._succ[c]))
            frontier = nxt
        raise RuntimeError("violating class is not realized from the initial state")


def check_ab(K: KripkeStructure, psi) -> Verdict:
    """Model check a formula over <A> and <~B>: Holds iff the formula is
    true on every class of an initial track, else Fails with a shortest
    initial counterexample track.
    """
    engine = ClassEngine(K, psi)
    violating = engine._from(engine._index[K.init]) & ~engine._truth[engine._root]
    stats = {"classes_realized": len(engine._keys)}
    if not violating:
        return Verdict("holds", None, "class", stats)
    track = engine.find_initial_track(violating)
    return Verdict("fails", track, "class", stats)
