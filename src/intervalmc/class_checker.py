"""Checking over the finite quotient of tracks by (restricted label set,
last state).

Truth of a formula whose modalities reach only adjacent tracks and right
extensions depends on a track only through the letters of the formula
that hold on it and its last state, so each equivalence class can be
evaluated once. Classes are generated from the length-2 seed tracks and
closed under single-state extension. A class is a dense int id, keyed by
letter bitmask * |W| + last state number; one predecessor list serves
every `<~B>`, and truth sets are int bitsets over ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import NotInFragment
from .logic import And, Box, Const, Diamond, Implies, Modality, Not, Or, Prop
from .logic import classify, prop_letters, subformulas
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


def _members(mask: int):
    """Ids in an int bitset, in increasing order."""
    bits = bin(mask)[:1:-1]
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


class ClassEngine:
    """Realized classes of a structure and per-class truth of every
    subformula of one formula over the meets/right-extension fragment.
    """

    def __init__(self, K: KripkeStructure, psi):
        if not classify(psi).ab_bar:
            raise NotInFragment("class engine expects a formula over <A> and <~B> only")
        self.K = K
        self.psi = psi
        self.pl = prop_letters(psi)
        self._letters = sorted(self.pl)
        self._index = {s: i for i, s in enumerate(K.states)}
        self._build_classes()
        self._truth = self._evaluate()

    def _build_classes(self):
        K, index, n = self.K, self._index, len(self.K.states)
        bit = {p: 1 << i for i, p in enumerate(self._letters)}
        label = [sum(bit[p] for p in K.labels[s] & self.pl) for s in K.states]
        out = [[index[w] for w in K.successors(s)] for s in K.states]
        ids: dict = {}
        keys: list = []

        def intern(key):
            c = ids.get(key)
            if c is None:
                c = ids[key] = len(keys)
                keys.append(key)
            return c

        self._seeds = [[intern((label[v] & label[w]) * n + w) for w in out[v]] for v in range(n)]
        # Ids are handed out in discovery order, so id order is breadth-first.
        succ: list = []
        while len(succ) < len(keys):
            mask, last = divmod(keys[len(succ)], n)
            succ.append([intern((mask & label[w]) * n + w) for w in out[last]])
        pred: list = [[] for _ in keys]
        for c, row in enumerate(succ):
            for c2 in row:
                pred[c2].append(c)
        self._keys, self._succ, self._pred = keys, succ, pred
        by_last, by_mask = [[] for _ in range(n)], {}
        for c, key in enumerate(keys):
            by_last[key % n].append(c)
            by_mask.setdefault(key // n, []).append(c)
        self._by_last = [self._bitset(group) for group in by_last]
        self._prop = {
            p: self._bitset(c for m, group in by_mask.items() if m & b for c in group) for p, b in bit.items()
        }
        self._from = [self._bitset(seeds) | self._reach(seeds, succ) for seeds in self._seeds]

    def _bitset(self, ids) -> int:
        """Bitset of `ids`, built as ASCII "0"/"1" flags (48/49) read in base 2."""
        flags = bytearray(b"0") * len(self._keys)
        for c in ids:
            flags[c] = 49
        return int(flags[::-1], 2)

    def _reach(self, start, edges) -> int:
        """Ids reached from `start` by a path of length >= 1 over `edges`."""
        flags = bytearray(b"0") * len(self._keys)
        todo = list(start)
        while todo:
            for c in edges[todo.pop()]:
                if flags[c] == 48:
                    flags[c] = 49
                    todo.append(c)
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

    def classes_from(self, v) -> frozenset:
        """Classes of the tracks starting at `v`."""
        named = list(self._id_of)
        return frozenset(named[c] for c in _members(self._from[self._index[v]]))

    def truth(self, phi, c: TrackClass) -> bool:
        """Truth of a subformula on every track of the class."""
        sat = self._truth[phi]
        cid = self._id_of.get(c)
        return cid is not None and bool(sat >> cid & 1)

    def _evaluate(self) -> dict:
        truth, full = {}, (1 << len(self._keys)) - 1
        for phi in subformulas(self.psi):
            if phi in truth:
                continue
            if isinstance(phi, Prop):
                sat = self._prop[phi.name]
            elif isinstance(phi, Const):
                sat = full if phi.value else 0
            elif isinstance(phi, Not):
                sat = full ^ truth[phi.sub]
            elif isinstance(phi, And):
                sat = truth[phi.left] & truth[phi.right]
            elif isinstance(phi, Or):
                sat = truth[phi.left] | truth[phi.right]
            elif isinstance(phi, Implies):
                sat = (full ^ truth[phi.left]) | truth[phi.right]
            elif isinstance(phi, (Diamond, Box)) and phi.mod in (Modality.A, Modality.BBAR):
                # A box is the complement of the diamond of the complement.
                box = isinstance(phi, Box)
                sub = full ^ truth[phi.sub] if box else truth[phi.sub]
                if phi.mod is Modality.A:
                    # Classes with distinct last states are distinct, so this sum is a union.
                    sat = sum(lasts for reach, lasts in zip(self._from, self._by_last) if reach & sub)
                else:
                    sat = self._reach(_members(sub), self._pred)
                if box:
                    sat ^= full
            else:
                raise NotInFragment(f"node outside the fragment: {phi!r}")
            truth[phi] = sat
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
    violating = engine._from[engine._index[K.init]] & ~engine._truth[psi]
    stats = {"classes_realized": len(engine._keys)}
    if not violating:
        return Verdict("holds", None, "class", stats)
    track = engine.find_initial_track(violating)
    return Verdict("fails", track, "class", stats)
