"""A `ClassEngine` read by name, for the tests. The engine keeps only class
ids; this decodes them from its id-level fields: each class as a plain
`(letters, last state)` tuple from `_keys`, the classes of the tracks from
a state from `_seeds` and `_class_succ`, and a subformula's truth on a
class from `_truth`. A class's letters are read from its mask through the
structure's `letter_bit`, which numbers the letters for the engine too."""

from intervalmc.logic import prop_letters
from intervalmc.model import track_label


class ClassView:
    def __init__(self, engine):
        K, n = engine.K, len(engine.K.states)
        self.engine = engine
        # The formula's letters that the structure declares; no other letter has a bit.
        self.pl = prop_letters(engine._table.formulas[engine._root]) & K.ap
        self.classes = [  # in id order
            (frozenset(p for p in self.pl if key // n & K.letter_bit[p]), K.names[key % n])
            for key in engine._keys
        ]
        self.id = {c: i for i, c in enumerate(self.classes)}

    def of_track(self, rho):
        """The class of a track: its label cut to the formula's letters, and its last state."""
        return track_label(self.engine.K, rho) & self.pl, rho[-1]

    def reach(self, v) -> set:
        """Classes of the tracks from state `v`: its seed classes and the classes they reach."""
        seen, todo = set(), list(self.engine._seeds[self.engine.K.ids[v]])
        while todo:
            c = todo.pop()
            if c not in seen:
                seen.add(c)
                todo += self.engine._class_succ[c]
        return {self.classes[c] for c in seen}

    def holds(self, sub, c) -> bool:
        """Truth of subformula `sub` on the realized class `c`; KeyError for any other class."""
        return bool(self.engine._truth[self.engine._table.add(sub)] >> self.id[c] & 1)
