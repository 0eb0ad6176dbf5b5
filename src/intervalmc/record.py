"""`Record`, the base class of the package's value types, and `Verdict`,
the outcome of a check."""


class Record:
    """A value over the fields its class names in `__slots__`.

    Two records are equal when they are of the same class and their fields
    are equal; the hash is that of the tuple of fields, and the repr reads
    `Name(field=value, ...)`. A subclass lists its fields in `__slots__`
    and sets them in its own `__init__`. Nothing prevents assigning a field
    later, but a record used as a key must not change.
    """

    __slots__ = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        inner = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({inner})"


class Verdict(Record):
    """Outcome of a model-level check. A counterexample, present exactly
    when the result is "fails", is an initial track falsifying the checked
    formula. `bound` is the bounded oracle's track length bound, None for
    the exact engines. `stats` is a fresh dict unless one is given; a
    verdict is mutable through it, so it has no hash.
    """

    __slots__ = ("result", "counterexample", "engine", "stats", "bound")
    __hash__ = None

    def __init__(self, result: str, counterexample, engine: str, stats: dict | None = None, bound: int | None = None):
        self.result = result
        self.counterexample = counterexample
        self.engine = engine
        self.stats = {} if stats is None else stats
        self.bound = bound

    @property
    def holds(self) -> bool:
        return self.result == "holds"
