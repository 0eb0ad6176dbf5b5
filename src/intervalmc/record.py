"""`Record`, the base class of the package's value types."""


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
