"""Immutable value classes, built at import without generated code.

A Frozen subclass names its two or more fields in __slots__, with
"__dict__" beside them when it holds cached properties.  Frozen.__init__
takes the fields in that order and sets each once; a subclass that checks
its fields does so in its own __init__ before handing them on, or, when
it is built often, sets them itself through object.__setattr__.  Instances
compare and hash by their field values within one class (hashing the tuple
of them) and refuse assignment and deletion with AttributeError.  Python's
own decorator for such classes would import inspect, ast and dis into every
process and exec the generated methods of each class it builds.
"""

from operator import attrgetter


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        cls._values = staticmethod(attrgetter(*cls._fields))

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields, got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__name__}({fields})"
