"""Immutable value records, the base of every ttspec value type.

A subclass lists its fields in `__slots__` and sets them in its own
`__init__` with `object.__setattr__`.  Slot names that start with `_` hold
private state such as caches and are left out of equality, hashing and
repr.  Instances are equal when they have the same class and equal field
tuples, hash as their field tuple, print as `Name(field=value, ...)` unless
the class defines its own repr, and refuse assignment and deletion.
Nothing is generated at import time, so the value types add almost nothing
to the start-up of a CLI process.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        # the field tuple of an instance, called as self._key(self)
        get = attrgetter(*cls._fields)
        cls._key = staticmethod((lambda obj: (get(obj),)) if len(cls._fields) == 1 else get)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuild through __init__: slots hold no __dict__ for pickle and
        # copy to restore, and __setattr__ refuses them
        return self.__class__, self._key(self)
