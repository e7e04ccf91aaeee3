"""The base of radival's immutable value classes.

A subclass names its fields in _fields and keeps them, with any values it
derives once, in __slots__. Its __new__ checks the arguments; equality,
hashing and repr follow the fields, and no field can be assigned later.
"""

from __future__ import annotations

_new = object.__new__
_set_field = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    @classmethod
    def _of(cls, *values: object) -> Value:
        """An instance with its slots set in order, unchecked."""
        self = _new(cls)
        for name, value in zip(cls.__slots__, values):
            _set_field(self, name, value)
        return self

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._key()  # copy and pickle rebuild through __new__

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__


def slot_setters(cls: type) -> tuple:
    """The setter of each slot of cls, in order. Calling them directly is
    the fastest way to fill an instance, which the trusted constructors of
    the values kernels build on every line do, skipping all checks."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)
