"""The base of radival's immutable value classes.

A subclass names its fields in _fields and keeps them, with any values it
derives once, in __slots__. Its __new__ checks the arguments and ends in
_of, the one place an instance is filled; equality, hashing and repr
follow the fields, and no field can be assigned later.
"""

from __future__ import annotations

_new = object.__new__
_set_field = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    @classmethod
    def _of(cls, *values: object) -> Value:
        """An instance with its slots set in order: the last step of a
        __new__, once the arguments are checked."""
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

