"""The base of radival's immutable value classes.

A value is the tuple of the fields its class names in _fields, each read
by name through namedtuple's C-level getter. A subclass's __new__ checks
the arguments and ends in _of, the one place an instance is filled, and
copy and pickle rebuild through it. A value equals only a value of its
class with equal fields, never the bare tuple of them, and has no order.
"""

from __future__ import annotations

from collections import _tuplegetter


def _unordered(self: Value, other: object) -> bool:
    raise TypeError(f"no order between {type(self).__name__} and {type(other).__name__}")


class Value(tuple):
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        for index, name in enumerate(cls.__dict__.get("_fields", ())):
            setattr(cls, name, _tuplegetter(index, None))

    # cls._of(fields) is the instance holding the tuple of fields: the last
    # step of a __new__, once the arguments are checked
    _of = classmethod(tuple.__new__)

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__
    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(self)  # copy and pickle rebuild through __new__
