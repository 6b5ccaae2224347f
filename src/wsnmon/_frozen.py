"""The base of the package's immutable value classes.

They are plain slotted classes rather than dataclasses: importing
``dataclasses`` and building its generated methods is a large share of a
short ``wsn`` run's start-up. A subclass names its fields in ``_fields``,
lists them first in ``__slots__``, and sets every slot in ``__init__`` with
``_init``; a slot after the fields is a cache. Instances compare equal, hash
and print by their fields alone, and assigning to any attribute raises.
"""

from __future__ import annotations


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        """Set the slots, in ``__slots__`` order (the one way past ``__setattr__``)."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through the checks, caches empty
        return type(self), self._values()
