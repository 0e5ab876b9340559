"""Value records with their methods written out.

Each record class lists its constructor's parameters in `_fields` and
writes its own `__init__`, one line per field, as `@dataclass` would
generate it.  The bases give it equality between instances of one class
over its fields, the `Name(field=value, ...)` repr, and, for `Frozen`, a
hash over the same fields and attributes that cannot be assigned or
deleted.  The hot value types of `symbolic` and `arith` also write
`__eq__` and `__hash__` out field by field, with no loop over the fields.
Instances keep their `__dict__`, so they pickle, copy and take
`functools.cached_property`.
"""

from __future__ import annotations

__all__ = ["FRESH", "Frozen", "Record", "replace"]

# The default of a field that gets a new empty dict per instance.
FRESH = object()


class Record:
    """A mutable record, compared and shown over its fields.

    A subclass sets `_fields`, and `_compared` (the fields `==` reads) or
    `_shown` (the fields the repr lists) when these are not all of them.
    A class that defines `__eq__` is unhashable unless it defines
    `__hash__` too, as `Frozen` does.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._compared = cls.__dict__.get("_compared", cls._fields)
        cls._shown = cls.__dict__.get("_shown", cls._fields)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"


class Frozen(Record):
    """An immutable, hashable record.

    Its `__init__` sets each field with `object.__setattr__(self, name,
    value)`, past `__setattr__`.  That keeps the attributes in the
    instance's compact per-class layout: writing to `vars(self)` would turn
    it into a plain dict, and reading attributes would take twice as long.
    """

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def replace(obj: Record, /, **changes) -> Record:
    """A new record of obj's class, with the given fields changed and the
    others as in obj, built through the constructor."""
    values = {name: getattr(obj, name) for name in obj._fields}
    values.update(changes)
    return type(obj)(**values)
