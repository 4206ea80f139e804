"""The base of the package's immutable value types.

A value type lists its fields as class annotations, in order, and gives a
default as a class attribute, as a frozen dataclass would:

    class Graph(FrozenValue):
        vertex_count: int
        rows: tuple[int, ...]
        labels: tuple[str, ...] | None = None

`FrozenValue` reads the field names once, when the subclass is created, and
gives every subclass the same constructor, equality, hash and repr:

- the constructor binds positional and keyword arguments to the fields,
  fills in the defaults, stores the fields and then calls `__post_init__`,
  which may check them and normalise one through `object.__setattr__`;
- two values are equal when they are of the same class and their fields
  are equal, and a value hashes as the tuple of its fields;
- the repr is `Name(field=value, ...)`;
- assigning or deleting an attribute raises AttributeError.

Instances keep their `__dict__`, where `functools.cached_property` stores
what it computes.  Nothing here generates code, so importing this module
costs almost nothing, unlike `dataclasses`, which imports `inspect` and
builds each class's methods with `exec`.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenValue:
    """Fields from the class annotations; frozen, compared and hashed by value."""

    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a class's own annotations, in order; strings under postponed evaluation
        cls._fields = fields = tuple(cls.__annotations__)
        cls._defaults = {name: getattr(cls, name) for name in fields if name in vars(cls)}
        key = attrgetter(*fields)
        cls._key = staticmethod(key if len(fields) > 1 else lambda value: (key(value),))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        stored = self.__dict__
        for name, value in zip(self._fields, args):
            stored[name] = value
        self.__post_init__()

    def _bind(self, args, kwargs) -> list:
        """The field values in order, from positional and keyword arguments and the defaults."""
        name = type(self).__name__
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        bound = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in bound:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            bound[key] = value
        missing = [f for f in fields if f not in bound and f not in self._defaults]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(map(repr, missing))}")
        return [bound[f] if f in bound else self._defaults[f] for f in fields]

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")
