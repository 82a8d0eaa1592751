"""Immutable value classes that are not tuples.

The result records are typing.NamedTuple classes. A tuple equals any tuple
with the same fields, and json.dumps writes it as an array, so the machine
descriptors, the weight table, PairListing and Interval derive from Value
instead. Each names its compared fields in _fields and keeps them, and what
it derives from them, in __slots__. Its __init__ sets each once through
object.__setattr__; any later assignment raises AttributeError. Two values
are equal, and hash alike, only when they have one class and equal fields.
"""


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((type(self), self._values()))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")
