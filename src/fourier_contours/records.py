"""Record base classes, which every other module's records build on."""

import numpy as np


def _key(value):
    """A field as records compare and hash it: a numpy array by its dtype,
    shape and bytes, anything else as it is."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return value


class _Record:
    """A record whose fields are its __slots__, set in that order by __init__,
    with a dataclass's repr and equality, numpy fields compared by value.  A
    plain class, so defining a record runs no generated code at import time."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return tuple(map(_key, self._values())) == tuple(map(_key, other._values()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)})"

    def __reduce__(self):
        return type(self), self._values()


class _Frozen(_Record):
    """A read-only, hashable _Record."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(tuple(map(_key, self._values())))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
