"""Sorted (key, value) pairs held as a key column and a value column:
read as a sequence of pairs (``dict()``, ``list()``, slicing, ``==``
against a list of pairs) without a tuple per pair.  The columns are not
named ``keys`` / ``values``: ``dict()`` reads anything with ``.keys`` as
a mapping."""

from __future__ import annotations

from collections.abc import Sequence
from operator import eq
from typing import Callable, Iterable, Tuple


class MappedColumn(Sequence):
    """``func(key)`` for each key of a key column, computed on access."""

    def __init__(self, func: Callable[[int], int], keys: Sequence) -> None:
        self.func, self.keys = func, keys

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return MappedColumn(self.func, self.keys[index])
        return self.func(self.keys[index])

    def __iter__(self):
        return map(self.func, self.keys)


class Pairs(Sequence):
    """A read-only sequence of ``(key, value)`` pairs over two columns."""

    def __init__(self, key_column: Sequence, value_column: Sequence) -> None:
        self.key_column, self.value_column = key_column, value_column

    @classmethod
    def of(cls, pairs: Iterable[Tuple[int, int]]) -> "Pairs":
        """*pairs* themselves if they are :class:`Pairs`, else their columns."""
        if isinstance(pairs, Pairs):
            return pairs
        return cls(*(tuple(zip(*pairs)) or ((), ())))

    def __len__(self) -> int:
        return len(self.key_column)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Pairs(self.key_column[index], self.value_column[index])
        return self.key_column[index], self.value_column[index]

    def __iter__(self):
        return zip(self.key_column, self.value_column)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Pairs, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))
