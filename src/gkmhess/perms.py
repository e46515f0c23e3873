"""Permutations of [n] = {1, ..., n} in one-line notation, and integer compositions.

A ``Permutation`` is a tuple subclass whose entry at index ``i-1`` is the
image ``w(i)``.  Because instances *are* tuples they hash and compare like
plain tuples, so they can be mixed freely with raw tuples as dict keys.

Multiplication is composition of functions: ``(u * v)(i) == u(v(i))``.
Left-multiplying by the simple reflection ``s_i`` swaps the *values* ``i``
and ``i+1``; right-multiplying swaps the entries in *positions* ``i`` and
``i+1``.

``Permutation(images)`` checks that ``images`` is a permutation of [n]; so do
``from_one_line`` and a product with a plain tuple, the ways a permutation
enters from outside.  Code that builds a permutation from another one by
construction (products, inverses, the constructors below, ``Permutation.all``,
``young_subgroup``, moment-graph neighbours, support leaves) skips the check
with ``tuple.__new__(Permutation, images)``.

``coxeter_length`` is the definition of the length, and every length the
package needs is counted by it; the one table of S_n per n, kept in ``gkm``,
serves the degree bases alone.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator


class Permutation(tuple):

    def __new__(cls, images: Iterable[int]) -> "Permutation":
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of [n]: {images!r}")
        return super().__new__(cls, images)

    @property
    def n(self) -> int:
        return len(self)

    def __call__(self, i: int) -> int:
        """Image ``w(i)`` for ``1 <= i <= n``."""
        return self[i - 1]

    def __mul__(self, other):  # type: ignore[override]
        if not isinstance(other, tuple):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError("size mismatch in composition")
        if not isinstance(other, Permutation):
            other = Permutation(other)
        return tuple.__new__(Permutation, [self[j - 1] for j in other])

    def inverse(self) -> "Permutation":
        inv = [0] * len(self)
        for i, v in enumerate(self):
            inv[v - 1] = i + 1
        return tuple.__new__(Permutation, inv)

    def descents(self) -> tuple[int, ...]:
        """Positions ``i`` with ``w(i) > w(i+1)``, ascending."""
        return tuple(i for i in range(1, len(self)) if self[i - 1] > self[i])

    def coxeter_length(self) -> int:
        """Number of inversions, i.e. pairs ``j < i`` with ``w(j) > w(i)``."""
        return sum(
            1
            for j in range(len(self))
            for i in range(j + 1, len(self))
            if self[j] > self[i]
        )

    def descent_composition(self) -> "Composition":
        return Composition.from_descent_set(self.descents(), len(self))

    def cycle_type(self) -> tuple[int, ...]:
        seen = [False] * len(self)
        lengths = []
        for start in range(len(self)):
            if seen[start]:
                continue
            length, cur = 0, start
            while not seen[cur]:
                seen[cur] = True
                cur = self[cur] - 1
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths, reverse=True))

    def one_line(self) -> str:
        if len(self) <= 9:
            return "".join(str(v) for v in self)
        return ",".join(str(v) for v in self)

    def __str__(self) -> str:
        return self.one_line()

    def __repr__(self) -> str:
        return f"Permutation({self.one_line()!r})"

    # -- constructors -------------------------------------------------

    @classmethod
    def from_one_line(cls, text: str) -> "Permutation":
        text = text.strip()
        if "," in text:
            return cls(int(part) for part in text.split(","))
        return cls(int(ch) for ch in text)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return tuple.__new__(cls, range(1, n + 1))

    @classmethod
    def simple(cls, i: int, n: int) -> "Permutation":
        """The adjacent transposition ``s_i`` exchanging ``i`` and ``i+1``."""
        return cls.transposition(i, i + 1, n)

    @classmethod
    def transposition(cls, a: int, b: int, n: int) -> "Permutation":
        if not (1 <= a <= n and 1 <= b <= n and a != b):
            raise ValueError(f"bad transposition ({a},{b}) in S_{n}")
        images = list(range(1, n + 1))
        images[a - 1], images[b - 1] = b, a
        return tuple.__new__(cls, images)

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        return tuple.__new__(cls, range(n, 0, -1))

    @classmethod
    def all(cls, n: int) -> Iterator["Permutation"]:
        """All of S_n in lexicographic order of one-line notation."""
        for images in itertools.permutations(range(1, n + 1)):
            yield tuple.__new__(cls, images)

    # -- structure ----------------------------------------------------

    def reduced_word(self) -> tuple[int, ...]:
        """A reduced word for ``w`` by bubble sort: ``w = s_{i_1} ... s_{i_k}``.

        Applying the word right to left as value-swaps to the identity
        rebuilds ``w``; its length equals ``coxeter_length()``.
        """
        word = []
        images = list(self)
        # repeatedly remove the descent found first, multiplying by s_i on
        # the right; reversing the record gives a word for w itself
        while True:
            for i in range(len(images) - 1):
                if images[i] > images[i + 1]:
                    images[i], images[i + 1] = images[i + 1], images[i]
                    word.append(i + 1)
                    break
            else:
                break
        return tuple(reversed(word))


def compose(u: Permutation, v: Permutation) -> Permutation:
    """Functional composition ``(u o v)(i) = u(v(i))``; sizes must match."""
    return Permutation(u) * v


def prefix_closed(n: int, keep: Callable[[int], bool]) -> list[Permutation]:
    """The permutations of [n] whose every prefix passes ``keep``, in no
    particular order.

    A prefix is handed to ``keep`` as the bitmask of its values (bit v - 1
    for v).  Prefixes grow one value at a time, and the prefixes with one
    value set grow together, so ``keep`` is asked once per set and added
    value, not once per prefix; the prefixes of a set that fails are
    dropped.
    """
    steps = [(1 << (v - 1), (v,)) for v in range(1, n + 1)]
    level: dict[int, list[tuple[int, ...]]] = {0: [()]}
    for _ in range(n):
        grown: dict[int, list[tuple[int, ...]]] = {}
        for mask, prefixes in level.items():
            for bit, value in steps:
                if not mask & bit and keep(mask | bit):
                    grown.setdefault(mask | bit, []).extend([prefix + value for prefix in prefixes])
        level = grown
    return [tuple.__new__(Permutation, prefix) for prefixes in level.values() for prefix in prefixes]


def young_subgroup(blocks: Iterable[Iterable[int]], n: int) -> Iterator[Permutation]:
    """The permutations of [n] that map each value block onto itself.

    The blocks partition [n]; each arrangement of each block is taken once.
    """
    sorted_blocks = [sorted(block) for block in blocks]
    for arrangement in itertools.product(*map(itertools.permutations, sorted_blocks)):
        images = [0] * n
        for block, arranged in zip(sorted_blocks, arrangement):
            for src, dst in zip(block, arranged):
                images[src - 1] = dst
        yield tuple.__new__(Permutation, images)


class Composition(tuple):
    """A sequence of positive integers; ``sum(parts)`` is the weight ``n``."""

    def __new__(cls, parts: Iterable[int]) -> "Composition":
        parts = tuple(parts)
        if not parts or any(p < 1 for p in parts):
            raise ValueError(f"composition parts must be positive: {parts!r}")
        return super().__new__(cls, parts)

    @property
    def n(self) -> int:
        return sum(self)

    def descent_set(self) -> tuple[int, ...]:
        """Partial sums except the last: S(a) as a subset of [n-1]."""
        out, acc = [], 0
        for part in self[:-1]:
            acc += part
            out.append(acc)
        return tuple(out)

    def partition(self) -> tuple[int, ...]:
        return tuple(sorted(self, reverse=True))

    @classmethod
    def from_descent_set(cls, descents: Iterable[int], n: int) -> "Composition":
        descents = sorted(descents)
        if descents and not (0 < descents[0] and descents[-1] < n):
            raise ValueError(f"descents {descents} not inside [1,{n-1}]")
        bounds = [0] + list(descents) + [n]
        return cls(bounds[k + 1] - bounds[k] for k in range(len(bounds) - 1))

    @classmethod
    def all(cls, n: int, parts: int | None = None) -> Iterator["Composition"]:
        """All compositions of ``n``, optionally with a fixed number of parts."""
        if parts is None:
            for k in range(1, n + 1):
                yield from cls.all(n, k)
            return
        if n < 1:
            raise ValueError(f"compositions of {n}: the weight must be positive")
        for cut in itertools.combinations(range(1, n), parts - 1):
            yield tuple.__new__(cls, [b - a for a, b in zip((0,) + cut, cut + (n,))])


def partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of ``n`` as weakly decreasing tuples, lexicographically descending."""
    if n == 0:
        yield ()
        return
    cap = n if max_part is None else min(n, max_part)
    for first in range(cap, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest
