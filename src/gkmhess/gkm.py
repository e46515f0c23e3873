"""Hessenberg functions and the moment (GKM) graph of Hess(S, h).

The Hessenberg pairs ``j < i <= h(j)`` are enumerated once, as
``HessenbergFunction.pairs``; the moment graph, ``l_h``, the cell digraph
and the incomparability graph are all read off them.

Vertices of the graph are the permutations of [n].  For each pair there is
an edge ``w -> w s_{j,i}`` labeled ``t_a - t_b`` with ``a = w(i)`` and
``b = w(j)``; the label is carried as its variable indices ``(a, b)``, and
the two directions of an edge carry ``(a, b)`` and ``(b, a)``.  The
oriented subgraph keeps ``v -> v s_{j,i}`` when ``v(j) > v(i)``, which is
when ``v s_{j,i}`` is shorter in Coxeter length.

Each n has one table of S_n, shared by every h of that n:
``Permutation.all(n)`` and, for each ``w``, the mask of the pairs ``j < i``
with ``w(j) > w(i)``.  Pairs have one numbering, lexicographic, (1,2), ...,
(1,n), (2,3), ..., which the table's recurrence needs and ``mask_of_pairs``
gives.  ``l_h(w)`` is the popcount of ``w``'s mask and ``h``'s pairs, so the
degree bases are read off the table; ``degree_bases`` is its only reader in
the package, and a question about one permutation, its Coxeter length
included, is decided on that permutation.  ``verify_poincare`` derives its
masks from the definition and never reads the table, so the two derivations
of the Betti numbers stay independent.  ``l_h`` stays the definition that
classes and the CLI read.
"""

from __future__ import annotations

import itertools
import random
from array import array
from enum import Enum
from functools import cache, lru_cache
from operator import or_
from typing import Iterable, Iterator

from .perms import Permutation


class HessenbergFunction(tuple):
    """Weakly increasing ``h : [n] -> [n]`` with ``h(i) >= i``.

    ``pairs`` holds the Hessenberg pairs ``(j, i)`` with ``j < i <= h(j)``,
    lexicographically; there are as many as the top cohomology degree.
    """

    pairs: tuple[tuple[int, int], ...]

    def __new__(cls, values: Iterable[int]) -> "HessenbergFunction":
        values = tuple(values)
        n = len(values)
        for i, v in enumerate(values, start=1):
            if not i <= v <= n:
                raise ValueError(f"h({i}) = {v} outside [{i},{n}]")
        if any(values[k] > values[k + 1] for k in range(n - 1)):
            raise ValueError(f"not weakly increasing: {values}")
        self = super().__new__(cls, values)
        self.pairs = tuple(
            (j, i) for j in range(1, n + 1) for i in range(j + 1, values[j - 1] + 1)
        )
        return self

    @property
    def n(self) -> int:
        return len(self)

    def __call__(self, i: int) -> int:
        return self[i - 1]

    def __str__(self) -> str:
        return ",".join(str(v) for v in self)

    @classmethod
    def from_string(cls, text: str) -> "HessenbergFunction":
        values = []
        for part in text.split(","):
            try:
                values.append(int(part))
            except ValueError:
                raise ValueError(f"{part!r} is not an integer") from None
        return cls(values)

    @classmethod
    def permutohedral(cls, n: int) -> "HessenbergFunction":
        return cls([min(i + 1, n) for i in range(1, n + 1)])

    @classmethod
    def full_flag(cls, n: int) -> "HessenbergFunction":
        return cls([n] * n)

    def is_permutohedral(self) -> bool:
        return self == HessenbergFunction.permutohedral(self.n)

    def is_full_flag(self) -> bool:
        return all(v == self.n for v in self)

    @classmethod
    def all(cls, n: int) -> Iterator["HessenbergFunction"]:
        """All Hessenberg functions on [n] (Catalan many), lexicographically."""

        def extend(prefix: list[int]) -> Iterator[tuple[int, ...]]:
            i = len(prefix)
            if i == n:
                yield tuple(prefix)
                return
            lo = max(i + 1, prefix[-1] if prefix else 1)
            for v in range(lo, n + 1):
                yield from extend(prefix + [v])

        for values in extend([]):
            yield cls(values)

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "HessenbergFunction":
        values: list[int] = []
        for i in range(1, n + 1):
            lo = max(i, values[-1] if values else 1)
            values.append(rng.randint(lo, n))
        return cls(values)


class GkmGraph:
    """The labeled moment graph on S_n for a fixed Hessenberg function."""

    def __init__(self, h: HessenbergFunction):
        self.h = h
        self.n = h.n

    def vertices(self) -> Iterator[Permutation]:
        return Permutation.all(self.n)

    def neighbors(self, w: Permutation) -> list[tuple[Permutation, int, int]]:
        """Edges out of the permutation ``w``: (target, a, b) with label ``t_a - t_b``."""
        return _edges(w, self.h.pairs)

    def edges(self) -> Iterator[tuple[Permutation, Permutation, int, int]]:
        """Each geometric edge once, as (v, w, a, b) with label(v->w) = t_a - t_b."""
        for v in self.vertices():
            for w, a, b in self.neighbors(v):
                if v < w:
                    yield v, w, a, b

    def oriented_out(self, w: Permutation) -> list[tuple[Permutation, int, int]]:
        """Edges of the oriented subgraph leaving ``w`` (targets of smaller length):
        ``w s_{j,i}`` is shorter than ``w`` exactly when ``w(j) > w(i)``."""
        return _edges(w, [(j, i) for j, i in self.h.pairs if w[j - 1] > w[i - 1]])


def _edges(w: Permutation, pairs) -> list[tuple[Permutation, int, int]]:
    """The edges ``w -> w s_{j,i}`` for the given pairs, as (target, a, b)."""
    out = []
    for j, i in pairs:
        images = list(w)
        images[j - 1], images[i - 1] = images[i - 1], images[j - 1]
        out.append((tuple.__new__(Permutation, images), w[i - 1], w[j - 1]))
    return out


def l_h(w: Permutation, h: HessenbergFunction) -> int:
    """Count of pairs ``j < i <= h(j)`` with ``w(j) > w(i)``."""
    return sum(1 for j, i in h.pairs if w[j - 1] > w[i - 1])


def mask_of_pairs(pairs: Iterable[tuple[int, int]], n: int) -> int:
    """The pairs ``(j, i)``, ``j < i <= n``, as a mask in the table's
    numbering: bit ``(j-1)(2n-j)/2 + i-j-1``, lexicographically."""
    return sum(1 << ((j - 1) * (2 * n - j) // 2 + i - j - 1) for j, i in pairs)


# the pairs j < i of [11] are 55 bits, the most that one array("Q") entry holds
_MAX_TABLE_N = 11


@cache
def _inversion_table(n: int) -> tuple[tuple[Permutation, ...], array]:
    """``Permutation.all(n)`` and, per ``w``, the mask of its inverted pairs.

    Pair ``(j, i)`` has its bit of ``mask_of_pairs``, lexicographically.
    Built by a recurrence on n: in the order of ``Permutation.all``, the
    ``w = (v, rest)`` with first value ``v`` form one block, whose ``rest``
    runs through S_{n-1} in its own order, as the ``u`` with the same
    relative order.  The pairs ``(j+1, i+1)`` of ``w`` are the pairs
    ``(j, i)`` of ``u``, ``n-1`` bits higher, and ``w`` inverts ``(1, i)``
    exactly when ``u(i-1) < v``.
    """
    if n > _MAX_TABLE_N:
        raise ValueError(f"inversion table needs n <= {_MAX_TABLE_N} "
                         f"(C(n,2) bits in 64), got n = {n}")
    masks = array("Q", [0])
    for m in range(2, n + 1):
        high = array("Q", [mask << (m - 1) for mask in masks])
        low = array("Q", [0]) * len(high)  # per u, the positions of the values below v
        masks = array("Q")
        for v in range(m):
            masks.extend(map(or_, high, low))
            if v < m - 1:
                low = array("Q", map(or_, low, [1 << u.index(v) for u in
                                                itertools.permutations(range(m - 1))]))
    return tuple(Permutation.all(n)), masks


@lru_cache(maxsize=16)
def degree_bases(h: HessenbergFunction) -> tuple[tuple[Permutation, ...], ...]:
    """For k = 0..top, the ``w`` with ``l_h(w) = k`` in the order of
    ``Permutation.all``: each ``w`` goes in the degree of the popcount of its
    inversion-table mask and ``mask_of_pairs(h.pairs)``.  Every h of one n
    shares the table's ``Permutation`` objects.  ``verify_poincare`` checks
    the counts against out-degrees from masks it derives itself, so it never
    reads the table it checks."""
    perms, masks = _inversion_table(h.n)
    pair_mask = mask_of_pairs(h.pairs, h.n)
    bases: list[list[Permutation]] = [[] for _ in range(len(h.pairs) + 1)]
    for w, mask in zip(perms, masks):
        bases[(mask & pair_mask).bit_count()].append(w)
    return tuple(map(tuple, bases))


def poincare_coefficients(h: HessenbergFunction) -> tuple[int, ...]:
    """Coefficient of q^{2k} is the number of w with l_h(w) = k."""
    return tuple(map(len, degree_bases(h)))


class EdgeKind(Enum):
    SOLID_UP = "solid_up"      # w -> s_i w, i.e. len(w) > len(s_i w), connected
    SOLID_DOWN = "solid_down"  # s_i w -> w, i.e. len(s_i w) > len(w), connected
    DASHED = "dashed"          # not connected in the moment graph


def edge_kind(w: Permutation, i: int, h: HessenbergFunction) -> EdgeKind:
    """Classify the pair ``{w, s_i w}`` relative to the moment graph of ``h``.

    With ``j`` and ``k`` the positions of ``i+1`` and ``i`` in the
    longer of the two permutations (so ``j < k``), the pair is connected
    exactly when ``k <= h(j)``.
    """
    w_inv = w.inverse()
    j, k = w_inv(i + 1), w_inv(i)
    higher_is_w = j < k
    if not higher_is_w:
        j, k = k, j
    connected = k <= h(j)
    if not connected:
        return EdgeKind.DASHED
    return EdgeKind.SOLID_UP if higher_is_w else EdgeKind.SOLID_DOWN
