"""The cell digraph G_{w,h} and the reachability description of class supports.

``G_{w,h}`` has vertex set [n] and an edge ``j -> i`` exactly when
``j < i <= h(j)`` and ``w(j) < w(i)``; all edges increase the index, so the
graph is acyclic.  A set ``A`` is reachable from ``B`` (same sizes) when
the bipartite graph pairing sources ``b`` with targets ``a`` reachable from
``b`` admits a perfect matching.  The fixed points of the closed minus cell
attached to ``(w, h)`` are the permutations whose every prefix, pulled back
through ``w``, is reachable from an initial segment.  Many prefixes pull back
to the same index set, so ``support_A`` decides each set by one matching.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

from .gkm import HessenbergFunction
from .perms import Permutation, prefix_closed


class CellDigraph:

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        self.n = n
        self.edges = frozenset(edges)
        for j, i in self.edges:
            if not 1 <= j < i <= n:
                raise ValueError(f"edge ({j},{i}) must increase inside [1,{n}]")
        self._successors: dict[int, list[int]] = {}
        for j, i in sorted(self.edges):
            self._successors.setdefault(j, []).append(i)
        self._closure: dict[int, frozenset[int]] | None = None

    def successors(self, j: int) -> list[int]:
        """The heads of the edges out of ``j``, ascending; the same list on
        every call, which callers must not change."""
        return self._successors.get(j, [])

    def reach_closure(self) -> dict[int, frozenset[int]]:
        """Vertex -> set of reachable vertices (including itself)."""
        if self._closure is None:
            closure: dict[int, frozenset[int]] = {}
            # vertices in decreasing order: successors already resolved
            for j in range(self.n, 0, -1):
                reached = {j}
                for i in self.successors(j):
                    reached |= closure[i]
                closure[j] = frozenset(reached)
            self._closure = closure
        return self._closure

    def __repr__(self) -> str:
        return f"CellDigraph(n={self.n}, edges={sorted(self.edges)})"


def build_cell_digraph(w: Permutation, h: HessenbergFunction) -> CellDigraph:
    return CellDigraph(h.n, [(j, i) for j, i in h.pairs if w[j - 1] < w[i - 1]])


def vertex_reachable(g: CellDigraph, j: int, i: int) -> bool:
    return i in g.reach_closure()[j]


def _check_sorted(label: str, values) -> tuple[int, ...]:
    values = tuple(values)
    if list(values) != sorted(set(values)):
        raise ValueError(f"{label} must be strictly increasing, got {values}")
    return values


def set_reachable(g: CellDigraph, sources, targets) -> bool:
    """True when ``targets`` is reachable from ``sources`` (perfect matching).

    Both arguments are ascending tuples/sets of the same size.  Matching by
    augmenting paths over the reachability closure.
    """
    b = _check_sorted("sources", sorted(sources) if isinstance(sources, (set, frozenset)) else sources)
    a = _check_sorted("targets", sorted(targets) if isinstance(targets, (set, frozenset)) else targets)
    if len(a) != len(b):
        raise ValueError("sources and targets must have equal sizes")
    return _matchable(g.reach_closure(), b, a)


def _matchable(closure: dict[int, frozenset[int]], sources: tuple[int, ...],
               targets: tuple[int, ...]) -> bool:
    """``set_reachable`` on already checked sorted tuples of equal size."""
    adjacency = [[t for t, target in enumerate(targets) if target in closure[source]]
                 for source in sources]
    matched_target = [-1] * len(targets)

    def augment(s: int, seen: list[bool]) -> bool:
        for t in adjacency[s]:
            if not seen[t]:
                seen[t] = True
                if matched_target[t] == -1 or augment(matched_target[t], seen):
                    matched_target[t] = s
                    return True
        return False

    return all(augment(s, [False] * len(targets)) for s in range(len(sources)))


def j_family(w: Permutation, h: HessenbergFunction, j: int) -> set[tuple[int, ...]]:
    """Ascending j-tuples whose underlying set is reachable from [j]."""
    if not 1 <= j <= h.n:
        raise ValueError(f"level {j} outside [1,{h.n}]")
    closure = build_cell_digraph(w, h).reach_closure()
    initial = tuple(range(1, j + 1))
    return {
        combo
        for combo in itertools.combinations(range(1, h.n + 1), j)
        if _matchable(closure, initial, combo)
    }


@dataclass(frozen=True)
class SupportSet:
    w: Permutation
    h: HessenbergFunction
    members: frozenset[Permutation] = field(compare=False)

    def __contains__(self, u) -> bool:
        return tuple(u) in self.members

    def __len__(self) -> int:
        return len(self.members)

    def sorted(self) -> list[Permutation]:
        return sorted(self.members)


def support_A(w: Permutation, h: HessenbergFunction) -> SupportSet:
    """Fixed points of the closed minus cell of ``(w, h)``.

    ``u`` belongs when every index set ``{w^-1(u(1)), ..., w^-1(u(j))}`` is
    reachable from [j].  The walk runs over these pulled indices, ``u = w p``
    for the index sequence ``p``: ``prefix_closed`` drops a prefix as soon as
    its set fails, which kills every extension, and decides each set by one
    matching.
    """
    n = h.n
    closure = build_cell_digraph(w, h).reach_closure()

    def reachable(pulled: int) -> bool:
        targets = tuple(i for i in range(1, n + 1) if pulled >> (i - 1) & 1)
        return _matchable(closure, tuple(range(1, len(targets) + 1)), targets)

    members = frozenset(w * p for p in prefix_closed(n, reachable))
    return SupportSet(w=w, h=h, members=members)
