"""The cell digraph G_{w,h} and the reachability description of class supports.

``G_{w,h}`` has vertex set [n] and an edge ``j -> i`` exactly when
``j < i <= h(j)`` and ``w(j) < w(i)``; all edges increase the index, so the
graph is acyclic.  A set ``A`` is reachable from ``B`` (same sizes) when
the bipartite graph pairing sources ``b`` with targets ``a`` reachable from
``b`` admits a perfect matching.  Sets are bitmasks (bit i - 1 for i), and
the vertices each vertex reaches are one mask, ``CellDigraph.reach_masks``.

One recursion decides every reachability question.  With sources
b_1 < ... < b_k, a target set S of size k is reachable exactly when some t
in S that b_k reaches leaves S - t reachable from b_1, ..., b_{k-1}: every
perfect matching pairs b_k with such a t.  ``_reachable_subsets`` runs it
over all subsets at once.  The fixed points of the closed minus cell
attached to ``(w, h)`` are the permutations whose every prefix, pulled back
through ``w``, is reachable from an initial segment, so ``support_A`` reads
them off one table over the 2^n value sets and returns them as a
``frozenset``, the shape ``cells.fixed_point_oracle`` returns too.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Sequence

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

    def successors(self, j: int) -> list[int]:
        """The heads of the edges out of ``j``, ascending; the same list on
        every call, which callers must not change."""
        return self._successors.get(j, [])

    @functools.cached_property
    def reach_masks(self) -> tuple[int, ...]:
        """Entry j - 1 is the mask of the vertices that j reaches, j included."""
        reach = [0] * self.n
        # vertices in decreasing order: successors already resolved
        for j in range(self.n, 0, -1):
            mask = 1 << (j - 1)
            for i in self.successors(j):
                mask |= reach[i - 1]
            reach[j - 1] = mask
        return tuple(reach)

    def __repr__(self) -> str:
        return f"CellDigraph(n={self.n}, edges={sorted(self.edges)})"


def build_cell_digraph(w: Permutation, h: HessenbergFunction) -> CellDigraph:
    return CellDigraph(h.n, [(j, i) for j, i in h.pairs if w[j - 1] < w[i - 1]])


def vertex_reachable(g: CellDigraph, j: int, i: int) -> bool:
    return bool(g.reach_masks[j - 1] >> (i - 1) & 1)


def _reachable_subsets(source_reach: Sequence[int], within: int) -> bytearray:
    """``table[S]`` is 1 exactly when ``S``, a subset of ``within`` of size
    at most ``len(source_reach)``, is reachable from the first |S| sources.

    ``source_reach[k - 1]`` is the reach mask of source b_k.  The subsets
    grow by size: each reachable S - t of size k - 1 and each t outside it
    that b_k reaches give the reachable S, which is the recursion of the
    module docstring run forward.
    """
    table = bytearray(within + 1)
    table[0] = 1
    level = [0]
    for reach in source_reach:
        grown = []
        for subset in level:
            free = reach & within & ~subset
            while free:
                t = free & -free
                free ^= t
                if not table[subset | t]:
                    table[subset | t] = 1
                    grown.append(subset | t)
        level = grown
    return table


def _mask(values: Iterable[int]) -> int:
    return sum(1 << (v - 1) for v in values)


def _check_sorted(label: str, values) -> tuple[int, ...]:
    values = tuple(values)
    if list(values) != sorted(set(values)):
        raise ValueError(f"{label} must be strictly increasing, got {values}")
    return values


def set_reachable(g: CellDigraph, sources, targets) -> bool:
    """True when ``targets`` is reachable from ``sources`` (perfect matching).

    Both arguments are ascending tuples/sets of the same size.
    """
    b = _check_sorted("sources", sorted(sources) if isinstance(sources, (set, frozenset)) else sources)
    a = _check_sorted("targets", sorted(targets) if isinstance(targets, (set, frozenset)) else targets)
    if len(a) != len(b):
        raise ValueError("sources and targets must have equal sizes")
    within = _mask(a)
    return bool(_reachable_subsets([g.reach_masks[s - 1] for s in b], within)[within])


def j_family(w: Permutation, h: HessenbergFunction, j: int) -> set[tuple[int, ...]]:
    """Ascending j-tuples whose underlying set is reachable from [j]."""
    if not 1 <= j <= h.n:
        raise ValueError(f"level {j} outside [1,{h.n}]")
    table = _reachable_subsets(build_cell_digraph(w, h).reach_masks[:j], (1 << h.n) - 1)
    return {combo for combo in itertools.combinations(range(1, h.n + 1), j) if table[_mask(combo)]}


def _support_table(w: Permutation, h: HessenbergFunction) -> bytearray:
    """``table[U]`` is 1 exactly when the value set ``U`` pulls back through
    ``w`` to a set reachable from [|U|].  Pulling back is a relabelling, so
    the recursion runs on the images under ``w`` of the reach masks."""
    reach = build_cell_digraph(w, h).reach_masks
    return _reachable_subsets(
        [_mask(w[i] for i in range(h.n) if mask >> i & 1) for mask in reach], (1 << h.n) - 1
    )


def support_A(w: Permutation, h: HessenbergFunction) -> frozenset[Permutation]:
    """Fixed points of the closed minus cell of ``(w, h)``.

    ``u`` belongs when every index set ``{w^-1(u(1)), ..., w^-1(u(j))}`` is
    reachable from [j].  ``prefix_closed`` walks the prefixes of ``u``
    itself, reading each prefix's value set off ``_support_table``, and
    drops a prefix as soon as its set fails, which kills every extension.
    """
    return frozenset(prefix_closed(h.n, _support_table(w, h).__getitem__))
