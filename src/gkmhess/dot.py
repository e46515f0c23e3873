"""The symmetric-group dot action on equivariant classes.

``(u . p)(v) = p(u^{-1} v)`` with the variables permuted by ``u``.  The
action preserves the divisibility conditions, transports supports by left
multiplication, and restricts to each cohomology degree.

For the permutohedral Hessenberg function, the action of a simple
reflection on a basis class has an exact combinatorial expansion.  Three
cases, by the positions of the values ``i`` and ``i+1`` in ``w``:

* not adjacent: the class moves to the class of ``s_i w``;
* ``i`` directly left of ``i+1``: the class is fixed;
* ``i+1`` directly left of ``i``: the interesting case.  An auxiliary sum
  of classes indexed by subsets of the entries flanking the descent block
  satisfies the exact identity
  ``(t_{i+1} - t_i) sigma_{s_i w} = s_i . aux - aux``, which unwinds to an
  expansion of ``s_i . sigma_w`` with recursive corrections.

One memoized recursion, ``_SiExpansionCache``, computes this expansion over
either of two coefficient rings.  ``_PolyRing`` keeps the polynomials in
``t`` (``perm_si_action``, ``gkmhess dot``).  ``_ConstantRing`` keeps
integers at t = 0, the ordinary action that ``generator_matrix`` needs.
Evaluation at t = 0 is a ring map that commutes with permuting the variables
and kills the root ``t_{i+1} - t_i``, and the recursion uses nothing but the
ring operations, those roots and that action.  So the integer run yields
exactly the constant terms of the polynomial run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .classes import (
    EquivariantClass,
    InterpolationResult,
    interpolate_class,
    permutohedral_class,
    reduce_to_ordinary,
)
from .gkm import EdgeKind, HessenbergFunction, edge_kind, l_h
from .perms import Permutation, SymmetricGroup
from .polys import Coeff, MultiPoly


def dot(u: Permutation, p: EquivariantClass) -> EquivariantClass:
    u = Permutation(u)
    values = {}
    for x, poly in p.values.items():
        values[u * x] = poly.substitute_permutation(u)
    return EquivariantClass(p.n, values)


# -- exact rules for the full flag variety -----------------------------------


def full_flag_si_expansion(w: Permutation, i: int) -> dict[Permutation, MultiPoly]:
    """Expansion of ``s_i . sigma_w`` over basis classes, full-flag case.

    ``sigma_w`` is fixed when ``s_i w`` is longer; otherwise the difference
    is ``(t_{i+1} - t_i) sigma_{s_i w}``.
    """
    n = len(w)
    si_w = Permutation.simple(i, n) * w
    length = SymmetricGroup(n).length
    if length[si_w] > length[w]:
        return {w: MultiPoly.one(n)}
    return {
        w: MultiPoly.one(n),
        si_w: MultiPoly.linear_form(i + 1, i, n),
    }


def full_flag_si_rule_check(w: Permutation, i: int) -> bool:
    """``full_flag_si_expansion`` on actual interpolated classes."""
    n = len(w)
    h = HessenbergFunction.full_flag(n)
    expected = EquivariantClass.zero(n)
    for v, coeff in full_flag_si_expansion(w, i).items():
        expected = expected + flow_up_class(v, h).cls.scale(coeff)
    return dot(Permutation.simple(i, n), flow_up_class(w, h).cls) == expected


def dashed_rule_check(w: Permutation, i: int, h: HessenbergFunction) -> bool:
    """``s_i . sigma_w = sigma_{s_i w}`` whenever the pair is not an edge."""
    if edge_kind(w, i, h) is not EdgeKind.DASHED:
        raise ValueError("rule applies to dashed pairs only")
    si = Permutation.simple(i, h.n)
    return dot(si, flow_up_class(w, h).cls) == flow_up_class(si * w, h).cls


# -- the flow-up basis ---------------------------------------------------------

# Flow-up classes, one dict per h filled one class at a time.
_bases: dict[HessenbergFunction, dict[Permutation, InterpolationResult]] = {}


def flow_up_class(w: Permutation, h: HessenbergFunction) -> InterpolationResult:
    """The flow-up class of ``(w, h)``, computed once per (w, h) while h is held.

    For the permutohedral h it is the closed form ``permutohedral_class(w)``,
    with no free parameters; for any other h, ``interpolate_class(w, h)``.
    Where interpolation leaves free parameters, the representative sets them
    to 0.  It is still homogeneous of degree ``l_h(w)``, vanishes off
    ``A(w)`` and is nonzero at ``w``, the unique length-minimal point of
    ``A(w)``, so the classes form a basis (Guillemin-Zara) whether or not
    each one is unique.
    """
    basis = _held(_bases, h, dict)
    result = basis.get(w)
    if result is None:
        if h.is_permutohedral():
            result = InterpolationResult(cls=permutohedral_class(w), free_parameters=0)
        else:
            result = interpolate_class(w, h)
        basis[w] = result
    return result


def flow_up_basis(h: HessenbergFunction) -> dict[Permutation, EquivariantClass]:
    """One flow-up class per fixed point, as ``flow_up_class`` gives it."""
    return {w: flow_up_class(w, h).cls for w in Permutation.all(h.n)}


# -- permutohedral machinery --------------------------------------------------


@dataclass(frozen=True)
class AuxiliaryTerm:
    """One summand of the auxiliary class: ``mover . sigma_target``."""
    tilde: Permutation
    target: Permutation
    mover: Permutation


def descent_block_data(w: Permutation, i: int):
    """The flanking entry sets around the descent where ``i+1`` sits left of ``i``."""
    n = len(w)
    w_inv = w.inverse()
    if w_inv(i + 1) + 1 != w_inv(i):
        raise ValueError(f"values {i + 1},{i} are not adjacent-descending in {w}")
    d_here = w_inv(i + 1)
    descents = w.descents()
    index = descents.index(d_here)
    d_prev = descents[index - 1] if index > 0 else 0
    d_next = descents[index + 1] if index + 1 < len(descents) else n
    low = tuple(w(j) for j in range(d_prev + 1, d_here))
    high = tuple(w(j) for j in range(d_here + 2, d_next + 1))
    return d_prev, d_here, d_next, low, high


def auxiliary_terms(w: Permutation, i: int) -> list[AuxiliaryTerm]:
    """All ``(P, Q)``-summands of the auxiliary class for the descent case."""
    from itertools import chain, combinations

    n = len(w)
    d_prev, d_here, d_next, low, high = descent_block_data(w, i)

    def subsets(values):
        return chain.from_iterable(
            combinations(values, k) for k in range(len(values) + 1)
        )

    w_descents = set(w.descents())
    terms = []
    for p_set in subsets(low):
        for q_set in subsets(high):
            middle = sorted((set(low) | set(high) | {i}) - set(p_set) - set(q_set))
            images = (
                [w(j) for j in range(1, d_prev + 1)]
                + list(p_set)
                + [i + 1]
                + list(q_set)
                + middle
                + [w(j) for j in range(d_next + 1, n + 1)]
            )
            tilde = tuple.__new__(Permutation, images)
            corrected = list(images)
            tilde_descents = set(tilde.descents())
            if d_prev != 0 and d_prev not in tilde_descents:
                # restore the prefix boundary descent by inserting the first
                # window entry into the descending run ending at d_prev
                pos = d_prev
                corrected[pos - 1], corrected[pos] = corrected[pos], corrected[pos - 1]
                while (
                    pos - 1 >= 1
                    and pos - 1 in w_descents
                    and corrected[pos - 2] < corrected[pos - 1]
                ):
                    corrected[pos - 2], corrected[pos - 1] = (
                        corrected[pos - 1],
                        corrected[pos - 2],
                    )
                    pos -= 1
            if d_next != n and d_next not in tilde_descents:
                # symmetric insertion into the descending run starting after
                # the window
                pos = d_next
                corrected[pos - 1], corrected[pos] = corrected[pos], corrected[pos - 1]
                while (
                    pos + 1 <= n - 1
                    and pos + 1 in w_descents
                    and corrected[pos] < corrected[pos + 1]
                ):
                    corrected[pos], corrected[pos + 1] = (
                        corrected[pos + 1],
                        corrected[pos],
                    )
                    pos += 1
            target = tuple.__new__(Permutation, corrected)
            expected = (w_descents - {d_here}) | {d_prev + len(p_set) + len(q_set) + 1}
            if set(target.descents()) != expected:
                raise AssertionError(
                    f"descent correction failed: w={w}, i={i}, P={p_set}, Q={q_set}"
                )
            mover = tilde * target.inverse()
            terms.append(AuxiliaryTerm(tilde=tilde, target=target, mover=mover))
    return terms


def build_auxiliary_class(w: Permutation, i: int) -> EquivariantClass:
    """The sum ``sum_{P,Q} mover . sigma_target`` as an explicit class."""
    n = len(w)
    total = EquivariantClass.zero(n)
    for term in auxiliary_terms(w, i):
        total = total + dot(term.mover, permutohedral_class(term.target))
    return total


class _PolyRing:
    """Coefficients in Z[t_1..t_n]: the equivariant expansion."""

    def __init__(self, n: int):
        self.n = n
        self.one = MultiPoly.one(n)
        self._simple = {i: Permutation.simple(i, n) for i in range(1, n)}

    def root(self, i: int) -> MultiPoly:
        """``t_{i+1} - t_i``."""
        return MultiPoly.linear_form(i + 1, i, self.n)

    def act(self, i: int, coeff: MultiPoly) -> MultiPoly:
        """``s_i`` on a coefficient: exchange ``t_i`` and ``t_{i+1}``."""
        return coeff.substitute_permutation(self._simple[i])

    @staticmethod
    def is_zero(coeff: MultiPoly) -> bool:
        return coeff.is_zero


class _ConstantRing:
    """Coefficients evaluated at t = 0: the ordinary expansion.

    Evaluation at 0 is a ring map that commutes with permuting the variables
    and sends the root ``t_{i+1} - t_i`` to 0, so the same recursion run on
    these integers gives exactly the constant terms of the polynomial one.
    """

    one = 1

    def __init__(self, n: int):
        self.n = n

    @staticmethod
    def root(i: int) -> int:
        return 0

    @staticmethod
    def act(i: int, coeff: int) -> int:
        return coeff

    @staticmethod
    def is_zero(coeff: int) -> bool:
        return not coeff


class _SiExpansionCache:
    """Memoized expansions of ``s_i . sigma_w`` over the basis classes.

    Values are dicts mapping basis permutations to nonzero coefficients in
    ``ring``: polynomials (``_PolyRing``) or their values at t = 0
    (``_ConstantRing``).  A recursion guard raises on re-entry for the same
    pair, which the underlying identities rule out in practice.
    """

    def __init__(self, n: int, ring):
        self.n = n
        self.ring = ring(n)
        self.cache: dict[tuple[Permutation, int], dict[Permutation, object]] = {}
        self.in_progress: set[tuple[Permutation, int]] = set()
        self._depth_limit = math.factorial(n)

    def expansion(self, w: Permutation, i: int) -> dict[Permutation, object]:
        key = (w, i)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        if key in self.in_progress:
            raise RecursionError(f"cyclic expansion request at w={w}, i={i}")
        if len(self.in_progress) > self._depth_limit:
            raise RecursionError("expansion recursion exceeded the depth guard")
        self.in_progress.add(key)
        try:
            result = self._compute(w, i)
        finally:
            self.in_progress.discard(key)
        self.cache[key] = result
        return result

    def _compute(self, w: Permutation, i: int) -> dict[Permutation, object]:
        ring = self.ring
        w_inv = w.inverse()
        j, k = w_inv(i), w_inv(i + 1)
        si = Permutation.simple(i, self.n)
        if abs(j - k) > 1:
            # descent pattern unchanged: the class moves along
            return {si * w: ring.one}
        if j + 1 == k:
            # ascent i, i+1: acting from below fixes the class
            return {w: ring.one}

        # descent case: unwind the auxiliary identity
        result: dict[Permutation, object] = {}
        _add(result, si * w, ring.root(i))
        _add(result, w, ring.one)
        for term in auxiliary_terms(w, i):
            if term.tilde == w:
                continue  # the (P~, empty) summand is sigma_w itself
            summand = self._apply_word(term.mover.reduced_word(), {term.target: ring.one})
            moved = self._apply_word((i,), summand)
            for v, coeff in summand.items():
                _add(result, v, coeff)
            for v, coeff in moved.items():
                _add(result, v, -coeff)
        return {v: c for v, c in result.items() if not ring.is_zero(c)}

    def _apply_word(self, word, expansion):
        """Apply ``s_{word[0]} ... s_{word[-1]}`` (left to right) to an expansion."""
        ring = self.ring
        current = expansion
        for gen in reversed(word):
            nxt: dict[Permutation, object] = {}
            for v, coeff in current.items():
                moved_coeff = ring.act(gen, coeff)
                for target, inner in self.expansion(v, gen).items():
                    _add(nxt, target, moved_coeff * inner)
            current = {v: c for v, c in nxt.items() if not ring.is_zero(c)}
        return current


def _add(acc: dict, key: Permutation, coeff) -> None:
    previous = acc.get(key)
    acc[key] = coeff if previous is None else previous + coeff


# One expansion cache per (n, ring).
_caches: dict[tuple[int, type], _SiExpansionCache] = {}
_CACHE_BOUND = 4


def _held(table: dict, key, make):
    """``table[key]``, made on a miss; the oldest key goes beyond ``_CACHE_BOUND``."""
    value = table.get(key)
    if value is None:
        if len(table) >= _CACHE_BOUND:
            del table[next(iter(table))]
        value = table[key] = make()
    return value


def _expansion_cache(n: int, ring: type) -> _SiExpansionCache:
    return _held(_caches, (n, ring), lambda: _SiExpansionCache(n, ring))


def perm_si_action(w: Permutation, i: int) -> dict[Permutation, MultiPoly]:
    """Exact expansion of ``s_i . sigma_w`` over the permutohedral basis.

    The recursion is the one ``generator_matrix`` runs at t = 0; here it
    runs on polynomial coefficients.
    """
    w = Permutation(w)
    return _expansion_cache(len(w), _PolyRing).expansion(w, i)


# -- action matrices -----------------------------------------------------------


@dataclass
class ActionMatrix:
    """Exact matrix of a group element on one ordinary cohomology degree.

    ``columns[w]`` is the image of basis vector ``w``, with only its nonzero
    entries stored, so equal matrices have equal columns.  Entries are
    exact: ``int`` where integral, ``Fraction`` otherwise.  Mixed
    ``int``/``Fraction`` arithmetic is exact, so products and traces stay
    ``int`` as long as the entries are.
    """

    basis_order: tuple[Permutation, ...]
    columns: dict[Permutation, dict[Permutation, Coeff]]

    def entry(self, row: Permutation, col: Permutation) -> Coeff:
        return self.columns.get(col, {}).get(row, 0)

    def apply_vector(self, vec: dict[Permutation, Coeff]) -> dict[Permutation, Coeff]:
        out: dict[Permutation, Coeff] = {}
        for col, coeff in vec.items():
            if not coeff:
                continue
            for row, val in self.columns.get(col, {}).items():
                acc = out.get(row, 0) + coeff * val
                if acc:
                    out[row] = acc
                else:
                    out.pop(row, None)
        return out

    def compose(self, other: "ActionMatrix") -> "ActionMatrix":
        """Matrix of ``self`` after ``other`` (self @ other)."""
        columns = {
            col: self.apply_vector(vec) for col, vec in other.columns.items()
        }
        return ActionMatrix(self.basis_order, columns)

    @classmethod
    def identity(cls, basis_order: tuple[Permutation, ...]) -> "ActionMatrix":
        return cls(basis_order, {w: {w: 1} for w in basis_order})

    def trace(self) -> Coeff:
        return sum(self.columns.get(w, {}).get(w, 0) for w in self.basis_order)


@lru_cache(maxsize=256)
def degree_basis(h: HessenbergFunction, k: int) -> tuple[Permutation, ...]:
    """The ``w`` with ``l_h(w) = k``, in the order of ``Permutation.all``.

    Cached with a fixed bound: every generator matrix and every composed
    product of a degree asks for it, and it scans all of S_n.
    """
    return tuple(w for w in Permutation.all(h.n) if l_h(w, h) == k)


def generator_matrix(i: int, k: int, h: HessenbergFunction) -> ActionMatrix:
    """Matrix of ``s_i`` on ordinary degree-2k cohomology.

    One route per family.  Permutohedral h: the recursion of
    ``perm_si_action`` run on integers at t = 0.  Full flag: the identity,
    the t = 0 image of ``full_flag_si_expansion``, whose only other term
    carries the root ``t_{i+1} - t_i``.  Any other h: each column is
    ``reduce_to_ordinary`` of ``s_i . sigma_w`` over ``flow_up_basis(h)``.
    """
    order = degree_basis(h, k)
    if h.is_full_flag():
        return ActionMatrix.identity(order)
    if h.is_permutohedral():
        degree_set = frozenset(order)
        cache = _expansion_cache(h.n, _ConstantRing)
        columns = {
            w: {v: c for v, c in cache.expansion(w, i).items() if v in degree_set}
            for w in order
        }
        return ActionMatrix(order, columns)
    basis = flow_up_basis(h)
    si = Permutation.simple(i, h.n)
    return ActionMatrix(
        order, {w: reduce_to_ordinary(dot(si, basis[w]), k, h, basis) for w in order}
    )


def action_matrix(u: Permutation, k: int, h: HessenbergFunction) -> ActionMatrix:
    """Matrix of a group element via a reduced word, one matrix per distinct letter."""
    word = u.reduced_word()
    matrices = {gen: generator_matrix(gen, k, h) for gen in set(word)}
    result = ActionMatrix.identity(degree_basis(h, k))
    for gen in word:
        result = result.compose(matrices[gen])
    return result
