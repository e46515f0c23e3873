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

One memoized recursion, ``_SiExpansionCache``, computes this expansion at
t = 0, on integers: the ordinary action that ``generator_matrix`` needs.
Evaluation at t = 0 commutes with permuting the variables and kills the root
``t_{i+1} - t_i``, so the recursion keeps no root term and acts on no
coefficient.  It never leaves a degree either: a one-term image keeps the
descents of w, every auxiliary target passes the descent-set check of
``auxiliary_terms``, and ``phi`` below keeps the number of descents.  So
the recursion runs on positions in the degree basis: one object per n
holds, per degree, the numbering of ``degree_basis``, the mirror as a list
of positions, one table of one-term images per letter, and one memo keyed
by degree, position and letter, with integers throughout.  The polynomial
expansion, ``perm_si_action`` (``gkmhess dot --permutohedral``), expands
the moved class ``dot(s_i, sigma_w)`` in the basis by ``expand_in_basis``,
reading the basis classes through ``FlowUpBasis`` as the elimination
reaches them, as ``gkmhess expand`` and the general-h matrices do.

The recursion runs only for letters with ``2i <= n``; a letter above n/2 is
read off its mirror under ``phi(u) = w0 u w0``, whose one-line form is
``n+1 - u(n+1-k)`` at position k.  Let ``theta`` substitute ``t_a ->
t_{n+1-a}`` and ``(Phi p)(phi(u)) = theta(p(u))``.  A descent d of w is the
descent n - d of ``phi(w)``, so the value blocks of ``phi(w)`` are those of
w complemented, ``supp sigma_{phi(w)} = phi(supp sigma_w)``, and the factor
``t_{u(d+1)} - t_{u(d)}`` of ``sigma_w(u)`` goes to ``-(t_{phi(u)(n-d+1)} -
t_{phi(u)(n-d)})`` under theta: ``Phi sigma_w = (-1)^{des w}
sigma_{phi(w)}``.  Since ``phi(s_i x) = s_{n-i} phi(x)`` and ``theta s_i =
s_{n-i} theta`` on the variables, ``Phi(s_i . p) = s_{n-i} . Phi p``, and
``Phi(f p) = theta(f) Phi p``.  So if ``s_{n-i} . sigma_{phi(w)} = sum c_v
sigma_v``, applying the involution Phi gives ``s_i . sigma_w = sum
(-1)^{des w + des v} theta(c_v) sigma_{phi(v)}``, the one expansion over
the basis.  At t = 0, ``theta(c_v)`` and ``c_v`` agree, and only the terms
with ``des v = des w`` survive, as ``c_v`` is homogeneous of degree ``des w
- des v``: the sign is +1.  With
``i+1`` directly left of ``i`` in w, ``n-i`` stands directly left of
``n-i+1`` in ``phi(w)``, so the mirror of a descent pair is a descent pair,
and the t = 0 expansion of ``(w, i)`` is that of ``(phi(w), n-i)`` with every
key mapped by phi: on positions, through the degree's mirror list.

The first two cases are read in one place, ``_one_term_image``, once per
degree and letter into the table that the recursion and
``generator_matrix`` read alike; only the descent case reaches the memo.
``auxiliary_terms`` is the one walk over the auxiliary summands, read by
the recursion and by the master identity of ``gkmhess verify dot-rules``,
which moves the summands' root products and never builds the auxiliary
class.  It builds one ``AuxiliaryTerm`` tuple per ``(P, Q)`` and no other
object per summand: a summand that needs no boundary correction has its
``tilde`` as target and one shared identity as mover, whose word the
recursion does not apply.
``generator_matrix`` numbers each column by position in the degree basis,
the one numbering of every ``ActionMatrix`` and of the recursion; a
one-term column is the position of its one class, read off the degree's
table, with coefficient 1, and a descent column is a copy of its memo
entry.  ``ActionMatrix.apply_vector`` maps a basis vector with the ``int``
1 to a copy of its column, so a product by a matrix of one-term columns
mostly copies columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .classes import (
    EquivariantClass,
    InterpolationResult,
    expand_in_basis,
    interpolate_class,
    permutohedral_class,
    reduce_to_ordinary,
)
from .gkm import EdgeKind, HessenbergFunction, degree_bases, edge_kind
from .perms import Permutation
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

    ``sigma_w`` is fixed when ``s_i w`` is longer, which is when ``i``
    stands left of ``i+1`` in ``w``; otherwise the difference is
    ``(t_{i+1} - t_i) sigma_{s_i w}``.
    """
    n = len(w)
    si_w = Permutation.simple(i, n) * w
    if w.index(i) < w.index(i + 1):
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


class FlowUpBasis:
    """The flow-up basis of one h for ``expand_in_basis``: ``get(v)`` is the
    class of ``flow_up_class(v, h)``, built when the elimination reaches v,
    so an expansion builds only the classes it meets.  It holds no table of
    S_n and is not iterable: a loop over it raises ``TypeError``."""

    __iter__ = None

    def __init__(self, h: HessenbergFunction):
        self.h = h

    def get(self, v: Permutation) -> EquivariantClass:
        return flow_up_class(v, self.h).cls


# -- permutohedral machinery --------------------------------------------------


class AuxiliaryTerm(NamedTuple):
    """One summand of the auxiliary class: ``mover . sigma_target``."""
    tilde: Permutation
    target: Permutation
    mover: Permutation


def auxiliary_terms(w: Permutation, i: int) -> list[AuxiliaryTerm]:
    """All ``(P, Q)``-summands of the auxiliary class for the descent case:
    ``P`` and ``Q`` run over the entries left and right of ``i+1, i`` between
    the neighbouring descents ``d_prev`` and ``d_next`` of ``w``.

    The walk builds one tuple per summand.  Where no boundary correction
    applies, ``target`` is ``tilde`` itself and the mover is one identity
    shared by those summands.  The descent set of every target, that of
    ``sigma_w``'s own summand included, is checked.
    """
    n = len(w)
    d_here = w.index(i + 1) + 1
    if d_here == n or w[d_here] != i:
        raise ValueError(f"values {i + 1},{i} are not adjacent-descending in {w}")
    w_descents = w.descents()
    index = w_descents.index(d_here)
    d_prev = w_descents[index - 1] if index > 0 else 0
    d_next = w_descents[index + 1] if index + 1 < len(w_descents) else n
    low, high = w[d_prev:d_here - 1], w[d_here + 1:d_next]
    prefix, suffix = list(w[:d_prev]), list(w[d_next:])
    window = set(low) | set(high) | {i}
    before, after = w_descents[:index], w_descents[index + 1:]
    kept = set(before + after)  # the descents a correction may run along
    identity = Permutation.identity(n)
    p_sets = [p for k in range(len(low) + 1) for p in combinations(low, k)]
    q_sets = [q for k in range(len(high) + 1) for q in combinations(high, k)]
    terms = []
    for p_set in p_sets:
        for q_set in q_sets:
            middle = sorted(window.difference(p_set, q_set))
            images = prefix + list(p_set) + [i + 1] + list(q_set) + middle + suffix
            tilde = tuple.__new__(Permutation, images)
            corrected = list(images)
            if d_prev != 0 and images[d_prev - 1] < images[d_prev]:
                # restore the prefix boundary descent by inserting the first
                # window entry into the descending run ending at d_prev
                pos = d_prev
                corrected[pos - 1], corrected[pos] = corrected[pos], corrected[pos - 1]
                while pos - 1 in kept and corrected[pos - 2] < corrected[pos - 1]:
                    corrected[pos - 2], corrected[pos - 1] = corrected[pos - 1], corrected[pos - 2]
                    pos -= 1
            if d_next != n and images[d_next - 1] < images[d_next]:
                # symmetric insertion into the descending run starting after
                # the window
                pos = d_next
                corrected[pos - 1], corrected[pos] = corrected[pos], corrected[pos - 1]
                while pos + 1 in kept and corrected[pos] < corrected[pos + 1]:
                    corrected[pos], corrected[pos + 1] = corrected[pos + 1], corrected[pos]
                    pos += 1
            if corrected == images:
                target, mover = tilde, identity
            else:
                target = tuple.__new__(Permutation, corrected)
                mover = tilde * target.inverse()
            d_new = d_prev + len(p_set) + len(q_set) + 1  # strictly between d_prev and d_next
            if target.descents() != before + (d_new,) + after:
                raise AssertionError(
                    f"descent correction failed: w={w}, i={i}, P={p_set}, Q={q_set}"
                )
            terms.append(AuxiliaryTerm(tilde, target, mover))
    return terms


class _Degree:
    """The numbering of one permutohedral degree that the t = 0 recursion
    runs on: ``order`` is ``degree_basis`` of degree k and ``position`` its
    inverse; ``mirror[p]`` is the position of ``_mirror(order[p])``; and
    ``images[i][p]`` is the position of ``_one_term_image(order[p], i)``, or
    -1 in the descent case (``images[0]`` is unused).  The recursion never
    leaves the degree (see the module docstring), so a permutation that
    would leave it is an AssertionError naming the image."""

    __slots__ = ("k", "order", "position", "mirror", "images")

    def __init__(self, n: int, k: int):
        self.k = k
        self.order = degree_basis(HessenbergFunction.permutohedral(n), k)
        self.position = {w: p for p, w in enumerate(self.order)}
        self.mirror = [self.at(_mirror(w), w) for w in self.order]
        self.images = [[]]
        for i in range(1, n):
            row = []
            for w in self.order:
                moved = _one_term_image(w, i)
                row.append(-1 if moved is None else self.at(moved, w, i))
            self.images.append(row)

    def at(self, v: Permutation, w: Permutation, i: int = 0) -> int:
        """The position of ``v``, a term of ``s_i . sigma_w``, or of
        ``phi(w)`` where ``i`` is 0."""
        p = self.position.get(v)
        if p is None:
            source = f"s_{i} . sigma_{w}" if i else f"phi({w})"
            raise AssertionError(f"{source} leaves degree {self.k}: it reaches {v}")
        return p


class _SiExpansionCache:
    """Memoized expansions of ``s_i . sigma_w`` at t = 0 over the basis
    classes of one n, on positions in the degree basis.

    Each degree k gets its own numbering, a ``_Degree``, built once; the
    memo maps ``(k, p, i)`` to ``{q: c}``, the constant terms of the
    polynomial expansion of ``s_i . sigma_{order[p]}`` with each class
    ``order[q]``, ``c`` a nonzero ``int``.  Only the descent case is
    memoized: the other two are one-term moves, read off the degree's
    ``images``.  A descent pair with ``2i > n`` is the entry of
    ``(mirror[p], n - i)`` with every position mapped through the mirror
    list (see the module docstring), stored under its own key, so
    ``_compute`` runs only for letters with ``2i <= n``.  A recursion guard
    raises on re-entry for the same pair, which the underlying identities
    rule out in practice.
    """

    def __init__(self, n: int):
        self.n = n
        self.cache: dict[tuple[int, int, int], dict[int, int]] = {}
        self.in_progress: set[tuple[int, int, int]] = set()
        self.degrees: dict[int, _Degree] = {}

    def degree(self, k: int) -> _Degree:
        degree = self.degrees.get(k)
        if degree is None:
            degree = self.degrees[k] = _Degree(self.n, k)
        return degree

    def expansion(self, k: int, p: int, i: int) -> dict[int, int]:
        q = self.degree(k).images[i][p]
        if q >= 0:
            return {q: 1}
        key = (k, p, i)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        if key in self.in_progress:
            w = self.degrees[k].order[p]
            raise RecursionError(f"cyclic expansion request at w={w}, i={i}")
        self.in_progress.add(key)
        try:
            if 2 * i > self.n:
                mirror = self.degrees[k].mirror
                mirrored = self.expansion(k, mirror[p], self.n - i)
                result = {mirror[q]: c for q, c in mirrored.items()}
            else:
                result = self._compute(k, p, i)
        finally:
            self.in_progress.discard(key)
        self.cache[key] = result
        return result

    def _compute(self, k: int, p: int, i: int) -> dict[int, int]:
        """The descent case, ``i+1`` directly left of ``i``: each auxiliary
        summand other than ``sigma_w`` adds ``(1 - s_i) . summand``; the root
        term ``(t_{i+1} - t_i) sigma_{s_i w}`` is 0 at t = 0."""
        degree = self.degrees[k]
        w, row = degree.order[p], degree.images[i]
        result = {p: 1}
        for tilde, target, mover in auxiliary_terms(w, i):
            if tilde == w:
                continue  # the (P~, empty) summand is sigma_w itself
            summand = {degree.at(target, w, i): 1}
            if target is not tilde:  # a correction: apply the mover
                summand = self._apply_word(k, mover.reduced_word(), summand)
            for v, coeff in summand.items():
                result[v] = result.get(v, 0) + coeff
                q = row[v]
                if q >= 0:
                    result[q] = result.get(q, 0) - coeff
                    continue
                for u, inner in self.expansion(k, v, i).items():
                    result[u] = result.get(u, 0) - coeff * inner
        return {v: c for v, c in result.items() if c}

    def _apply_word(self, k: int, word, expansion: dict[int, int]) -> dict[int, int]:
        """Apply ``s_{word[0]} ... s_{word[-1]}`` (left to right) to an expansion."""
        images = self.degrees[k].images
        current = expansion
        for gen in reversed(word):
            row = images[gen]
            nxt: dict[int, int] = {}
            for v, coeff in current.items():
                q = row[v]
                if q >= 0:
                    nxt[q] = nxt.get(q, 0) + coeff
                    continue
                for target, inner in self.expansion(k, v, gen).items():
                    nxt[target] = nxt.get(target, 0) + coeff * inner
            current = {v: c for v, c in nxt.items() if c}
        return current


def _mirror(w: Permutation) -> Permutation:
    """``w0 w w0``: positions reversed and values complemented."""
    top = len(w) + 1
    return tuple.__new__(Permutation, [top - x for x in reversed(w)])


def _one_term_image(w: Permutation, i: int) -> Permutation | None:
    """The one class ``s_i . sigma_w`` equals, read off the positions of
    ``i`` and ``i+1`` in ``w``; ``None`` in the descent case.

    With ``i`` directly left of ``i+1`` the class is fixed; when the two
    are not adjacent the descent pattern is unchanged and the class moves
    to ``sigma_{s_i w}``.  Both images have coefficient 1.
    """
    j, k = w.index(i), w.index(i + 1)
    if j + 1 == k:
        return w
    if k + 1 == j:
        return None
    images = list(w)
    images[j], images[k] = i + 1, i
    return tuple.__new__(Permutation, images)


# One expansion cache per n.
_caches: dict[int, _SiExpansionCache] = {}
_CACHE_BOUND = 4


def _held(table: dict, key, make):
    """``table[key]``, made on a miss; the oldest key goes beyond ``_CACHE_BOUND``."""
    value = table.get(key)
    if value is None:
        if len(table) >= _CACHE_BOUND:
            del table[next(iter(table))]
        value = table[key] = make()
    return value


def _expansion_cache(n: int) -> _SiExpansionCache:
    return _held(_caches, n, lambda: _SiExpansionCache(n))


def _check_generator(i: int, n: int) -> None:
    if not 1 <= i < n:
        raise ValueError(f"generator s_{i} outside 1 <= i < n = {n}")


def perm_si_action(w: Permutation, i: int) -> dict[Permutation, MultiPoly]:
    """Exact expansion of ``s_i . sigma_w`` over the permutohedral basis:
    the moved class ``dot(s_i, sigma_w)`` expanded by ``expand_in_basis``.
    Its constant terms are the t = 0 expansion that ``generator_matrix``
    reads from the recursion."""
    w = Permutation(w)
    n = len(w)
    _check_generator(i, n)
    h = HessenbergFunction.permutohedral(n)
    moved = dot(Permutation.simple(i, n), flow_up_class(w, h).cls)
    return expand_in_basis(moved, FlowUpBasis(h))


# -- action matrices -----------------------------------------------------------


@dataclass
class ActionMatrix:
    """Exact matrix of a group element on one ordinary cohomology degree.

    Rows, columns and vectors are keyed by position in the lexicographic
    ``basis_order``: ``columns[j]`` is the image ``{row: coeff}`` of basis
    vector ``j``, with only its nonzero entries stored, so equal matrices
    have equal columns.  Entries are exact: ``int`` where integral,
    ``Fraction`` otherwise.  Mixed ``int``/``Fraction`` arithmetic is exact,
    so products and traces stay ``int`` as long as the entries are.
    """

    basis_order: tuple[Permutation, ...]
    columns: list[dict[int, Coeff]]

    def apply_vector(self, vec: dict[int, Coeff]) -> dict[int, Coeff]:
        """The image of ``vec``; a basis vector with the ``int`` 1 maps to
        a copy of its column."""
        columns = self.columns
        if len(vec) == 1:
            [(col, coeff)] = vec.items()
            if coeff == 1 and type(coeff) is int:
                return dict(columns[col])
        out: dict[int, Coeff] = {}
        for col, coeff in vec.items():
            if not coeff:
                continue
            for row, val in columns[col].items():
                acc = out.get(row, 0) + coeff * val
                if acc:
                    out[row] = acc
                else:
                    out.pop(row, None)
        return out

    def compose(self, other: "ActionMatrix") -> "ActionMatrix":
        """Matrix of ``self`` after ``other`` (self @ other)."""
        return ActionMatrix(self.basis_order, [self.apply_vector(vec) for vec in other.columns])

    @classmethod
    def identity(cls, basis_order: tuple[Permutation, ...]) -> "ActionMatrix":
        return cls(basis_order, [{j: 1} for j in range(len(basis_order))])

    def trace(self) -> Coeff:
        return sum(column.get(j, 0) for j, column in enumerate(self.columns))


def degree_basis(h: HessenbergFunction, k: int) -> tuple[Permutation, ...]:
    """The ``w`` with ``l_h(w) = k``, in the order of ``Permutation.all``;
    every call for one h reads the same tuple of ``gkm.degree_bases``."""
    bases = degree_bases(h)
    return bases[k] if 0 <= k < len(bases) else ()


def generator_matrix(i: int, k: int, h: HessenbergFunction) -> ActionMatrix:
    """Matrix of ``s_i`` on ordinary degree-2k cohomology.

    One route per family.  Permutohedral h: a column whose image is one
    class (``_one_term_image``) is the position in the degree's ``images``
    table with coefficient 1; only a descent column runs the recursion,
    ``_SiExpansionCache``, on integers at t = 0, and is a copy of its memo
    entry.  Full flag: the identity, the t = 0 image of
    ``full_flag_si_expansion``, whose only other term carries the root
    ``t_{i+1} - t_i``.  Any other h: ``reduce_to_ordinary`` of ``s_i .
    sigma_w`` over ``FlowUpBasis(h)``, which builds the classes of the
    degree basis and those the eliminations reach, no others.  Each column
    is keyed by degree-basis position; a permutohedral term outside the
    basis is an AssertionError.
    """
    _check_generator(i, h.n)
    order = degree_basis(h, k)
    if h.is_full_flag() or not order:
        return ActionMatrix.identity(order)
    if h.is_permutohedral():
        cache = _expansion_cache(h.n)
        columns = [{q: 1} if q >= 0 else dict(cache.expansion(k, p, i))
                   for p, q in enumerate(cache.degree(k).images[i])]
        return ActionMatrix(order, columns)
    # reduce_to_ordinary keeps only the v with l_h(v) = k, the degree basis
    position = {w: j for j, w in enumerate(order)}
    basis = FlowUpBasis(h)
    si = Permutation.simple(i, h.n)
    columns = []
    for w in order:
        image = reduce_to_ordinary(dot(si, basis.get(w)), k, h, basis)
        columns.append({position[v]: c for v, c in image.items()})
    return ActionMatrix(order, columns)


def action_matrix(u: Permutation, k: int, h: HessenbergFunction) -> ActionMatrix:
    """Matrix of a group element via a reduced word, one matrix per distinct letter."""
    word = u.reduced_word()
    matrices = {gen: generator_matrix(gen, k, h) for gen in set(word)}
    result = ActionMatrix.identity(degree_basis(h, k))
    for gen in word:
        result = result.compose(matrices[gen])
    return result
