"""Equivariant cohomology classes as fixed-point value maps.

A class assigns a polynomial in ``t1..tn`` to every permutation, subject to
the divisibility condition along moment-graph edges: the label ``t_a - t_b``
of an edge divides the difference of the endpoint values, tested as the
difference vanishing under ``t_a := t_b``.  The geometric basis element
attached to ``(w, h)`` is supported on the fixed points of the closed minus
cell, is homogeneous of degree ``l_h(w)``, and takes the product of the
downward edge labels as its value at ``w``.

The values the paper writes as products of roots are built as a
``RootProduct``, a sign and the sorted pairs of the factors: the
permutohedral classes and the top values.  Z[t] is a unique factorization
domain and the roots are pairwise non-associate primes, so equal products
have equal factors, and ``t_a := t_b`` takes each factor to a factor or to
0.  So the closed-form suites of the CLI decide divisibility, top and
smooth-point values on the factors, and ``sum_vanishes`` decides a signed
sum of root products at one point: the factors that every term shares
divide the sum, and where each term leaves one root the sum is a linear
form, decided on its coefficients.  Only a rest of another shape is
expanded, and nothing is held from one sum to the next.

For arbitrary ``h`` the flow-up class is reconstructed by exact
interpolation over the support in one pass, processing fixed points in
increasing Coxeter length.  The class vanishes off its support, so at a
support point its value is divisible by the root product of the edges that
leave the support (and of those to a point whose value is 0), and each
vertex system is solved on the quotient by that product: one scalar per
parameter where the product has the full degree, as at most points, and
otherwise a small system over the cofactor's monomials, reduced with the
shared exact kernel of ``linalg``.  The freedom at a point is the multiples
of the product of all its constraining labels; each free monomial becomes a
new rational parameter, the same monomials that the system over all
monomials of the degree leaves free, and a system that would constrain
earlier parameters is refused, so every parameter is genuine freedom, which
is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import NamedTuple

from .gkm import GkmGraph, HessenbergFunction, l_h
from .linalg import row_reduce
from .perms import Permutation, young_subgroup
from .polys import FIELD_BITS, MAX_EXPONENT, Coeff, MultiPoly, guard_bits, monomial_quotient, pack
from .reach import support_A


class EquivariantClass:
    """Total map S_n -> polynomials; zero values are not stored."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: dict):
        self.n = n
        # keys that are already permutations are trusted; others are checked
        self.values = {
            v if isinstance(v, Permutation) else Permutation(v): p
            for v, p in values.items() if not p.is_zero
        }

    def value(self, v) -> MultiPoly:
        return self.values.get(tuple(v), MultiPoly.zero(self.n))

    def support(self) -> frozenset[Permutation]:
        return frozenset(self.values)

    def __add__(self, other: "EquivariantClass") -> "EquivariantClass":
        if self.n != other.n:
            raise ValueError("size mismatch")
        values = dict(self.values)
        for v, p in other.values.items():
            values[v] = values.get(v, MultiPoly.zero(self.n)) + p
        return EquivariantClass(self.n, values)

    def __sub__(self, other: "EquivariantClass") -> "EquivariantClass":
        return self + other.scale(-1)

    def scale(self, factor) -> "EquivariantClass":
        """Multiply every value by a scalar or polynomial."""
        return EquivariantClass(
            self.n, {v: p * factor for v, p in self.values.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, EquivariantClass)
            and self.n == other.n
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.values.items())))

    def is_zero(self) -> bool:
        return not self.values

    def is_homogeneous(self, degree: int) -> bool:
        return all(p.is_homogeneous(degree) for p in self.values.values())

    @classmethod
    def zero(cls, n: int) -> "EquivariantClass":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, c=1) -> "EquivariantClass":
        poly = MultiPoly.constant(c, n)
        return cls(n, {w: poly for w in Permutation.all(n)})


@dataclass
class GkmViolation:
    v: Permutation
    w: Permutation
    label: MultiPoly
    difference: MultiPoly


def gkm_check(p: EquivariantClass, h: HessenbergFunction) -> tuple[bool, GkmViolation | None]:
    """Divisibility of value differences along every moment-graph edge.

    Edges with both endpoints outside the support are skipped (difference
    zero), and an edge inside the support is checked from its smaller end.
    Returns the first violation found, scanning vertices in lexicographic
    order.
    """
    graph = GkmGraph(h)
    support = p.support()
    for v in sorted(support):
        pv = p.value(v)
        for target, a, b in graph.neighbors(v):
            if target < v and target in support:
                continue
            diff = pv - p.value(target)
            if not diff.substitute_var(a, b).is_zero:
                label = MultiPoly.linear_form(a, b, p.n)
                return False, GkmViolation(v, target, label, diff)
    return True, None


class RootProduct(NamedTuple):
    """``sign * prod (t_a - t_b)`` over ``pairs``, sorted, each with ``a < b``.

    The zero value has sign 0 and no pairs.  Equal values have equal tuples,
    because the roots are pairwise non-associate primes of ``Z[t]``.  There
    is no sum: a sum is one of the ``MultiPoly`` values that ``expand`` gives.
    """

    sign: int
    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def of_labels(cls, labels, sign: int = 1) -> "RootProduct":
        """``sign`` times the product of ``t_a - t_b`` over the ``(a, b)``
        of ``labels``; 0 if some ``a == b``."""
        pairs = []
        for a, b in labels:
            if a > b:
                a, b, sign = b, a, -sign
            elif a == b:
                return _ZERO
            pairs.append((a, b))
        pairs.sort()
        return tuple.__new__(cls, (sign, tuple(pairs)))

    def __mul__(self, other: "RootProduct") -> "RootProduct":
        if not (self.sign and other.sign):
            return _ZERO
        return RootProduct.of_labels(self.pairs + other.pairs, self.sign * other.sign)

    def substitute(self, a: int, b: int) -> "RootProduct":
        """Set ``t_a := t_b``: each factor stays a root or becomes 0."""
        return RootProduct.of_labels(
            [(b if x == a else x, b if y == a else y) for x, y in self.pairs], self.sign)

    def relabel(self, u: Permutation) -> "RootProduct":
        """Replace each ``t_i`` by ``t_{u(i)}``."""
        return RootProduct.of_labels([(u[x - 1], u[y - 1]) for x, y in self.pairs], self.sign)

    def expand(self, n: int) -> MultiPoly:
        """The value as a polynomial in ``t1..tn``."""
        poly = MultiPoly.constant(self.sign, n)
        for a, b in self.pairs:
            poly = poly * MultiPoly.linear_form(a, b, n)
        return poly


_ZERO = tuple.__new__(RootProduct, (0, ()))


def sum_vanishes(terms: list[tuple[RootProduct, int]], n: int) -> bool:
    """Whether ``sum coeff * value`` over the ``(value, coeff)`` of
    ``terms``, root products in ``t1..tn``, is 0.

    The terms are collected by their factors.  A factor of every term left
    divides the sum and is divided out.  Where each rest is one root
    ``t_a - t_b`` the sum is a linear form, 0 exactly when the coefficient
    of every variable is; a rest of any other shape is expanded.
    """
    collected: dict[tuple, int] = {}
    for value, coeff in terms:
        collected[value.pairs] = collected.get(value.pairs, 0) + coeff * value.sign
    left = [(pairs, coeff) for pairs, coeff in collected.items() if coeff]
    if not left:
        return True
    common = set(left[0][0]).intersection(*(pairs for pairs, _coeff in left[1:]))
    rests = []
    for pairs, coeff in left:
        rest = list(pairs)
        for factor in common:
            rest.remove(factor)
        rests.append((rest, coeff))
    if all(len(rest) == 1 for rest, _coeff in rests):
        linear = [0] * (n + 1)
        for ((a, b),), coeff in rests:
            linear[a] += coeff
            linear[b] -= coeff
        return not any(linear)
    total = MultiPoly.zero(n)
    for rest, coeff in rests:
        total = total + RootProduct(1, tuple(rest)).expand(n) * coeff
    return total.is_zero


def top_value(w: Permutation, h: HessenbergFunction) -> MultiPoly:
    """Product of the labels on oriented edges leaving ``w``."""
    return RootProduct.of_labels(
        (a, b) for _target, a, b in GkmGraph(h).oriented_out(w)).expand(h.n)


def permutohedral_root_products(w: Permutation) -> dict[Permutation, RootProduct]:
    """The values of ``permutohedral_class(w)``, as root products.

    Supported on the left Young-subgroup orbit determined by the descent
    blocks of ``w``; at each support point ``u`` the value is the product of
    ``t_{u(d+1)} - t_{u(d)}`` over descents ``d`` of ``w``.
    """
    n = len(w)
    w = Permutation(w)
    descents = w.descents()
    bounds = (0,) + descents + (n,)
    blocks = [
        [w(m) for m in range(bounds[s] + 1, bounds[s + 1] + 1)]
        for s in range(len(bounds) - 1)
    ]
    values = {}
    for y in young_subgroup(blocks, n):
        u = y * w
        values[u] = RootProduct.of_labels((u[d], u[d - 1]) for d in descents)
    return values


def permutohedral_class(w: Permutation) -> EquivariantClass:
    """Closed-form basis class for ``h = (2, 3, ..., n, n)``: the expanded
    ``permutohedral_root_products(w)``."""
    n = len(w)
    return EquivariantClass(
        n, {u: value.expand(n) for u, value in permutohedral_root_products(w).items()})


# -- interpolation of flow-up classes for arbitrary h ------------------------


class InfeasibleInterpolationError(RuntimeError):
    """A flow-up condition that no unknown can meet: indicates a bug.

    Either the top value fails an off-support edge, or at a vertex a value
    across an edge does not fit the vanishing roots (it is not 0 where the
    value must be, or not a multiple of the roots, or not the multiple that
    another edge sets), or the cofactor's system reduces to a row without an
    unknown: ``0 = c``, or a relation among earlier parameters, which the
    one-pass interpolation does not solve.
    """


@dataclass
class InterpolationResult:
    cls: EquivariantClass
    free_parameters: int

    @property
    def unique(self) -> bool:
        return not self.free_parameters


@lru_cache(maxsize=64)
def _packed_monomials(n: int, degree: int) -> tuple[int, ...]:
    """The packed monomials of one degree in n variables, in descending
    order of their exponent tuples; built once per (n, degree)."""
    out = []
    for combo in combinations_with_replacement(range(n), degree):
        exps = [0] * n
        for index in combo:
            exps[index] += 1
        out.append(tuple(exps))
    return tuple(pack(mono) for mono in sorted(out, reverse=True))


def _solve_vertex(
    n: int,
    degree: int,
    edge_constraints: list[tuple[int, int, dict[int, MultiPoly]]],
    next_param: int,
) -> tuple[dict[int, MultiPoly], int]:
    """Solve for one fixed-point value subject to edge congruences.

    Values are parameter polynomials ``{k: poly}`` meaning
    ``sum_k p_k * poly`` with ``p_0 = 1``.  Each constraint ``(a, b, rhs)``
    demands that the unknown agree with ``rhs`` after substituting
    ``t_a := t_b`` (divisibility by ``t_a - t_b``).  The labels are pairwise
    distinct roots, as those of the edges at one fixed point are, so they
    are pairwise coprime.  Returns the general solution, with one new
    parameter per free monomial, and the next unused parameter.

    The value vanishes on the label of every edge whose ``rhs`` is 0 (an
    edge off the support, or to a point whose value is 0), so it is
    ``Pi * g`` with ``Pi`` the root product of those ``m`` labels:

    * ``m > degree``: the value is 0;
    * ``m == degree``: ``g`` is one scalar per parameter part, read off the
      leading monomial of ``Pi`` under the first other edge's substitution,
      and each other edge's ``rhs`` must be that scalar times ``Pi`` in full;
    * otherwise ``g``, of degree ``degree - m``, solves the system of the
      other edges, each ``rhs`` divided exactly by ``Pi`` under the edge's
      substitution.

    The solutions with every ``rhs`` 0 are the multiples of ``Pi_all``, the
    product of all ``E`` labels: none below degree ``E``.  Up to ``degree``
    they are ``Pi_all`` times the monomials of degree ``degree - E``; in
    reduced echelon form, each pivot at its row's smallest monomial, these
    rows are the new parameters, numbered from the largest pivot down, and
    every part is reduced to 0 at the pivots.  That is the solution of the
    system over all monomials of the degree reduced largest monomial first:
    its pivots are the greedy basis from the largest monomial, so its free
    monomials are the dual greedy basis from the smallest, the pivots here.

    Raises ``InfeasibleInterpolationError`` where no value meets the
    conditions: an edge ``rhs`` that is not 0 on a value forced to 0, is not
    the scalar's multiple of ``Pi``, or leaves a remainder on ``Pi``, or a
    reduced row of ``g``'s system without an unknown.  The conditions are
    linear in the parameters, so these are the cases where some parameter
    part has no solution, as in the system over all monomials.
    """
    if degree > MAX_EXPONENT:
        raise OverflowError(f"degree {degree} above the largest exponent {MAX_EXPONENT}")
    vanishing, lower = [], []
    for a, b, rhs in edge_constraints:
        if any(not p.is_zero for p in rhs.values()):
            lower.append((a, b, rhs))
        else:
            vanishing.append((a, b))
    roots = RootProduct.of_labels(vanishing)
    m = len(vanishing)
    if m > degree:
        for a, b, rhs in lower:
            for k, p in rhs.items():
                if not p.substitute_var(a, b).is_zero:
                    raise InfeasibleInterpolationError(
                        f"the value is 0, of degree {degree} below its {m} vanishing "
                        f"roots, but p{k} across t{a} - t{b} is not")
        return {}, next_param
    factor = roots.expand(n)
    if m == degree:
        parts = {k: factor * c for k, c in _scalar_quotient(factor, lower).items()}
    else:
        g = _general_quotient(n, degree - m, factor, lower)
        parts = {k: factor * part for k, part in g.items()}
    spare = degree - m - len(lower)
    if spare < 0:
        return parts, next_param

    all_roots = roots * RootProduct.of_labels((a, b) for a, b, _rhs in lower)
    multiple = all_roots.expand(n).packed
    null, _ = row_reduce([{mono + c: v for c, v in multiple.items()}
                          for mono in _packed_monomials(n, spare)])
    pivots = {pivot: MultiPoly.from_packed(n, row) for pivot, row in null.items()}
    solution = {}
    for k, part in parts.items():
        for pivot, row in pivots.items():
            coeff = part.packed.get(pivot)
            if coeff:
                part = part - row * coeff
        if not part.is_zero:
            solution[k] = part
    for pid, pivot in enumerate(sorted(pivots, reverse=True), next_param):
        solution[pid] = pivots[pivot]
    return solution, next_param + len(pivots)


def _scalar_quotient(factor: MultiPoly, lower) -> dict[int, Coeff]:
    """The nonzero scalar ``c`` of each parameter part with ``c * factor``
    equal to every ``rhs`` of ``lower`` under its edge's substitution."""
    keys = set().union(*(rhs for _a, _b, rhs in lower))
    scalars: dict[int, Coeff] = {}
    for index, (a, b, rhs) in enumerate(lower):
        divisor = factor.substitute_var(a, b).packed
        if not index:
            # the scalars are read off the first edge's leading monomial,
            # whose coefficient in a product of roots is 1 or -1
            lead = max(divisor)
            sign = divisor[lead]
        for k in keys:
            p = rhs[k].substitute_var(a, b).packed if k in rhs else {}
            if not index:
                scalars[k] = p.get(lead, 0) * sign
            c = scalars[k]
            if p != ({mono: c * v for mono, v in divisor.items()} if c else {}):
                first_a, first_b, _rhs = lower[0]
                raise InfeasibleInterpolationError(
                    f"p{k} across t{a} - t{b} is not {c} times the vanishing roots, "
                    f"the scalar read off t{first_a} - t{first_b}")
    return {k: c for k, c in scalars.items() if c}


def _general_quotient(n: int, degree: int, factor: MultiPoly, lower) -> dict[int, MultiPoly]:
    """A ``g`` of degree ``degree`` in each parameter part with ``factor * g``
    equal to every ``rhs`` of ``lower`` under its edge's substitution, its
    free monomials at 0.  Unknown monomials are columns ``0..ncols-1`` and
    parameter ``k`` is column ``ncols + k``: a row says that its unknown
    columns add up to its parameter columns."""
    monos = _packed_monomials(n, degree)
    ncols = len(monos)
    rows: list[dict[int, Coeff]] = []
    for a, b, rhs in lower:
        # the substitution t_a := t_b maps each unknown monomial to an image:
        # exponent field a moves onto field b, which the degree bounds
        shift_a, shift_b = FIELD_BITS * (n - a), FIELD_BITS * (n - b)
        images: dict[int, dict[int, int]] = {}
        for col, mono in enumerate(monos):
            e = mono >> shift_a & MAX_EXPONENT
            images.setdefault(mono + (e << shift_b) - (e << shift_a), {})[col] = 1
        divisor = factor.substitute_var(a, b)
        rhs_sub = {}
        for k, p in rhs.items():
            p = p.substitute_var(a, b)
            if not p.is_zero:
                p = _divide_exact(p, divisor)
                if p is None:
                    raise InfeasibleInterpolationError(
                        f"p{k} across t{a} - t{b} is not divisible by the vanishing roots")
            rhs_sub[k] = p.packed
        touched = set(images)
        for p in rhs_sub.values():
            touched.update(p)
        # every monomial here has the one degree, so packed order is the
        # lexicographic order of the exponent tuples
        for img in sorted(touched):
            row = dict(images.get(img, {}))
            for k, p in rhs_sub.items():
                if img in p:
                    row[ncols + k] = p[img]
            rows.append(row)

    pivots, leftover = row_reduce(rows, bound=ncols)
    if leftover:
        terms = " + ".join(f"({v})*p{k - ncols}" for k, v in sorted(leftover[0].items()))
        raise InfeasibleInterpolationError(
            f"the edge conditions force {terms} = 0, with p0 = 1"
        )
    parts: dict[int, dict[int, Coeff]] = {}
    for col, row in pivots.items():
        for k, coeff in row.items():
            if k >= ncols:
                parts.setdefault(k - ncols, {})[monos[col]] = coeff
    return {k: MultiPoly.from_packed(n, bucket) for k, bucket in parts.items()}


def interpolate_class(w: Permutation, h: HessenbergFunction) -> InterpolationResult:
    """Reconstruct the flow-up class of ``(w, h)`` by exact interpolation.

    Fixed points of the support are processed in increasing Coxeter length.
    At each one, the divisibility conditions along edges into already-known
    values (including zero values off the support) fix the homogeneous value
    of degree ``l_h(w)``, solved by ``_solve_vertex`` on the quotient by the
    roots it vanishes on; each free monomial becomes a new rational
    parameter.  A system that would constrain earlier
    parameters raises ``InfeasibleInterpolationError`` naming the vertex, so
    the parameters are independent and their count is the reported freedom.
    The returned representative sets them all to zero, keeping its support
    minimal.
    """
    n = h.n
    degree = l_h(w, h)
    support = support_A(w, h)
    graph = GkmGraph(h)
    length = {u: u.coxeter_length() for u in support}
    order = sorted(support, key=lambda u: (length[u], u))
    if order[0] != w:
        raise AssertionError("support must have w as its unique length-minimal point")

    values: dict[Permutation, dict[int, MultiPoly]] = {w: {0: top_value(w, h)}}
    next_param = 1

    # check the fixed value at w against its own off-support edge conditions
    for target, a, b in graph.neighbors(w):
        if target not in support:
            if not values[w][0].substitute_var(a, b).is_zero:
                raise InfeasibleInterpolationError(
                    f"top value violates an off-support edge at w={w}, h={h}"
                )

    for u in order[1:]:
        constraints: list[tuple[int, int, dict[int, MultiPoly]]] = []
        for target, a, b in graph.neighbors(u):
            if target in support:
                if length[target] < length[u]:
                    constraints.append((a, b, values[target]))
            else:
                constraints.append((a, b, {}))
        try:
            values[u], next_param = _solve_vertex(n, degree, constraints, next_param)
        except InfeasibleInterpolationError as exc:
            raise InfeasibleInterpolationError(
                f"{exc} at v={u}, for w={w}, h={h}"
            ) from None

    concrete = {u: parts[0] for u, parts in values.items() if 0 in parts}
    return InterpolationResult(
        cls=EquivariantClass(n, concrete), free_parameters=next_param - 1
    )


# -- basis expansion and ordinary reduction ----------------------------------


class ExpansionError(RuntimeError):
    """Input class lies outside the span of the basis."""


def expand_in_basis(
    p: EquivariantClass,
    basis: dict[Permutation, EquivariantClass],
) -> dict[Permutation, MultiPoly]:
    """Triangular elimination against a flow-up basis.

    Repeatedly take the support element ``v`` of minimal Coxeter length
    (ties broken lexicographically), divide off the basis class at ``v``,
    and subtract.  Flow-up triangularity (every other support point of the
    basis class is longer) makes the minimum strictly increase.  ``basis``
    is read only through ``basis.get(v)``, at the points the elimination
    reaches: a dict, or ``dot.FlowUpBasis``, which builds each class as it
    is asked for.  Lengths are counted on the points met, once per call.
    No h is passed: it enters through the basis alone.
    """
    length: dict[Permutation, int] = {}

    def measured(points: frozenset[Permutation]) -> frozenset[Permutation]:
        for u in points.difference(length):
            length[u] = u.coxeter_length()
        return points

    coefficients: dict[Permutation, MultiPoly] = {}
    current = p
    while not current.is_zero():
        v = min(measured(current.support()), key=lambda u: (length[u], u))
        basis_class = basis.get(v)
        if basis_class is None:
            raise ExpansionError(f"no basis class available at {v}")
        lead = basis_class.value(v)
        rank = (length[v], v)
        deeper = [u for u in measured(basis_class.support()) if (length[u], u) < rank]
        if deeper:
            raise AssertionError(f"basis class at {v} is not flow-up: {deeper}")
        coeff = _divide_exact(current.value(v), lead)
        if coeff is None:
            raise ExpansionError(
                f"value at {v} not divisible by the basis leading value"
            )
        coefficients[v] = coeff
        current = current - basis_class.scale(coeff)
    return {v: c for v, c in coefficients.items() if not c.is_zero}


def _divide_exact(p: MultiPoly, q: MultiPoly) -> MultiPoly | None:
    if q.is_zero:
        raise ZeroDivisionError("division by zero class value")
    if q.degree() == 0:
        return p * (Fraction(1) / Fraction(q.constant_term()))
    return _divide_general(p, q)


def _divide_general(p: MultiPoly, q: MultiPoly) -> MultiPoly | None:
    """Exact multivariate division via leading-term elimination (grlex).

    One remainder map is updated in place: each step takes its largest
    packed monomial (packed order is grlex), divides it by the leading
    monomial of ``q``, and subtracts that term times ``q``.  Returns None
    where a leading monomial is not divisible, so ``q`` does not divide ``p``.
    """
    n = p.nvars
    divisor = q.packed
    q_lead = max(divisor)
    q_lead_coeff = Fraction(divisor[q_lead])
    guards = guard_bits(n)
    remainder = dict(p.packed)
    quotient: dict[int, Coeff] = {}
    while remainder:
        r_lead = max(remainder)
        mono = monomial_quotient(r_lead, q_lead, n)
        if mono is None:
            return None
        coeff = remainder[r_lead] / q_lead_coeff
        quotient[mono] = coeff
        for mq, cq in divisor.items():
            key = mono + mq
            if key & guards:
                raise OverflowError(f"an exponent above {MAX_EXPONENT} in a division")
            value = remainder.get(key, 0) - coeff * cq
            if value:
                remainder[key] = value
            else:
                del remainder[key]
    return MultiPoly.from_packed(n, quotient)


def reduce_to_ordinary(
    p: EquivariantClass,
    degree: int,
    h: HessenbergFunction,
    basis: dict[Permutation, EquivariantClass],
) -> dict[Permutation, Coeff]:
    """Image of a homogeneous degree-``degree`` class in ordinary cohomology.

    Expansion coefficients at fixed points of matching degree are rational
    constants and survive, ``int`` where integral; coefficients at
    lower-degree points sit in the augmentation ideal and die.
    """
    expansion = expand_in_basis(p, basis)
    out: dict[Permutation, Coeff] = {}
    for v, coeff in expansion.items():
        lv = l_h(v, h)
        if lv == degree:
            if not coeff.is_homogeneous(0):
                raise ExpansionError(f"non-constant coefficient at degree-matching {v}")
            out[v] = coeff.constant_term()
        elif lv > degree:
            raise ExpansionError(f"coefficient at {v} of higher degree than the class")
    return out
