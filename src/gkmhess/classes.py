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

For arbitrary ``h`` the flow-up class is reconstructed by exact linear
interpolation over the support in one pass, processing fixed points in
increasing Coxeter length with the shared exact kernel of ``linalg``.  Each
free monomial of a vertex system becomes a new rational parameter, and a
system that would constrain earlier parameters is refused, so every
parameter is genuine freedom, which is reported.
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

    Either the top value fails an off-support edge, or a vertex system
    reduces to a row without an unknown: ``0 = c``, or a relation among
    earlier parameters, which the one-pass interpolation does not solve.
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
    ``t_a := t_b`` (divisibility by ``t_a - t_b``).  Unknown monomials are
    columns ``0..ncols-1`` and parameter ``k`` is column ``ncols + k``.
    Returns the general solution, with one new parameter per free monomial,
    and the next unused parameter.  Raises ``InfeasibleInterpolationError``
    if a reduced row has no unknown column.
    """
    if degree > MAX_EXPONENT:
        raise OverflowError(f"degree {degree} above the largest exponent {MAX_EXPONENT}")
    monos = _packed_monomials(n, degree)
    ncols = len(monos)
    rows: list[dict[int, Fraction]] = []
    for a, b, rhs in edge_constraints:
        # the substitution t_a := t_b maps each unknown monomial to an image:
        # exponent field a moves onto field b, which the degree bounds
        shift_a, shift_b = FIELD_BITS * (n - a), FIELD_BITS * (n - b)
        images: dict[int, dict[int, int]] = {}
        for col, mono in enumerate(monos):
            e = mono >> shift_a & MAX_EXPONENT
            images.setdefault(mono + (e << shift_b) - (e << shift_a), {})[col] = 1
        rhs_sub = {k: p.substitute_var(a, b).packed for k, p in rhs.items()}
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
    free_cols = [col for col in range(ncols) if col not in pivots]
    new_params = {col: next_param + idx for idx, col in enumerate(free_cols)}

    # pivot monomials take the rhs parts and minus the free monomials
    parts: dict[int, dict[int, Fraction]] = {}
    for col, row in pivots.items():
        for k, coeff in row.items():
            if k >= ncols:
                parts.setdefault(k - ncols, {})[monos[col]] = coeff
            elif k != col:
                parts.setdefault(new_params[k], {})[monos[col]] = -coeff
    for col, pid in new_params.items():
        parts.setdefault(pid, {})[monos[col]] = Fraction(1)
    solution = {pid: MultiPoly.from_packed(n, bucket) for pid, bucket in parts.items()}
    return solution, next_param + len(free_cols)


def interpolate_class(w: Permutation, h: HessenbergFunction) -> InterpolationResult:
    """Reconstruct the flow-up class of ``(w, h)`` by exact interpolation.

    Fixed points of the support are processed in increasing Coxeter length.
    At each one, the divisibility conditions along edges into already-known
    values (including zero values off the support) form a small exact linear
    system for the homogeneous value of degree ``l_h(w)``; each free monomial
    becomes a new rational parameter.  A system that would constrain earlier
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
