"""The flow-up interpolation that ``classes`` ran before the quotient solve:
the reference for ``classes._solve_vertex`` and ``classes.interpolate_class``.

Every monomial of the degree is an unknown of the vertex system, and every
edge condition, off-support ones included, is a block of rows of one
``row_reduce``.  The code is kept as it was, so the differential tests of
``test_classes.py`` compare the quotient solve with it class by class.
"""

from __future__ import annotations

from fractions import Fraction

from gkmhess.classes import (EquivariantClass, InfeasibleInterpolationError,
                             InterpolationResult, _packed_monomials, top_value)
from gkmhess.gkm import GkmGraph, HessenbergFunction, l_h
from gkmhess.linalg import row_reduce
from gkmhess.perms import Permutation
from gkmhess.polys import FIELD_BITS, MAX_EXPONENT, MultiPoly
from gkmhess.reach import support_A


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
