"""Chromatic quasisymmetric functions and graded Frobenius characteristics.

The incomparability graph of a Hessenberg function has an edge ``{j, i}``
for every Hessenberg pair ``(j, i)`` in ``h.pairs``.  Colorings are
weighted by ascents: edges ``{j, i}`` with ``j < i`` and a strictly smaller
color at ``j``.  Each
t-coefficient must come out symmetric, which the construction asserts by
comparing rearranged contents.

The graded character side takes traces of exact action matrices at one
representative per cycle type, assembles the Frobenius characteristic in
the power-sum basis, and converts to complete homogeneous coordinates.
The two sides agree after applying the elementary/homogeneous involution
to the chromatic side, and for the permutohedral family the module types
produced by the erasing-marks decomposition match a closed product
formula degree by degree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .decomp import (
    erased_composition,
    eulerian_number,
    expected_type_multiset,
    g_set,
)
from .dot import ActionMatrix, action_matrix, degree_basis, generator_matrix
from .gkm import HessenbergFunction
from .perms import Permutation, partitions
from .symfunc import SymFunc, cycle_type_representative, z_mu


class SymmetryViolationError(AssertionError):
    """A t-coefficient failed to be a symmetric function."""


def chromatic_qsym(h: HessenbergFunction) -> list[SymFunc]:
    """Graded chromatic symmetric function, one m-basis vector per t-degree.

    Enumerates all proper colorings with colors in [n] and buckets them by
    exact content vector and ascent count; the coefficient of a monomial
    basis element is the count at the sorted content.
    """
    n = h.n
    top = len(h.pairs)
    counts: dict[tuple[int, ...], list[int]] = {}

    neighbors: list[list[tuple[int, bool]]] = [[] for _ in range(n + 1)]
    for j, i in h.pairs:
        neighbors[i].append((j, True))  # earlier endpoint, ascent if smaller color

    def color(vertex: int, coloring: list[int], ascents: int) -> None:
        if vertex > n:
            content = [0] * n
            for c in coloring[1:]:
                content[c - 1] += 1
            key = tuple(content)
            bucket = counts.setdefault(key, [0] * (top + 1))
            bucket[ascents] += 1
            return
        for c in range(1, n + 1):
            ok = True
            asc = 0
            for j, _ in neighbors[vertex]:
                cj = coloring[j]
                if cj == c:
                    ok = False
                    break
                if cj < c:
                    asc += 1
            if ok:
                coloring.append(c)
                color(vertex + 1, coloring, ascents + asc)
                coloring.pop()

    color(1, [0], 0)

    graded: list[SymFunc] = []
    plist = list(partitions(n))
    for k in range(top + 1):
        coeffs = {}
        for lam in plist:
            padded = tuple(lam) + (0,) * (n - len(lam))
            value = counts.get(padded, [0] * (top + 1))[k]
            _assert_symmetric(counts, lam, n, k, top)
            if value:
                coeffs[lam] = Fraction(value)
        graded.append(SymFunc(n, "m", coeffs))
    while len(graded) > 1 and graded[-1].is_zero():
        graded.pop()
    return graded


def _assert_symmetric(counts, lam, n, k, top) -> None:
    """All content rearrangements of a partition must produce equal counts."""
    padded = tuple(lam) + (0,) * (n - len(lam))
    reference = counts.get(padded, [0] * (top + 1))[k]
    for arrangement in set(itertools.permutations(padded)):
        value = counts.get(arrangement, [0] * (top + 1))[k]
        if value != reference:
            raise SymmetryViolationError(
                f"content {arrangement} count {value} != {reference} at t^{k}"
            )


# -- Frobenius characteristics -------------------------------------------------


def frobenius_of_degree(
    h: HessenbergFunction,
    k: int,
    matrices_by_generator: dict[int, ActionMatrix] | None = None,
) -> SymFunc:
    """Character of degree 2k under the dot action, as an h-basis vector.

    Traces at one representative per cycle type; the class function is
    assembled over power sums with centralizer normalization.
    """
    n = h.n
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for mu in partitions(n):
        rep = cycle_type_representative(mu)
        matrix = _matrix_of(rep, k, h, matrices_by_generator)
        chi = matrix.trace()
        if chi:
            coeffs[mu] = Fraction(chi, z_mu(mu))
    return SymFunc(n, "p", coeffs).to_basis("h")


def _matrix_of(u: Permutation, k: int, h: HessenbergFunction,
               matrices_by_generator: dict[int, ActionMatrix] | None) -> ActionMatrix:
    if matrices_by_generator is None:
        return action_matrix(u, k, h)
    order = degree_basis(h, k)
    result = ActionMatrix.identity(k, h, order)
    for gen in u.reduced_word():
        result = result.compose(matrices_by_generator[gen])
    return result


@dataclass
class SwReport:
    h: HessenbergFunction
    n: int
    agree: bool
    per_degree: list[bool]
    convention_flag: str | None = None


def verify_shareshian_wachs(h: HessenbergFunction) -> SwReport:
    """Coefficientwise h-basis equality of the involuted chromatic function
    and the graded Frobenius characteristic.

    If the stated ascent convention fails but its mirror (descent counting)
    succeeds, the report flags the convention instead of failing silently.
    """
    n = h.n
    graded = chromatic_qsym(h)
    top = len(h.pairs)
    basis = None
    if not (h.is_permutohedral() or h.is_full_flag()):
        from .dot import unique_interpolated_basis

        basis = unique_interpolated_basis(h)
    matrices = {
        k: {i: generator_matrix(i, k, h, basis) for i in range(1, n)}
        for k in range(top + 1)
    }
    per_degree = []
    for k in range(top + 1):
        lhs = (
            graded[k].omega().to_basis("h")
            if k < len(graded)
            else SymFunc.zero(n, "h")
        )
        rhs = frobenius_of_degree(h, k, matrices[k])
        per_degree.append(lhs == rhs)
    agree = all(per_degree)
    flag = None
    if not agree:
        mirrored = [
            graded[top - k].omega().to_basis("h") == frobenius_of_degree(h, k, matrices[k])
            if top - k < len(graded)
            else frobenius_of_degree(h, k, matrices[k]).is_zero()
            for k in range(top + 1)
        ]
        if all(mirrored):
            flag = "mirror-statistic"
    return SwReport(h=h, n=n, agree=agree, per_degree=per_degree, convention_flag=flag)


@dataclass
class ClosedExpansionReport:
    n: int
    agree_types: bool
    agree_dims: bool
    total_dimension: int

    @property
    def agree(self) -> bool:
        return self.agree_types and self.agree_dims and self.total_dimension > 0


def verify_closed_expansion(n: int) -> ClosedExpansionReport:
    """Degree-by-degree module types of the erasing-marks decomposition
    against the closed generating function, at the level of compositions,
    plus the dimension bookkeeping (degree dimensions are the descent
    counts; the total is n factorial)."""
    agree_types = True
    agree_dims = True
    total = 0
    for k in range(n):
        observed: dict[tuple[int, ...], int] = {}
        dim = 0
        for w in g_set(n, k):
            a_hat = tuple(erased_composition(w.descent_composition()))
            observed[a_hat] = observed.get(a_hat, 0) + 1
            dim += math.factorial(n) // math.prod(map(math.factorial, a_hat))
        if observed != expected_type_multiset(n, k):
            agree_types = False
        if dim != eulerian_number(n, k):
            agree_dims = False
        total += dim
    return ClosedExpansionReport(
        n=n,
        agree_types=agree_types,
        agree_dims=agree_dims,
        total_dimension=total if total == math.factorial(n) else 0,
    )

