"""Symbolic charts of minus cells, their minors, and the fixed-point oracle.

Points of the minus cell attached to ``(w, h)`` are matrices ``\\dot w x``
with ``x`` lower unitriangular.  Entries of ``x`` below the diagonal split
into three kinds: zero (the target value is smaller), free coordinates (the
pair is an edge of the cell digraph), and dependent entries, solved from
their defining polynomials f_{alpha,beta} = (c_{w(alpha)} - c_{w(beta)})
x_{alpha,beta} + S(alpha, beta), which vanish for alpha > h(beta).  The sum S
over decreasing index chains, split at its first step, reads off the f of
pairs of smaller gap, so each f is computed once per chart.  Solving
dependent entries in increasing index gap expresses everything in the free
coordinates.  The chart reads h only through the cell digraph: its free
pairs are the digraph's edges, and every other entry is zero or solved.  So
two h with the same digraph for w give the same chart, and it serves the
consistency check of each.

``build_cell_chart`` is the one way to make a chart; every consumer,
the minors certificate included, takes the chart it builds.  Minimal paths
of the cell digraph come from one depth-first walk that never extends a path
by a vertex an earlier vertex has an edge to.

Minors of ``x`` detect reachability (nonvanishing iff the column set reaches
the row set), and the Plücker coordinates of the cell, the leading minors of
``\\dot w x`` as polynomials in the free coordinates, recover the fixed points
of the closed cell, giving an oracle for the support computation that never
looks at the reachability combinatorics.  Both are exact: a minor counts as
nonzero when its polynomial is, and no point is sampled.  Every minor and
every Plücker coordinate comes from one Laplace recurrence over row subsets,
each minor from the minors of its subsets one row smaller, over the chart's
polynomial entries.  The recurrence keeps a vanishing minor as the ``int``
0 and skips every term with a zero entry or a zero sub-minor, so no
polynomial is ever multiplied by a known zero.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .gkm import HessenbergFunction
from .perms import Permutation, prefix_closed
from .polys import MultiPoly
from .reach import CellDigraph, build_cell_digraph, set_reachable


class DegenerateEigenvaluesError(ValueError):
    pass


@dataclass(frozen=True)
class EigenvalueVector:
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(set(self.values)) != len(self.values):
            raise DegenerateEigenvaluesError(f"eigenvalues not distinct: {self.values}")

    def __getitem__(self, k: int) -> Fraction:
        """1-based access c_k."""
        return self.values[k - 1]

    @property
    def n(self) -> int:
        return len(self.values)

    @functools.cached_property
    def exact(self) -> tuple[int | Fraction, ...]:
        """The values, each an ``int`` where integral."""
        return tuple(v.numerator if v.denominator == 1 else v for v in self.values)

    @classmethod
    def random(cls, n: int, rng: random.Random, span: int = 10**6) -> "EigenvalueVector":
        values = rng.sample(range(1, span), n)
        return cls(tuple(Fraction(v) for v in values))


@functools.cache
def prime_eigenvalues(n: int) -> EigenvalueVector:
    """c_k = k-th prime; the default generic choice."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < n:
        # trial division by the primes found so far
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return EigenvalueVector(tuple(Fraction(p) for p in primes))


def _free_pairs(w: Permutation, h: HessenbergFunction) -> list[tuple[int, int]]:
    """The pairs (i, j), ascending, of the edges j -> i of the cell digraph
    G_{w,h}: ``j < i <= h(j)`` and ``w(j) < w(i)``."""
    return sorted((i, j) for j, i in h.pairs if w(j) < w(i))


class CellChart:
    """All below-diagonal entries of the chart, as polynomials in free variables."""

    def __init__(self, w: Permutation, h: HessenbergFunction, c: EigenvalueVector):
        if c.n != h.n:
            raise ValueError("eigenvalue count must match n")
        self.w = w
        self.h = h
        self.c = c
        self.free_pairs = _free_pairs(w, h)
        self.var_names = tuple(f"x{i}_{j}" for i, j in self.free_pairs)
        self.nvars = len(self.free_pairs)
        self._var_index = {pair: k for k, pair in enumerate(self.free_pairs)}
        # c_{w(a)} at position a (index a - 1), an int where integral
        self._eigen_at = [c.exact[k - 1] for k in w]
        # polynomials are never changed in place, so one zero and one one serve
        self._zero_poly = MultiPoly.zero(self.nvars)
        self._one_poly = MultiPoly.one(self.nvars)
        self.entries: dict[tuple[int, int], MultiPoly] = {}
        self._equations: dict[tuple[int, int], MultiPoly] = {}
        self._build()

    @functools.cached_property
    def digraph(self) -> CellDigraph:
        """The cell digraph, whose edges are the free pairs, built on first read."""
        return build_cell_digraph(self.w, self.h)

    def _coeff(self, a: int, b: int) -> int | Fraction:
        """c_{w(a)} - c_{w(b)} for positions a != b, an ``int`` where
        integral; nonzero, as the eigenvalues are distinct."""
        diff = self._eigen_at[a - 1] - self._eigen_at[b - 1]
        return diff.numerator if diff.denominator == 1 else diff

    def _build(self) -> None:
        n = self.h.n
        for gap in range(1, n):
            for beta in range(1, n - gap + 1):
                alpha = beta + gap
                if self.w(alpha) < self.w(beta):
                    entry = self._zero_poly
                elif (alpha, beta) in self._var_index:
                    entry = MultiPoly.variable(self._var_index[(alpha, beta)], self.nvars)
                else:
                    entry = self._chain_sum(alpha, beta) * Fraction(-1, self._coeff(alpha, beta))
                self.entries[(alpha, beta)] = entry

    def _chain_sum(self, alpha: int, beta: int) -> MultiPoly:
        """S(alpha, beta) = -sum_{beta < gamma < alpha} x_{alpha,gamma} f_{gamma,beta}:
        the signed sum over decreasing chains alpha > g_1 > ... > g_t > beta,
        grouped by g_1 = gamma, whose chains on to beta sum to f_{gamma,beta}."""
        total = self._zero_poly
        for gamma in range(beta + 1, alpha):
            step = self.entries[(alpha, gamma)]
            if not step.is_zero:
                total = total - step * self.defining_equation(gamma, beta)
        return total

    def entry(self, i: int, j: int) -> MultiPoly:
        """Entry of ``x`` at row i, column j (unitriangular)."""
        if i == j:
            return self._one_poly
        if i < j:
            return self._zero_poly
        return self.entries[(i, j)]

    def defining_equation(self, alpha: int, beta: int) -> MultiPoly:
        """f^w_{alpha,beta}, computed on first use and kept on the chart."""
        f = self._equations.get((alpha, beta))
        if f is None:
            f = self.entries[(alpha, beta)] * self._coeff(alpha, beta)
            f = f + self._chain_sum(alpha, beta)
            self._equations[(alpha, beta)] = f
        return f

    def consistency_violations(self, h: HessenbergFunction | None = None) -> list[tuple[int, int]]:
        """Pairs alpha > h(beta) whose defining equation fails to vanish.

        ``h`` defaults to the chart's own.  Any h with the same cell digraph
        for w has this chart, so its pairs are read off this chart's
        equations; an h with another digraph raises ``ValueError``.  A
        dependent entry is solved from its own equation, so only a pair
        whose entry is forced to 0 (w(alpha) < w(beta)) can fail, and only
        those are evaluated: their equation reads S(alpha, beta) = 0.
        """
        if h is None:
            h = self.h
        elif h.n != self.h.n or _free_pairs(self.w, h) != self.free_pairs:
            raise ValueError(f"h = {h} gives w = {self.w} another cell digraph than h = {self.h}")
        n = h.n
        return [
            (alpha, beta)
            for beta in range(1, n + 1)
            for alpha in range(h(beta) + 1, n + 1)
            if self.w(alpha) < self.w(beta)
            and not self.defining_equation(alpha, beta).is_zero
        ]


def build_cell_chart(w: Permutation, h: HessenbergFunction, c: EigenvalueVector | None = None) -> CellChart:
    return CellChart(w, h, c if c is not None else prime_eigenvalues(h.n))


# -- minimal paths -----------------------------------------------------------


def minimal_paths(g: CellDigraph, j: int, i: int) -> list[tuple[int, ...]]:
    """The directed paths from j to i with no edge between two
    non-consecutive vertices, each as its full vertex sequence, in
    depth-first order over ``g.successors``.

    A path grows only by a successor of its last vertex that no earlier
    vertex has an edge to, as such an edge stays in every extension, and
    never past i, as edges increase the index.
    """
    out = []
    stack = [(j,)]
    while stack:
        path = stack.pop()
        if path[-1] == i:
            out.append(path)
            continue
        for s in reversed(g.successors(path[-1])):
            if s <= i:
                for v in path[:-1]:
                    if (v, s) in g.edges:
                        break
                else:
                    stack.append(path + (s,))
    return out


def minimal_path_coefficient(path: Sequence[int], w: Permutation, c: EigenvalueVector) -> Fraction:
    """Closed-form coefficient of the monomial attached to a minimal path.

    For the path ``j = g_{t+1} -> g_t -> ... -> g_1 -> g_0 = i`` the value is
    the product of ``c_{w(g_l)} - c_{w(g_{l+1})}`` for ``l = 1..t`` divided by
    the product of ``c_{w(i)} - c_{w(g_l)}`` for ``l = 2..t+1``.
    """
    ascending = list(path)
    gammas = list(reversed(ascending))  # g_0 = i down to g_{t+1} = j
    t = len(gammas) - 2
    numerator = Fraction(1)
    for ell in range(1, t + 1):
        numerator *= c[w(gammas[ell])] - c[w(gammas[ell + 1])]
    denominator = Fraction(1)
    for ell in range(2, t + 2):
        denominator *= c[w(gammas[0])] - c[w(gammas[ell])]
    return numerator / denominator


def path_monomial_exponents(chart: CellChart, path: Sequence[int]) -> tuple[int, ...]:
    exps = [0] * chart.nvars
    for a, b in zip(path, path[1:]):
        exps[chart._var_index[(b, a)]] += 1
    return tuple(exps)


# -- minors ------------------------------------------------------------------


def _leading_minors(rows: Sequence[Sequence]) -> list:
    """``minors[R]`` = det of the rows in ``R`` on the first ``|R|`` columns,
    for every row subset ``R`` as a bitmask (bit r for ``rows[r]``).

    The package's one determinant: entries may be ``int``, ``Fraction`` or
    ``MultiPoly`` in any mix, a zero entry passed as the ``int`` 0.  Laplace
    expansion along column ``|R|``: det(R) = sum over r in R of
    (-1)^(pos + |R|) rows[r][|R| - 1] det(R minus r), pos the 1-based rank
    of r in R.  A subset comes after all of its subsets in numeric order.
    A vanishing
    minor is stored as the ``int`` 0, so every stored ``MultiPoly`` is
    nonzero, and a term whose entry or sub-minor is zero is never
    multiplied: each product has two nonzero factors.
    """
    n = len(rows)
    minors = [1] + [0] * ((1 << n) - 1)
    for mask in range(1, 1 << n):
        col = mask.bit_count() - 1
        total = None
        negative = False  # the sign of the term for the next row of R
        for r in range(n - 1, -1, -1):
            bit = 1 << r
            if mask & bit:
                entry, sub = rows[r][col], minors[mask ^ bit]
                if entry and sub:
                    term = entry * sub
                    if total is None:
                        total = -term if negative else term
                    else:
                        total = total - term if negative else total + term
                negative = not negative
        if total is not None and total != 0:
            minors[mask] = total
    return minors


def _polynomial_rows(chart: CellChart, rows, cols) -> list[list[MultiPoly | int]]:
    """The chart's entries on ``rows`` x ``cols``, index sequences of equal
    size, with a zero entry as the ``int`` 0 so that ``_leading_minors``
    skips it."""
    rows, cols = tuple(rows), tuple(cols)
    if len(rows) != len(cols):
        raise ValueError("row and column sets must have equal size")
    return [[0 if (poly := chart.entry(r, c)).is_zero else poly for c in cols] for r in rows]


def minor_symbolic(chart: CellChart, rows, cols) -> MultiPoly:
    """det over chart entries, rows/cols ascending index tuples of equal size."""
    det = _leading_minors(_polynomial_rows(chart, rows, cols))[-1]
    return det if type(det) is MultiPoly else MultiPoly.constant(det, chart.nvars)


MAX_EIGENVALUE_RESAMPLES = 3


class TheoremViolationError(AssertionError):
    """A nonzero minor on an unreachable pair: must never happen."""


@dataclass
class MinorCertificate:
    w: Permutation
    h: HessenbergFunction
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    reachable: bool
    minor_nonzero: bool
    eigenvalue_resamples: int

    @property
    def agree(self) -> bool:
        return self.reachable == self.minor_nonzero


def minor_reachability_certificate(
    chart: CellChart, rows, cols, rng: random.Random
) -> MinorCertificate:
    """Compare minor nonvanishing against set reachability in the cell of
    ``(chart.w, chart.h)``.

    The symbolic minor on ``chart`` decides, and the chart's digraph gives
    reachability, so one chart serves every pair of one ``(w, h)``.
    Nonzero on an unreachable pair is a hard failure.  A reachable pair
    whose minor vanishes identically at the chart's eigenvalues is tried
    again on the chart of the same ``(w, h)`` at fresh ones drawn from
    ``rng`` (genericity resampling), before giving up.
    """
    w, h = chart.w, chart.h
    rows, cols = tuple(sorted(rows)), tuple(sorted(cols))
    reachable = set_reachable(chart.digraph, cols, rows)
    eigen_resamples = 0
    while True:
        nonzero = not minor_symbolic(chart, rows, cols).is_zero
        if nonzero and not reachable:
            raise TheoremViolationError(
                f"nonzero minor on unreachable pair: w={w}, h={h}, A={rows}, B={cols}"
            )
        if nonzero == reachable:
            return MinorCertificate(w, h, rows, cols, reachable, nonzero, eigen_resamples)
        # reachable but identically zero at these eigenvalues: resample
        if eigen_resamples == MAX_EIGENVALUE_RESAMPLES:
            return MinorCertificate(w, h, rows, cols, reachable, nonzero, eigen_resamples)
        eigen_resamples += 1
        fresh = EigenvalueVector.random(h.n, rng, span=10 ** (6 + eigen_resamples))
        chart = build_cell_chart(w, h, fresh)


# -- Pluecker coordinates and the fixed-point oracle -------------------------


def fixed_point_oracle(w: Permutation, h: HessenbergFunction) -> frozenset[Permutation]:
    """Fixed points of the closed cell from its Pluecker coordinates: u
    belongs iff every sorted prefix of u indexes a nonzero coordinate.

    A prefix whose coordinate vanishes is not extended.
    """
    nonzero = _nonzero_minor_masks(w, h)
    return frozenset(prefix_closed(h.n, nonzero.__contains__))


def _nonzero_minor_masks(w: Permutation, h: HessenbergFunction) -> set[int]:
    """Row sets of ``g = \\dot w x``, as bitmasks (bit r - 1 for row r), whose
    leading minor is a nonzero polynomial in the free coordinates: the
    nonzero Pluecker coordinates.  Row r of ``g`` is row ``w^-1(r)`` of ``x``."""
    w_inv = w.inverse()
    rows = _polynomial_rows(
        build_cell_chart(w, h), [w_inv(r) for r in range(1, h.n + 1)], range(1, h.n + 1)
    )
    minors = _leading_minors(rows)
    return {mask for mask in range(1, len(minors)) if minors[mask]}
