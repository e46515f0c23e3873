"""Exact symmetric functions of a fixed degree over partition-indexed bases.

Coefficient vectors over partitions of ``n`` in one of the classical bases
(monomial, elementary, complete homogeneous, power sum, Schur).  Transition
matrices are built once per degree by counting: the coefficient of
``x^mu`` in a product of elementary, complete homogeneous or power-sum
factors is the number of ways to pick one monomial per factor with product
``x^mu``, and Schur functions expand through Kostka numbers.  They are
inverted with the shared exact kernel of ``linalg``, so every
conversion round-trips bit-exactly; a conversion to ``m`` reads only the
counted matrix, and two vectors in one basis compare without conversion.
The involution omega swapping elementary and complete homogeneous
generators acts by retagging in the e/h pair of bases and by the sign
``(-1)^(n - len(mu))`` on each power sum ``p_mu``; in ``m`` and ``s`` it
goes through ``e``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .linalg import row_reduce
from .perms import partitions

BASES = ("m", "e", "h", "p", "s")


def partition_list(n: int) -> list[tuple[int, ...]]:
    return list(partitions(n))


# -- monomial expansions by counting -------------------------------------------


def _e_choices(part: int, remaining: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """What is left of ``x^remaining`` after each square-free monomial of degree ``part``."""
    for chosen in itertools.combinations(range(len(remaining)), part):
        left = list(remaining)
        for i in chosen:
            left[i] -= 1
        yield _sorted_content(left)


def _h_choices(part: int, remaining: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """What is left of ``x^remaining`` after each monomial of degree ``part``."""

    def take(i: int, need: int, left: list[int]) -> Iterator[tuple[int, ...]]:
        if i == len(remaining):
            if not need:
                yield _sorted_content(left)
            return
        for a in range(min(need, remaining[i]) + 1):
            left.append(remaining[i] - a)
            yield from take(i + 1, need - a, left)
            left.pop()

    yield from take(0, part, [])


def _p_choices(part: int, remaining: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """What is left of ``x^remaining`` after each pure power ``x_i^part``."""
    for i, r in enumerate(remaining):
        if r >= part:
            left = list(remaining)
            left[i] -= part
            yield _sorted_content(left)


def _sorted_content(exponents: list[int]) -> tuple[int, ...]:
    return tuple(sorted((e for e in exponents if e), reverse=True))


@lru_cache(maxsize=None)
def _kostka(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Number of semistandard tableaux of shape lam and content mu."""

    def fill(row: int, remaining: tuple[int, ...], prev_row: tuple[int, ...]) -> int:
        if row == len(lam):
            return 1 if not any(remaining) else 0
        width = lam[row]
        total = 0

        def choose(col: int, last_value: int, rem: list[int], current: list[int]) -> None:
            nonlocal total
            if col == width:
                total += fill(row + 1, tuple(rem), tuple(current))
                return
            lo = max(last_value, (prev_row[col] + 1) if col < len(prev_row) else 1)
            for value in range(lo, len(rem) + 1):
                if rem[value - 1] > 0:
                    rem[value - 1] -= 1
                    current.append(value)
                    choose(col + 1, value, rem, current)
                    current.pop()
                    rem[value - 1] += 1

        choose(0, 1, list(remaining), [])
        return total

    return fill(0, mu, ())


@lru_cache(maxsize=None)
def _monomial_expansion(basis: str, lam: tuple[int, ...], n: int) -> dict[tuple[int, ...], Fraction]:
    """Coefficients of the basis element over monomial symmetric functions."""
    if basis == "m":
        return {lam: Fraction(1)}
    if basis == "s":
        return {
            mu: Fraction(_kostka(lam, mu))
            for mu in partition_list(n)
            if _kostka(lam, mu)
        }
    choices = {"e": _e_choices, "h": _h_choices, "p": _p_choices}[basis]
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def ways(index: int, remaining: tuple[int, ...]) -> int:
        """Choices of one monomial per factor ``lam[index:]`` with product ``x^remaining``.

        Each factor is symmetric, so the count depends only on the sorted
        exponents, which is how ``remaining`` is kept.
        """
        if index == len(lam):
            return 1
        key = (index, remaining)
        if key not in memo:
            memo[key] = sum(ways(index + 1, left) for left in choices(lam[index], remaining))
        return memo[key]

    out: dict[tuple[int, ...], Fraction] = {}
    for mu in partition_list(n):
        count = ways(0, mu)
        if count:
            out[mu] = Fraction(count)
    return out


@lru_cache(maxsize=None)
def _transition_to_m(basis: str, n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix with column lam = m-expansion of basis element lam."""
    plist = partition_list(n)
    index = {mu: i for i, mu in enumerate(plist)}
    cols = []
    for lam in plist:
        col = [Fraction(0)] * len(plist)
        for mu, coeff in _monomial_expansion(basis, lam, n).items():
            col[index[mu]] = coeff
        cols.append(tuple(col))
    return tuple(cols)


@lru_cache(maxsize=None)
def _transition_from_m(basis: str, n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse transition: columns express m-elements over the basis.

    Row-reduces ``[A | I]``, where ``A`` has the columns of
    ``_transition_to_m``; the right half of the reduced rows is ``A^-1``.
    """
    cols = _transition_to_m(basis, n)
    size = len(cols)
    augmented = [
        {**{c: cols[c][r] for c in range(size)}, size + r: 1} for r in range(size)
    ]
    inverse, _leftover = row_reduce(augmented, bound=size)
    return tuple(
        tuple(Fraction(inverse[r].get(size + c, 0)) for r in range(size))
        for c in range(size)
    )


class SymFunc:
    """Degree-n symmetric function: basis tag plus partition-indexed coefficients."""

    __slots__ = ("n", "basis", "coeffs")

    def __init__(self, n: int, basis: str, coeffs: dict):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.n = n
        self.basis = basis
        if any(isinstance(c, float) for c in coeffs.values()):
            raise TypeError("coefficients must be exact (int or Fraction), not float")
        self.coeffs = {
            tuple(lam): Fraction(c) for lam, c in coeffs.items() if c
        }
        for lam in self.coeffs:
            if sum(lam) != n or any(
                lam[i] < lam[i + 1] for i in range(len(lam) - 1)
            ):
                raise ValueError(f"{lam} is not a partition of {n}")

    @classmethod
    def zero(cls, n: int, basis: str = "m") -> "SymFunc":
        return cls(n, basis, {})

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if self.n != other.n:
            raise ValueError("degree mismatch")
        other = other.to_basis(self.basis)
        coeffs = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            coeffs[lam] = coeffs.get(lam, Fraction(0)) + c
        return SymFunc(self.n, self.basis, coeffs)

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + other.scale(-1)

    def scale(self, factor) -> "SymFunc":
        if isinstance(factor, float):
            raise TypeError("scale factor must be exact (int or Fraction), not float")
        return SymFunc(
            self.n, self.basis,
            {lam: c * Fraction(factor) for lam, c in self.coeffs.items()},
        )

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        if self.basis == other.basis:
            return self.n == other.n and self.coeffs == other.coeffs
        return (
            self.n == other.n
            and self.to_basis("m").coeffs == other.to_basis("m").coeffs
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.to_basis("m").coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def to_basis(self, basis: str) -> "SymFunc":
        if basis == self.basis:
            return self
        plist = partition_list(self.n)
        index = {lam: i for i, lam in enumerate(plist)}
        vec = [Fraction(0)] * len(plist)
        to_m = _transition_to_m(self.basis, self.n)
        for lam, c in self.coeffs.items():
            col = to_m[index[lam]]
            for i, v in enumerate(col):
                vec[i] += c * v
        if basis == "m":
            coeffs = {plist[i]: v for i, v in enumerate(vec) if v}
            return SymFunc(self.n, "m", coeffs)
        from_m = _transition_from_m(basis, self.n)
        out = [Fraction(0)] * len(plist)
        for i, v in enumerate(vec):
            if v:
                col = from_m[i]
                for r, entry in enumerate(col):
                    out[r] += v * entry
        coeffs = {plist[i]: v for i, v in enumerate(out) if v}
        return SymFunc(self.n, basis, coeffs)

    def omega(self) -> "SymFunc":
        """The involution exchanging elementary and complete homogeneous
        bases: a retagging in e/h, a sign per part count in p, through e
        otherwise."""
        if self.basis == "e":
            return SymFunc(self.n, "h", self.coeffs)
        if self.basis == "h":
            return SymFunc(self.n, "e", self.coeffs)
        if self.basis == "p":
            # omega p_mu = (-1)^(n - len(mu)) p_mu
            return SymFunc(self.n, "p", {
                mu: -c if (self.n - len(mu)) % 2 else c for mu, c in self.coeffs.items()
            })
        return self.to_basis("e").omega().to_basis(self.basis)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for lam in sorted(self.coeffs, reverse=True):
            c = self.coeffs[lam]
            name = f"{self.basis}[{','.join(map(str, lam))}]"
            bits.append(f"{c}*{name}")
        return " + ".join(bits)

    __repr__ = __str__


def z_mu(mu: tuple[int, ...]) -> int:
    """Centralizer order of the cycle type: prod i^{m_i} m_i!."""
    return math.prod(part**m * math.factorial(m) for part, m in Counter(mu).items())

