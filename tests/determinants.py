"""Determinant references independent of the package, whose one determinant
is the subset recurrence ``cells._leading_minors``."""

import itertools
import math
from fractions import Fraction


def permutation_sign(sigma):
    """(-1) to the number of inversions of ``sigma``."""
    inversions = sum(a > b for i, a in enumerate(sigma) for b in sigma[i + 1:])
    return -1 if inversions % 2 else 1


def leibniz(matrix):
    """The k!-term Leibniz sum; works over any ring that takes ``int``
    coefficients (``int``, ``Fraction``, ``MultiPoly``)."""
    size = len(matrix)
    return sum(
        permutation_sign(sigma) * math.prod(matrix[r][sigma[r]] for r in range(size))
        for sigma in itertools.permutations(range(size))
    )


def elimination_det(matrix) -> Fraction:
    """Exact determinant by Gaussian elimination over ``Fraction``."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        lead = rows[col][col]
        det *= lead
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] / lead
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det
