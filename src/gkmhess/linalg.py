"""Exact Gauss–Jordan elimination on sparse rational rows.

The one rational elimination of the package: the vertex systems of
flow-up interpolation, symmetric-function basis transitions and minors all
call ``row_reduce``.  (The ranks of ``decomp`` run modulo a prime, on the
same sparse rows, in ``decomp._rank_mod_p``.)
"""

from __future__ import annotations

from fractions import Fraction

Row = dict[int, int | Fraction]


def row_reduce(rows, bound: int | None = None) -> tuple[dict[int, Row], list[Row], Fraction]:
    """Reduced row echelon form of sparse rows ``{column: value}``.

    Values are ``int`` or ``Fraction``; results keep ``int`` wherever no
    division was needed.

    Rows are added in turn: each is reduced by the pivot rows so far, takes
    its smallest column below ``bound`` (any column when ``bound`` is None)
    as pivot, is normalised, and clears that column from the other pivot
    rows.  Returns ``(pivots, leftover, det)``:

    * ``pivots`` maps each pivot column to its row, which is 1 there and 0 at
      every other pivot column;
    * ``leftover`` holds the reduced rows that found no pivot column but are
      not zero (with a bound, these are the relations among the columns at
      or above it);
    * ``det`` is the determinant when the rows form a square matrix and
      ``bound`` is None: the product of the pivots times the sign of the
      order in which rows took pivot columns, or 0 if some row took none.
    """
    pivots: dict[int, Row] = {}
    leftover: list[Row] = []
    det = Fraction(1)
    order: list[int] = []
    for source in rows:
        row = {c: v for c, v in source.items() if v}
        for c in [c for c in row if c in pivots]:
            _subtract(row, row.pop(c), pivots[c], c)
        candidates = [c for c in row if bound is None or c < bound]
        if not candidates:
            if row:
                leftover.append(row)
            det = Fraction(0)
            continue
        col = min(candidates)
        lead = row[col]
        det *= lead
        if lead != 1:
            # integer rows stay integer where they can: int arithmetic is
            # several times cheaper than Fraction arithmetic
            lead = Fraction(lead)
            row = {k: v / lead for k, v in row.items()}
        for other in pivots.values():
            if col in other:
                _subtract(other, other.pop(col), row, col)
        pivots[col] = row
        order.append(col)
    if det:
        inversions = sum(
            a > b for i, a in enumerate(order) for b in order[i + 1:]
        )
        det = -det if inversions % 2 else det
    return pivots, leftover, det


def _subtract(row: Row, factor, pivot_row: Row, col: int) -> None:
    """``row -= factor * pivot_row`` off the pivot column ``col``, in place."""
    for k, v in pivot_row.items():
        if k != col:
            value = row.get(k, 0) - factor * v
            if value:
                row[k] = value
            else:
                del row[k]
