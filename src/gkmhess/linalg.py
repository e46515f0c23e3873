"""Exact Gauss–Jordan elimination on sparse rational rows.

The one rational elimination of the package: the vertex systems of
flow-up interpolation and the symmetric-function basis transitions call
``row_reduce``.  Minors do not: every determinant of the package is the
subset recurrence ``cells._leading_minors``.  (The ranks of ``decomp`` run
modulo a prime, on the same sparse rows, in ``decomp._rank_mod_p``.)
"""

from __future__ import annotations

from fractions import Fraction

Row = dict[int, int | Fraction]


def row_reduce(rows, bound: int | None = None) -> tuple[dict[int, Row], list[Row]]:
    """Reduced row echelon form of sparse rows ``{column: value}``.

    Values are ``int`` or ``Fraction``; results keep ``int`` wherever no
    division was needed.

    Rows are added in turn: each is reduced by the pivot rows so far, takes
    its smallest column below ``bound`` (any column when ``bound`` is None)
    as pivot, is normalised, and clears that column from the other pivot
    rows.  Returns ``(pivots, leftover)``:

    * ``pivots`` maps each pivot column to its row, which is 1 there and 0 at
      every other pivot column;
    * ``leftover`` holds the reduced rows that found no pivot column but are
      not zero (with a bound, these are the relations among the columns at
      or above it).
    """
    pivots: dict[int, Row] = {}
    leftover: list[Row] = []
    for source in rows:
        row = {c: v for c, v in source.items() if v}
        for c in [c for c in row if c in pivots]:
            _subtract(row, row.pop(c), pivots[c], c)
        candidates = [c for c in row if bound is None or c < bound]
        if not candidates:
            if row:
                leftover.append(row)
            continue
        col = min(candidates)
        lead = row[col]
        if lead != 1:
            # integer rows stay integer where they can: int arithmetic is
            # several times cheaper than Fraction arithmetic
            lead = Fraction(lead)
            row = {k: v / lead for k, v in row.items()}
        for other in pivots.values():
            if col in other:
                _subtract(other, other.pop(col), row, col)
        pivots[col] = row
    return pivots, leftover


def _subtract(row: Row, factor, pivot_row: Row, col: int) -> None:
    """``row -= factor * pivot_row`` off the pivot column ``col``, in place."""
    for k, v in pivot_row.items():
        if k != col:
            value = row.get(k, 0) - factor * v
            if value:
                row[k] = value
            else:
                del row[k]
