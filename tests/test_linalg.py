from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from determinants import elimination_det, leibniz
from gkmhess.cells import _leading_minors
from gkmhess.decomp import _FALLBACK_PRIME, _MOD_PRIME, _certified_rank, _rank_mod_p
from gkmhess.linalg import row_reduce


def matrices(entries, max_size=4, square=True):
    @st.composite
    def build(draw):
        rows = draw(st.integers(0, max_size))
        cols = rows if square else draw(st.integers(1, max_size + 1))
        return [[draw(entries) for _ in range(cols)] for _ in range(rows)]

    return build()


fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
# low-rank and singular inputs are common with mostly small integers
small_ints = st.integers(-2, 2)


def sparse(matrix):
    return [dict(enumerate(row)) for row in matrix]


@given(matrices(st.one_of(fractions, small_ints.map(Fraction))))
@settings(max_examples=200)
def test_determinant_matches_leibniz(matrix):
    # the package's one determinant, and the elimination reference of the tests
    expected = leibniz(matrix)
    assert _leading_minors(matrix)[-1] == expected
    assert elimination_det(matrix) == expected


@given(matrices(st.integers(-5, 5), max_size=5, square=False))
@settings(max_examples=200)
def test_rank_matches_modular_rank(matrix):
    # entries and sizes this small keep every minor far below the prime
    pivots, leftover = row_reduce(sparse(matrix))
    assert not leftover
    assert len(pivots) == _rank_mod_p(sparse(matrix))


@given(matrices(st.integers(-3, 3), max_size=4, square=False), st.integers(0, 5))
@settings(max_examples=200)
def test_bounded_pivots_give_rref_and_relations(matrix, bound):
    pivots, leftover = row_reduce(sparse(matrix), bound=bound)
    for col, row in pivots.items():
        assert col < bound and row[col] == 1
        assert min(row) == col
        assert all(other not in row for other in pivots if other != col)
    for row in leftover:
        assert row and min(row) >= bound
    # the reduced rows span exactly the row space of the input
    reduced = list(pivots.values()) + leftover
    rank = _rank_mod_p(sparse(matrix))
    assert len(row_reduce(reduced)[0]) == rank
    assert len(row_reduce(sparse(matrix) + reduced)[0]) == rank


@given(matrices(st.integers(-6, 6), max_size=6, square=False), st.randoms())
@settings(max_examples=200)
def test_modular_rank_of_sparse_rows_matches_sympy(matrix, random):
    # explicit zeros kept, columns in a shuffled order
    rows = []
    for row in matrix:
        items = list(enumerate(row))
        random.shuffle(items)
        rows.append(dict(items))
    assert _rank_mod_p(rows) == sympy.Matrix(matrix).rank()


def test_rank_lost_at_the_prime_is_recovered_at_the_fallback():
    p = _MOD_PRIME
    rows = [{0: p, 1: 2 * p}, {1: 3 * p, 2: 1}, {0: 1, 2: 5}]
    exact = sympy.Matrix([[p, 2 * p, 0], [0, 3 * p, 1], [1, 0, 5]]).rank()
    assert exact == 3
    assert _rank_mod_p(rows) == 2
    assert _rank_mod_p(rows, p=_FALLBACK_PRIME) == 3
    assert _certified_rank(rows, exact) == 3
