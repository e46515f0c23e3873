import random

import pytest
from hypothesis import given, settings, strategies as st

from gkmhess.dot import degree_basis
from gkmhess.gkm import (
    EdgeKind,
    GkmGraph,
    HessenbergFunction,
    _inversion_table,
    degree_bases,
    edge_kind,
    l_h,
    poincare_coefficients,
)
from gkmhess.cli import _inversion_masks
from gkmhess.perms import Permutation
from gkmhess.reach import build_cell_digraph


def test_smallest_case_is_degenerate_but_valid():
    h = HessenbergFunction((1,))
    assert poincare_coefficients(h) == (1,)
    assert h.pairs == ()


def test_hessenberg_validation():
    HessenbergFunction((2, 3, 3))
    with pytest.raises(ValueError):
        HessenbergFunction((1, 1, 3))  # h(2) < 2
    with pytest.raises(ValueError):
        HessenbergFunction((3, 2, 3))  # not weakly increasing
    with pytest.raises(ValueError):
        HessenbergFunction((2, 3, 4))  # exceeds n


def test_hessenberg_families():
    assert HessenbergFunction.permutohedral(5) == (2, 3, 4, 5, 5)
    assert HessenbergFunction.full_flag(3) == (3, 3, 3)
    assert HessenbergFunction.from_string("3,3,4,5,5") == (3, 3, 4, 5, 5)
    assert str(HessenbergFunction((3, 3, 4, 5, 5))) == "3,3,4,5,5"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pairs_are_the_hessenberg_pairs(n):
    for h in HessenbergFunction.all(n):
        nested = [(j, i) for j in range(1, n + 1) for i in range(j + 1, h(j) + 1)]
        assert h.pairs == tuple(nested)
        assert len(h.pairs) == len(poincare_coefficients(h)) - 1


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 5), (4, 14), (5, 42)])
def test_hessenberg_count_is_catalan(n, count):
    assert sum(1 for _ in HessenbergFunction.all(n)) == count


def test_gkm_graph_edges_at_132():
    h = HessenbergFunction((2, 3, 3))
    graph = GkmGraph(h)
    w = Permutation.from_one_line("132")
    targets = {str(t): (a, b) for t, a, b in graph.neighbors(w)}
    assert targets == {"312": (3, 1), "123": (2, 3)}


def test_full_flag_graph_regular():
    graph = GkmGraph(HessenbergFunction((3, 3, 3)))
    assert all(len(graph.neighbors(w)) == 3 for w in graph.vertices())


def test_edgeless_graph():
    graph = GkmGraph(HessenbergFunction((1, 2, 3, 4)))
    assert all(len(graph.neighbors(w)) == 0 for w in graph.vertices())


def test_degree_equals_pair_count():
    for h in HessenbergFunction.all(4):
        graph = GkmGraph(h)
        expected = sum(h(j) - j for j in range(1, 5))
        assert all(len(graph.neighbors(w)) == expected for w in graph.vertices())


def test_labels_antisymmetric():
    graph = GkmGraph(HessenbergFunction((2, 3, 3)))
    for v in graph.vertices():
        for target, a, b in graph.neighbors(v):
            back = {str(t): (c, d) for t, c, d in graph.neighbors(target)}
            assert back[str(v)] == (b, a)


def test_l_h_examples():
    h = HessenbergFunction((2, 3, 3))
    assert l_h(Permutation((2, 3, 1)), h) == 1
    assert l_h(Permutation((3, 2, 1)), h) == 2
    assert l_h(Permutation.identity(3), h) == 0


def test_poincare_examples():
    assert poincare_coefficients(HessenbergFunction((2, 3, 3))) == (1, 4, 1)
    assert poincare_coefficients(HessenbergFunction((3, 3, 3))) == (1, 2, 2, 1)
    # permutohedral coefficients are the descent counts
    assert poincare_coefficients(HessenbergFunction.permutohedral(4)) == (1, 11, 11, 1)


def test_poincare_sums_to_factorial():
    for h in HessenbergFunction.all(4):
        assert sum(poincare_coefficients(h)) == 24


def test_edge_kind_examples():
    h = HessenbergFunction((2, 4, 4, 4))
    assert edge_kind(Permutation.from_one_line("4123"), 3, h) is EdgeKind.DASHED
    assert edge_kind(Permutation.from_one_line("1342"), 2, h) is EdgeKind.SOLID_UP
    hf = HessenbergFunction.full_flag(4)
    for w in Permutation.all(4):
        for i in range(1, 4):
            assert edge_kind(w, i, hf) is not EdgeKind.DASHED


def test_edge_kind_consistent_with_cell_digraphs():
    # dashed: identical edge sets and equal statistic; solid: one extra edge
    for h in HessenbergFunction.all(4):
        for w in Permutation.all(4):
            for i in range(1, 4):
                si_w = Permutation.simple(i, 4) * w
                kind = edge_kind(w, i, h)
                e_w = build_cell_digraph(w, h).edges
                e_si = build_cell_digraph(si_w, h).edges
                if kind is EdgeKind.DASHED:
                    assert e_w == e_si
                    assert l_h(w, h) == l_h(si_w, h)
                else:
                    lower, higher = (
                        (w, si_w) if w.coxeter_length() < si_w.coxeter_length() else (si_w, w)
                    )
                    e_low = build_cell_digraph(lower, h).edges
                    e_high = build_cell_digraph(higher, h).edges
                    assert e_high < e_low and len(e_low - e_high) == 1
                    assert l_h(higher, h) == l_h(lower, h) + 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_l_h_equals_oriented_out_degree(n):
    for h in HessenbergFunction.all(n):
        graph = GkmGraph(h)
        for w in graph.vertices():
            assert len(graph.oriented_out(w)) == l_h(w, h)


def test_permutohedral_out_degree_is_descents():
    for n in (3, 4, 5, 6):
        graph = GkmGraph(HessenbergFunction.permutohedral(n))
        for w in Permutation.all(n):
            assert len(graph.neighbors(w)) == n - 1
            assert len(graph.oriented_out(w)) == len(w.descents())


@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_oriented_out_is_the_inversion_criterion(n, rng):
    # an edge w -> w t_{ji} lowers Coxeter length exactly when w(j) > w(i),
    # a test that reads no length
    h = HessenbergFunction.random(n, rng)
    graph = GkmGraph(h)
    for w in Permutation.all(n):
        expected = set()
        for j, i in h.pairs:
            if w(j) > w(i):
                images = list(w)
                images[j - 1], images[i - 1] = w(i), w(j)
                expected.add(tuple(images))
        assert {target for target, _a, _b in graph.oriented_out(w)} == expected


@pytest.mark.parametrize("n", range(1, 6))
def test_oriented_out_matches_the_length_drop_table(n):
    # the inversion rule against its definition: w t is shorter than w
    length = {w: w.coxeter_length() for w in Permutation.all(n)}
    for h in HessenbergFunction.all(n):
        graph = GkmGraph(h)
        for w in Permutation.all(n):
            assert graph.oriented_out(w) == [
                edge for edge in graph.neighbors(w) if length[edge[0]] < length[w]
            ]


def _flat_inversion_mask(w):
    # the pairs j < i with w(j) > w(i), numbered (1,2), ..., (1,n), (2,3), ...
    mask, bit = 0, 0
    for j in range(len(w)):
        for i in range(j + 1, len(w)):
            if w[j] > w[i]:
                mask |= 1 << bit
            bit += 1
    return mask


def _l_h_scan(h):
    bases = [[] for _ in range(len(h.pairs) + 1)]
    for w in Permutation.all(h.n):
        bases[l_h(w, h)].append(w)
    return tuple(map(tuple, bases))


@pytest.mark.parametrize("n", range(1, 8))
def test_inversion_table_is_the_flat_definition(n):
    perms, masks = _inversion_table(n)
    assert perms == tuple(Permutation.all(n))
    assert list(masks) == [_flat_inversion_mask(w) for w in perms]


@pytest.mark.parametrize("n", range(1, 8))
def test_length_view_and_poincare_masks_agree_with_the_table(n):
    # the popcounts of the table's masks are the Coxeter lengths of its
    # permutations; the Poincare suite's masks, derived apart, equal the table's
    perms, masks = _inversion_table(n)
    assert [mask.bit_count() for mask in masks] == [w.coxeter_length() for w in perms]
    assert _inversion_masks(n) == list(masks)


@pytest.mark.parametrize("n", range(1, 7))
def test_degree_bases_match_an_l_h_scan(n):
    for h in HessenbergFunction.all(n):
        assert degree_bases(h) == _l_h_scan(h)


def test_degree_bases_match_an_l_h_scan_on_a_sample_at_n7():
    for h in random.Random(22).sample(list(HessenbergFunction.all(7)), 20):
        assert degree_bases(h) == _l_h_scan(h)


def test_every_h_of_one_n_shares_the_table_permutations():
    h1, h2 = HessenbergFunction.permutohedral(5), HessenbergFunction.from_string("3,3,4,5,5")
    assert degree_basis(h1, 0)[0] == Permutation.identity(5)
    assert degree_basis(h1, 0)[0] is degree_basis(h2, 0)[0]
    assert set(map(id, degree_basis(h1, 2))) <= set(map(id, _inversion_table(5)[0]))


def test_degree_bases_keep_sharing_the_table_after_n_changes():
    # each n keeps its table, so bases built before a table for another n
    # read the same permutations as bases built after it
    table = _inversion_table(5)[0]
    first = degree_bases(HessenbergFunction.from_string("2,4,4,5,5"))
    degree_bases(HessenbergFunction.full_flag(4))
    second = degree_bases(HessenbergFunction.from_string("3,4,5,5,5"))
    assert _inversion_table(5)[0] is table
    held = set(map(id, table))
    for bases in (first, second):
        assert {id(w) for basis in bases for w in basis} <= held


def test_inversion_table_names_its_limit():
    # C(12, 2) = 66 bits do not fit one array("Q") entry; the check comes
    # before any build and leaves the cached table in place
    held = _inversion_table(5)
    with pytest.raises(ValueError, match="n <= 11"):
        _inversion_table(12)
    with pytest.raises(ValueError, match="n <= 11"):
        degree_bases(HessenbergFunction.full_flag(12))
    assert _inversion_table(5) is held
