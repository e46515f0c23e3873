import itertools
import random

import pytest

import reference_reach
from gkmhess import reach
from gkmhess.gkm import HessenbergFunction
from gkmhess.perms import Permutation
from gkmhess.reach import (
    CellDigraph,
    build_cell_digraph,
    j_family,
    set_reachable,
    support_A,
    vertex_reachable,
)

H5 = HessenbergFunction((3, 3, 4, 5, 5))


# -- Bruhat order, the independent oracle for the full-flag supports --------


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """Dominance test: ``u <= w`` iff every sorted prefix of u is
    entrywise at most the corresponding sorted prefix of w."""
    if len(u) != len(w):
        raise ValueError("size mismatch")
    for j in range(1, len(u)):
        for a, b in zip(sorted(u[:j]), sorted(w[:j])):
            if a > b:
                return False
    return True


def bruhat_upper_set(w: Permutation) -> frozenset[Permutation]:
    """All ``u >= w`` by upward BFS along length-increasing transpositions."""
    n = len(w)
    frontier = {w}
    seen = {w}
    while frontier:
        nxt = set()
        for v in frontier:
            lv = v.coxeter_length()
            for a in range(1, n + 1):
                for b in range(a + 1, n + 1):
                    images = list(v)
                    pa, pb = images.index(a), images.index(b)
                    images[pa], images[pb] = images[pb], images[pa]
                    cand = Permutation(images)
                    if cand.coxeter_length() == lv + 1 and cand not in seen:
                        seen.add(cand)
                        nxt.add(cand)
        frontier = nxt
    return frozenset(seen)


def test_cell_digraph_examples():
    assert build_cell_digraph(Permutation.from_one_line("24135"), H5).edges == {
        (1, 2), (3, 4), (4, 5),
    }
    assert build_cell_digraph(Permutation.from_one_line("15342"), H5).edges == {
        (1, 2), (1, 3), (3, 4),
    }
    for h in HessenbergFunction.all(4):
        assert not build_cell_digraph(Permutation.longest(4), h).edges


def test_edge_count_is_cell_dimension():
    from gkmhess.gkm import l_h

    for h in HessenbergFunction.all(4):
        total = sum(h(j) - j for j in range(1, 5))
        for w in Permutation.all(4):
            g = build_cell_digraph(w, h)
            assert len(g.edges) == total - l_h(w, h)


def test_vertex_reachable():
    g = build_cell_digraph(Permutation.from_one_line("15342"), H5)
    assert vertex_reachable(g, 1, 4)
    assert not vertex_reachable(g, 3, 5)
    assert all(vertex_reachable(g, i, i) for i in range(1, 6))


def test_set_reachable_examples():
    g = build_cell_digraph(Permutation.from_one_line("15342"), H5)
    assert set_reachable(g, (1, 3), (3, 4))
    assert set_reachable(g, (2, 4), (2, 4))
    g2 = build_cell_digraph(Permutation.from_one_line("24135"), H5)
    assert not set_reachable(g2, (1,), (3,))


def test_set_reachable_input_validation():
    g = build_cell_digraph(Permutation.from_one_line("24135"), H5)
    with pytest.raises(ValueError):
        set_reachable(g, (3, 1), (1, 2))  # unsorted
    with pytest.raises(ValueError):
        set_reachable(g, (1,), (1, 2))  # size mismatch


def test_set_reachable_monotone_under_edges():
    rng = random.Random(7)
    all_pairs = [(j, i) for j in range(1, 6) for i in range(j + 1, 6)]
    for _ in range(40):
        base = [p for p in all_pairs if rng.random() < 0.4]
        extra = [p for p in all_pairs if p not in base and rng.random() < 0.3]
        g_small = CellDigraph(5, base)
        g_big = CellDigraph(5, base + extra)
        size = rng.randint(1, 4)
        sources = tuple(sorted(rng.sample(range(1, 6), size)))
        targets = tuple(sorted(rng.sample(range(1, 6), size)))
        if set_reachable(g_small, sources, targets):
            assert set_reachable(g_big, sources, targets)


def test_j_family_examples():
    w = Permutation.from_one_line("24135")
    assert j_family(w, H5, 2) == {(1, 2)}
    w2 = Permutation.from_one_line("15342")
    assert j_family(w2, H5, 2) == {(1, 2), (2, 3), (2, 4)}
    ident = Permutation.identity(5)
    for j in range(1, 6):
        assert j_family(ident, H5, j) == set(
            itertools.combinations(range(1, 6), j)
        )


def test_support_examples():
    w = Permutation.from_one_line("24135")
    members = {str(u) for u in support_A(w, H5)}
    assert members == {
        "24135", "24153", "24351", "24315", "24531", "24513",
        "42135", "42153", "42351", "42315", "42531", "42513",
    }
    assert len(support_A(Permutation.identity(5), H5)) == 120


def test_support_contains_w_and_longer_elements():
    for h in HessenbergFunction.all(4):
        for w in Permutation.all(4):
            sup = support_A(w, h)
            assert w in sup
            lw = w.coxeter_length()
            assert all(
                u == w or u.coxeter_length() > lw for u in sup
            )


def test_full_flag_support_is_bruhat_upper_set():
    hf = HessenbergFunction.full_flag(4)
    for w in Permutation.all(4):
        expected = {u for u in Permutation.all(4) if bruhat_leq(w, u)}
        assert support_A(w, hf) == expected


def test_bruhat_dominance_vs_cover_bfs():
    for w in Permutation.all(4):
        upper = bruhat_upper_set(w)
        for u in Permutation.all(4):
            assert (u in upper) == bruhat_leq(w, u)


def test_permutohedral_support_is_block_orbit():
    # left Young-subgroup orbit on the descent value blocks
    from itertools import permutations as iperm

    for n in (3, 4, 5):
        h = HessenbergFunction.permutohedral(n)
        for w in Permutation.all(n):
            descents = (0,) + w.descents() + (n,)
            blocks = [
                sorted(w(m) for m in range(descents[s] + 1, descents[s + 1] + 1))
                for s in range(len(descents) - 1)
            ]
            orbit = set()

            def extend(index, mapping):
                if index == len(blocks):
                    images = [0] * n
                    for a, b in mapping.items():
                        images[a - 1] = b
                    u = Permutation(images)
                    orbit.add(u * w)
                    return
                for arranged in iperm(blocks[index]):
                    merged = dict(mapping)
                    merged.update(zip(blocks[index], arranged))
                    extend(index + 1, merged)

            extend(0, {})
            assert support_A(w, h) == orbit


def _support_by_scan(w, h):
    """Every u in S_n whose every prefix, pulled back through w, lies in the
    reference j-family: the definition ``support_A`` prunes its way to."""
    n = h.n
    w_inv = w.inverse()
    g = build_cell_digraph(w, h)
    families = [reference_reach.j_family(g, j) for j in range(1, n + 1)]
    return frozenset(
        u for u in Permutation.all(n)
        if all(tuple(sorted(w_inv(v) for v in u[:j])) in families[j - 1]
               for j in range(1, n + 1))
    )


def _instances(n, samples, seed):
    """Every (h, w) at n <= 4, otherwise ``samples`` seeded pairs."""
    if n <= 4:
        return [(h, w) for h in HessenbergFunction.all(n) for w in Permutation.all(n)]
    rng = random.Random(seed)
    perms = list(Permutation.all(n))
    return [(HessenbergFunction.random(n, rng), rng.choice(perms)) for _ in range(samples)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_support_matches_the_prefix_scan(n):
    for h, w in _instances(n, 600, 55):
        assert support_A(w, h) == _support_by_scan(w, h), (str(h), str(w))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_support_table_matches_the_reference(n):
    # the table support_A walks, on every value set U: U pulls back through
    # w to a set reachable from [|U|] exactly when the reference matches it
    for h, w in _instances(n, {5: 100, 6: 20}.get(n), n):
        table = reach._support_table(w, h)
        closure = reference_reach.reach_closure(build_cell_digraph(w, h))
        w_inv = w.inverse()
        assert len(table) == 2 ** n
        for values in range(2 ** n):
            pulled = sorted(w_inv(v) for v in range(1, n + 1) if values >> (v - 1) & 1)
            expected = reference_reach.matchable(closure, range(1, len(pulled) + 1), pulled)
            assert table[values] == expected, (str(h), str(w), values)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_set_reachable_matches_the_reference(n):
    # every equal-size (sources, targets) of every instance's digraph
    subsets = [combo for size in range(n + 1)
               for combo in itertools.combinations(range(1, n + 1), size)]
    for h, w in _instances(n, 300, 100 + n):
        g = build_cell_digraph(w, h)
        closure = reference_reach.reach_closure(g)
        for sources in subsets:
            for targets in subsets:
                if len(sources) == len(targets):
                    assert set_reachable(g, sources, targets) == reference_reach.matchable(
                        closure, sources, targets), (str(h), str(w), sources, targets)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_j_family_matches_the_reference(n):
    for h, w in _instances(n, 100, 200 + n):
        g = build_cell_digraph(w, h)
        for j in range(1, n + 1):
            assert j_family(w, h, j) == reference_reach.j_family(g, j), (str(h), str(w), j)


def test_vertex_reachable_matches_the_reference():
    for h, w in _instances(4, None, None):
        g = build_cell_digraph(w, h)
        closure = reference_reach.reach_closure(g)
        for j in range(1, 5):
            for i in range(1, 5):
                assert vertex_reachable(g, j, i) == (i in closure[j])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_successors_match_the_edge_scan(n):
    # the lists built once in __init__ against a scan of the edge set
    for h in HessenbergFunction.all(n):
        for w in Permutation.all(n):
            g = build_cell_digraph(w, h)
            for j in range(1, n + 1):
                assert list(g.successors(j)) == sorted(i for a, i in g.edges if a == j)
