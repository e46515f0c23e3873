import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from gkmhess.cli import _inversion_masks
from gkmhess.gkm import _inversion_table, mask_of_pairs
from gkmhess.perms import (Composition, Permutation, compose, partitions, prefix_closed,
                           young_subgroup)

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def perm_strategy(n):
    return st.permutations(list(range(1, n + 1))).map(Permutation)


def test_compose_examples():
    assert compose(Permutation((2, 1, 3)), Permutation((2, 3, 1))) == Permutation((1, 3, 2))
    w = Permutation((3, 1, 4, 2))
    assert compose(w, Permutation.identity(4)) == w
    s1 = Permutation.simple(1, 4)
    assert compose(s1, s1) == Permutation.identity(4)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(Permutation((1, 2)), Permutation((1, 2, 3)))


def test_descents():
    w = Permutation.from_one_line("25347168")
    assert w.descents() == (2, 5)
    assert Permutation.identity(5).descents() == ()
    assert Permutation.longest(5).descents() == (1, 2, 3, 4)


def test_coxeter_length():
    assert Permutation((3, 2, 1)).coxeter_length() == 3
    assert Permutation.identity(4).coxeter_length() == 0
    assert Permutation.from_one_line("24135").coxeter_length() == 3


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_coxeter_length_equals_cayley_distance(n):
    # BFS over the Cayley graph on adjacent transpositions
    start = Permutation.identity(n)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for i in range(1, n):
            u = Permutation.simple(i, n) * v
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    for w in Permutation.all(n):
        assert dist[w] == w.coxeter_length()


def test_reduced_word_rebuilds():
    for w in Permutation.all(4):
        word = w.reduced_word()
        assert len(word) == w.coxeter_length()
        rebuilt = Permutation.identity(4)
        for i in reversed(word):
            rebuilt = Permutation.simple(i, 4) * rebuilt
        assert rebuilt == w


@given(st.integers(min_value=1, max_value=7))
@settings(max_examples=20, deadline=None)
def test_length_table_matches_coxeter_length(n):
    # the popcount of each inversion-table mask is the Coxeter length
    perms, masks = _inversion_table(n)
    assert len(perms) == len(masks) == math.factorial(n)
    for w, mask in zip(perms, masks):
        assert mask.bit_count() == w.coxeter_length() == len(w.reduced_word())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_length_drops_are_the_inversions(n):
    # the Poincare suite's masks mark the transpositions t with w t shorter
    # than w, in Coxeter length
    masks = _inversion_masks(n)
    assert len(masks) == math.factorial(n)
    for w, mask in zip(Permutation.all(n), masks):
        expected = mask_of_pairs(
            [(j, i) for j in range(1, n + 1) for i in range(j + 1, n + 1)
             if (w * Permutation.transposition(j, i, n)).coxeter_length() < w.coxeter_length()],
            n,
        )
        assert mask == expected, w


def test_transposition_bits_are_distinct_and_dense():
    # one bit per pair j < i, in lexicographic order
    for n in range(1, 12):
        bits = [mask_of_pairs([(j, i)], n) for j in range(1, n + 1) for i in range(j + 1, n + 1)]
        assert bits == [1 << k for k in range(n * (n - 1) // 2)]


def test_single_class_builds_no_inversion_table_in_a_fresh_interpreter():
    # one flow-up class at n = 9 is decided on its own support: it does not
    # read the inversion table of S_9; the spy is the table's cache, in a
    # fresh interpreter that no other test has touched
    code = """
import contextlib, io
from gkmhess import cli, gkm
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["class", "--h", "3,3,4,5,6,6,7,8,9", "--w", "213456789"]) == 0
print(gkm._inversion_table.cache_info().currsize)
gkm.degree_bases(gkm.HessenbergFunction.full_flag(4))
print(gkm._inversion_table.cache_info().currsize)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=600, env={**os.environ, "PYTHONPATH": _SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0", "1"]


def test_expansions_build_no_inversion_table_in_a_fresh_interpreter():
    # perm_si_action at n = 6 and gkmhess expand order the points they meet
    # by their own Coxeter lengths, and build only the classes they reach
    code = """
import contextlib, io
from gkmhess import cli, gkm
from gkmhess.dot import perm_si_action
from gkmhess.perms import Permutation
perm_si_action(Permutation.from_one_line("215364"), 4)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["expand", "--input", %r, "--h", "3,3,4,5,5"]) == 0
print(gkm._inversion_table.cache_info().currsize)
""" % str(pathlib.Path(_SRC).parent / "tests" / "golden" / "class_21345_33455.json")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=600, env={**os.environ, "PYTHONPATH": _SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0"]


def test_single_class_work_builds_no_length_table():
    from gkmhess import cli
    from gkmhess.decomp import symmetrizer_coset_reps
    from gkmhess.dot import full_flag_si_expansion

    # any call, a cache hit included, would move a counter
    before = _inversion_table.cache_info()
    assert cli.main(["class", "--h", "3,3,4,5,6,6,7,8,9", "--w", "213456789"]) == 0
    full_flag_si_expansion(Permutation.from_one_line("3142"), 2)
    symmetrizer_coset_reps(Permutation.from_one_line("4312"))
    assert _inversion_table.cache_info() == before


not_a_permutation = st.lists(st.integers(0, 7), min_size=1, max_size=7).filter(
    lambda images: sorted(images) != list(range(1, len(images) + 1))
)


@given(not_a_permutation)
@example([1, 1, 3])
@example([1, 1, 2, 3])
def test_outside_input_is_checked(images):
    with pytest.raises(ValueError):
        Permutation(images)
    with pytest.raises(ValueError):
        Permutation.from_one_line("".join(map(str, images)))
    with pytest.raises(ValueError):
        Permutation.identity(len(images)) * tuple(images)


@given(perm_strategy(5))
def test_inverse_involution(w):
    assert w.inverse().inverse() == w
    assert w * w.inverse() == Permutation.identity(5)


@given(perm_strategy(4), perm_strategy(4), perm_strategy(4))
@settings(max_examples=50)
def test_composition_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


def test_one_line_round_trip():
    w = Permutation(tuple(range(10, 0, -1)))
    assert Permutation.from_one_line(w.one_line()) == w
    assert Permutation.from_one_line("24135") == Permutation((2, 4, 1, 3, 5))


def test_cycle_type():
    assert Permutation((2, 3, 1, 5, 4)).cycle_type() == (3, 2)
    assert Permutation.identity(4).cycle_type() == (1, 1, 1, 1)


def test_composition_descent_set():
    a = Composition((3, 3, 4, 5, 5))  # weight 20
    assert a.descent_set() == (3, 6, 10, 15)
    assert Composition.from_descent_set((2, 4), 5) == Composition((2, 2, 1))
    assert Composition((1, 2, 2)).partition() == (2, 2, 1)


def test_composition_validation():
    with pytest.raises(ValueError):
        Composition((1, 0, 2))


def test_all_compositions_count():
    assert sum(1 for _ in Composition.all(6)) == 32
    assert sorted(Composition.all(3, 2)) == [Composition((1, 2)), Composition((2, 1))]
    # built straight from each cut, they are the checked construction's
    # compositions in the same order and of the same type
    for n in range(1, 10):
        for k in range(1, n + 1):
            built = list(Composition.all(n, k))
            checked = [Composition.from_descent_set(cut, n)
                       for cut in itertools.combinations(range(1, n), k - 1)]
            assert built == checked
            assert all(type(c) is Composition for c in built)
        assert sum(1 for _ in Composition.all(n)) == 2 ** (n - 1)
    with pytest.raises(ValueError, match="weight must be positive"):
        list(Composition.all(0, 1))


def test_partitions():
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


@pytest.mark.parametrize("blocks", [
    [[1, 2, 3, 4]],
    [[1], [2], [3]],
    [[3, 1], [2, 4]],
    [[5, 2], [1, 3, 4]],
    [[2], [4, 1, 3], [5, 6]],
], ids=str)
def test_young_subgroup_is_the_block_stabilizer(blocks):
    n = sum(len(block) for block in blocks)
    members = list(young_subgroup(blocks, n))
    expected = [
        u for u in Permutation.all(n)
        if all({u(x) for x in block} == set(block) for block in blocks)
    ]
    assert sorted(members) == expected
    assert len(set(members)) == len(members)
    assert all(type(u) is Permutation for u in members)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_prefix_closed_is_the_filter_over_every_prefix(n):
    # the grouped walk against the definition, for seeded random keeps
    rng = random.Random(n)
    for _ in range(20):
        passing = {mask for mask in range(1, 2 ** n) if rng.random() < 0.8}
        expected = [w for w in Permutation.all(n)
                    if all(sum(1 << (v - 1) for v in w[:j]) in passing for j in range(1, n + 1))]
        assert sorted(prefix_closed(n, passing.__contains__)) == expected
