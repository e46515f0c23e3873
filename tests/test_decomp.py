import math
import re
from fractions import Fraction

import pytest
from reference_actions import (descent_class, min_length_coset_reps, reference_closed_expansion,
                               scanned_wz_completeness, tuples_type_multiset, walk_sigma_hat_vector)

from gkmhess.classes import permutohedral_class, reduce_to_ordinary
from gkmhess.decomp import (
    admissible_decomposition,
    block_subgroups,
    composition_graph,
    coset_orbit_vectors,
    erase,
    erased_composition,
    eulerian_number,
    expected_type_multiset,
    g_set,
    generator_permutation,
    module_dimension,
    sigma_hat,
    sigma_hat_vector,
    symmetrizer_coset_reps,
    verify_closed_expansion,
    verify_decomposition,
    verify_wz_completeness,
    w_z,
)
from gkmhess.dot import ActionMatrix, degree_basis, generator_matrix
from gkmhess.gkm import HessenbergFunction
from gkmhess.perms import Composition, Permutation


def test_erase_examples():
    assert erase({1, 2}) == frozenset()
    assert erase({2, 4}) == frozenset({2, 4})
    assert erase(set()) == frozenset()
    assert erase({1, 3, 4}) == frozenset({3})


def test_erased_composition_examples():
    assert erased_composition(Composition((1, 1, 3))) == Composition((5,))
    assert erased_composition(Composition((2, 2, 1))) == Composition((2, 2, 1))
    assert erased_composition(Composition((2, 1, 2))) == Composition((2, 3))
    assert erased_composition(Composition((3, 1, 1))) == Composition((3, 2))


def test_g_set_examples():
    assert [str(w) for w in g_set(5, 2)] == sorted(
        ["54123", "53412", "52341", "45312", "45231", "34521"]
    )
    assert g_set(4, 0) == [Permutation.identity(4)]
    assert g_set(4, 3) == [Permutation.longest(4)]


def test_g_set_characterization():
    # exactly the w with k descents whose support contains the longest element
    from gkmhess.reach import support_A

    n, h = 4, HessenbergFunction.permutohedral(4)
    w0 = Permutation.longest(n)
    for k in range(n):
        expected = sorted(
            w for w in Permutation.all(n)
            if len(w.descents()) == k and w0 in support_A(w, h)
        )
        assert g_set(n, k) == expected


def test_block_subgroups_table_n5():
    # the six degree-2 generators and their erased-block subgroups
    expected = {
        "54123": ({frozenset({5, 4, 1, 2, 3})}, 120),
        "53412": ({frozenset({5, 3, 4}), frozenset({1, 2})}, 12),
        "52341": ({frozenset({5, 2, 3, 4}), frozenset({1})}, 24),
        "45312": ({frozenset({4, 5}), frozenset({3, 1, 2})}, 12),
        "45231": ({frozenset({4, 5}), frozenset({2, 3}), frozenset({1})}, 4),
        "34521": ({frozenset({3, 4, 5}), frozenset({1, 2})}, 12),
    }
    for w in g_set(5, 2):
        groups = block_subgroups(w)
        blocks, order = expected[str(w)]
        assert set(groups.coarse_blocks) == blocks
        assert module_dimension(tuple(erased_composition(w.descent_composition()))) == 120 // order


@pytest.mark.parametrize("n", range(1, 8))
def test_module_dimension_counts_the_cosets_of_the_coarse_blocks(n):
    for k in range(n):
        for w in g_set(n, k):
            a_hat = tuple(erased_composition(w.descent_composition()))
            order = math.prod(math.factorial(len(b)) for b in block_subgroups(w).coarse_blocks)
            assert module_dimension(a_hat) == math.factorial(n) // order


def test_symmetrizer_coset_reps_count():
    w = Permutation.from_one_line("4312")
    reps = symmetrizer_coset_reps(w)
    assert len(reps) == 12  # |S_4| / (1! * 1! * 2!)
    assert Permutation.identity(4) in reps


@pytest.mark.parametrize("n", range(1, 6))
def test_coset_reps_are_the_length_minima_for_every_w(n):
    for w in Permutation.all(n):
        assert symmetrizer_coset_reps(w) == min_length_coset_reps(w)


@pytest.mark.parametrize("n", [6, 7])
def test_coset_reps_are_the_length_minima_for_every_generator(n):
    for k in range(n):
        for w in g_set(n, k):
            assert symmetrizer_coset_reps(w) == min_length_coset_reps(w)


def test_sigma_hat_trivial_when_no_erasure():
    w = Permutation.from_one_line("45231")  # erased composition (2,2,1), no merge
    assert sigma_hat(w) == permutohedral_class(w)


def test_sigma_hat_ordinary_expansions_n4():
    h = HessenbergFunction.permutohedral(4)
    basis = {w: permutohedral_class(w) for w in Permutation.all(4)}

    vec = reduce_to_ordinary(sigma_hat(Permutation.from_one_line("4312")), 2, h, basis)
    assert {str(v): int(c) for v, c in vec.items()} == {
        "4312": 2, "4213": 4, "3214": 6,
        "4231": 2, "4132": -2, "3241": 4, "3142": -2, "2143": -2,
        "3421": 2, "2431": -2,
    }
    vec2 = reduce_to_ordinary(sigma_hat(Permutation.from_one_line("4231")), 2, h, basis)
    assert {str(v): int(c) for v, c in vec2.items()} == {
        "4231": 1, "3241": 2, "3421": 1, "2431": -1,
    }
    vec3 = reduce_to_ordinary(sigma_hat(Permutation.from_one_line("3421")), 2, h, basis)
    assert {str(v): int(c) for v, c in vec3.items()} == {"3421": 2}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sigma_hat_support_and_values(n):
    # supports concentrate on the erased-composition generator orbit, values
    # are the original descent products; the class is a valid moment-graph
    # element and its equivariant stabilizer is exactly the block subgroup
    from gkmhess.classes import gkm_check
    from gkmhess.dot import dot
    from gkmhess.polys import MultiPoly
    from gkmhess.reach import support_A

    h = HessenbergFunction.permutohedral(n)
    for k in range(n):
        for w in g_set(n, k):
            hat = sigma_hat(w)
            a_hat = erased_composition(w.descent_composition())
            assert hat.support() == support_A(generator_permutation(a_hat), h)
            descents = w.descents()
            for u in hat.support():
                expected = MultiPoly.one(n)
                for d in descents:
                    expected = expected * MultiPoly.linear_form(u(d + 1), u(d), n)
                assert hat.value(u) == expected
            assert gkm_check(hat, h)[0]
            inside = set(block_subgroups(w).coarse_simple_generators())
            for i in range(1, n):
                fixed = dot(Permutation.simple(i, n), hat) == hat
                assert fixed == (i in inside)


def test_admissible_decomposition_example():
    a = Composition((2, 1, 1, 3, 4, 1, 1, 1, 5, 1, 2))
    blocks = admissible_decomposition(a)
    assert [tuple(b) for b in blocks] == [(2,), (1, 1, 3, 4), (1, 1, 1, 5), (1, 2)]
    assert tuple(erased_composition(a)) == (2, 5, 4, 8, 3)


def test_composition_graph_114():
    graph = composition_graph(Composition((1, 1, 4)))
    assert len(graph.vertices) == 10
    labels = sorted(label for _, _, label in graph.edges)
    assert labels == [2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5]


def test_composition_graph_single_vertex():
    graph = composition_graph(Composition((2, 1, 1)))
    assert len(graph.vertices) == 1
    assert not graph.edges


def test_w_z_examples():
    a = Composition((1, 1, 4))
    assert str(generator_permutation(a)) == "651234"
    assert str(w_z(a, ((1, 0),))) == "641235"
    assert str(w_z(a, ((3, 3),))) == "321456"
    assert w_z(a, (graph_origin := composition_graph(a).origin())) == generator_permutation(a)


def test_w_z_invalid_vertex():
    with pytest.raises(ValueError):
        w_z(Composition((1, 1, 4)), ((5, 0),))


def test_w_z_raises_an_internal_error_on_a_label_out_of_range(monkeypatch):
    # every edge label one too high: the top vertex of (1,1,3) reaches s_5 in S_5
    import gkmhess.decomp as decomp

    exact = decomp._block_edge_label
    monkeypatch.setattr(decomp, "_block_edge_label", lambda block, z_j, j: exact(block, z_j, j) + 1)
    message = re.escape("label 5 of (1, 1, 3) at ((2, 2),) outside [1,4]")
    with pytest.raises(AssertionError, match=message):
        w_z(Composition((1, 1, 3)), ((2, 2),))


def test_w_z_counts_match_descent_classes():
    # single-big-part compositions enumerate their whole descent class
    for n in (4, 5):
        for m in range(n):
            a = Composition([1] * m + [n - m]) if n > m else Composition([1] * n)
            graph = composition_graph(a)
            assert len(graph.vertices) == len(descent_class(a))


@pytest.mark.parametrize("n", range(1, 8))
def test_w_z_steps_along_the_edge_labels_of_the_graph(n):
    # the labels composition_graph puts on its edges are the steps w_z takes
    for a in Composition.all(n):
        graph = composition_graph(a)
        assert w_z(a, graph.origin()) == generator_permutation(a)
        for src, dst, label in graph.edges:
            assert w_z(a, dst) == Permutation.simple(label, n) * w_z(a, src)


def test_edge_positions_single_block():
    # raising coordinate j moves the value at the descent d_{m-j+1}, and the
    # larger value sits inside the long block
    for n in (4, 5, 6):
        for a in Composition.all(n):
            blocks = admissible_decomposition(a)
            if len(blocks) != 1:
                continue
            m = next((idx for idx, p in enumerate(a) if p > 1), len(a))
            if m == 0 or len(a) > m + 1:
                continue
            descents = sorted(a.descent_set()) + [n]
            graph = composition_graph(a)
            for src, dst, label in graph.edges:
                j = next(
                    idx for idx, (x, y) in enumerate(zip(src[0], dst[0])) if x != y
                )
                raised = w_z(a, dst)
                assert raised.inverse()(label) == descents[m - j - 1]
                assert raised.inverse()(label + 1) in range(
                    descents[m - 1] + 1, descents[m] + 1
                )


def test_wz_completeness_small():
    assert verify_wz_completeness(Composition((4,)))
    assert verify_wz_completeness(Composition((1, 2, 1)))
    for n in (2, 3, 4, 5):
        assert all(verify_wz_completeness(a) for a in Composition.all(n))


@pytest.mark.parametrize("n", range(1, 8))
def test_wz_completeness_counts_what_the_scan_of_the_descent_class_finds(n):
    # the count of the descent class by inclusion-exclusion decides what the
    # scan of S_n decides, on every composition
    for a in Composition.all(n):
        assert verify_wz_completeness(a) is scanned_wz_completeness(a) is True


def test_a_generator_with_wrong_descents_fails_both_wz_checks(monkeypatch):
    # with the identity as generator, the lattice and the coset translates
    # still agree for some compositions; only the descent set tells them apart
    import gkmhess.decomp as decomp

    monkeypatch.setattr(decomp, "generator_permutation", lambda a: Permutation.identity(a.n))
    agreeing = 0
    for n in range(2, 6):
        for a in Composition.all(n):
            if len(a) == 1:
                continue  # the identity is the generator of (n)
            assert not verify_wz_completeness(a)
            assert not scanned_wz_completeness(a)
            w0 = Permutation.identity(n)
            by_cosets = {v * w0 for v in symmetrizer_coset_reps(w0)
                         if (v * w0).descents() == w0.descents()}
            agreeing += {w_z(a, z) for z in composition_graph(a).vertices} == by_cosets
    assert agreeing


def test_wz_example_121():
    a = Composition((1, 2, 1))
    graph = composition_graph(a)
    found = {str(w_z(a, z)) for z in graph.vertices}
    assert found == {"4231", "3241"}


def test_expected_type_multiset_n3():
    assert expected_type_multiset(3, 0) == {(3,): 1}
    assert expected_type_multiset(3, 1) == {(3,): 1, (2, 1): 1}
    assert expected_type_multiset(3, 2) == {(3,): 1}


def test_expected_type_multiset_n5_k2():
    assert expected_type_multiset(5, 2) == {
        (5,): 1, (2, 3): 1, (4, 1): 1, (3, 2): 2, (2, 2, 1): 1,
    }


def test_expected_type_multiset_matches_the_tuple_enumeration():
    # the same entries in the same order, and nothing outside the degrees
    for n in range(11):
        for k in range(-1, n + 1):
            expected = tuples_type_multiset(n, k)
            assert list(expected_type_multiset(n, k).items()) == list(expected.items())


@pytest.mark.parametrize("n", range(1, 10))
def test_closed_expansion_matches_the_reference(n):
    assert verify_closed_expansion(n) == reference_closed_expansion(n) == (True, math.factorial(n))


def test_eulerian_numbers():
    assert [eulerian_number(4, k) for k in range(4)] == [1, 11, 11, 1]
    assert [eulerian_number(5, k) for k in range(5)] == [1, 26, 66, 26, 1]


def test_eulerian_recurrence_matches_a_descent_scan():
    # the scan counts what degree_basis enumerates; the recurrence does not
    from collections import Counter

    for n in range(8):
        scan = Counter(len(w.descents()) for w in Permutation.all(n))
        assert [eulerian_number(n, k) for k in range(-1, n + 2)] == [
            scan[k] for k in range(-1, n + 2)
        ]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_decomposition_small(n):
    for k in range(n):
        report = verify_decomposition(n, k)
        assert report.passed
        assert report.total_dim == eulerian_number(n, k)


def test_decomposition_n5_k2_module_types():
    report = verify_decomposition(5, 2)
    assert report.passed
    types = sorted(m.module_type for m in report.modules)
    assert types == sorted([(5,), (3, 2), (4, 1), (3, 2), (2, 2, 1), (3, 2)])
    assert report.total_dim == 1 + 3 * 10 + 5 + 30 == 66


def test_unlucky_prime_falls_back_for_every_rank(monkeypatch):
    # a rank that comes out short at the first prime must be retried, for
    # each module and for the direct sum alike
    from gkmhess import decomp

    exact = decomp._rank_mod_p

    def unlucky(rows, p=decomp._MOD_PRIME):
        rank = exact(rows, p)
        return rank - 1 if p == decomp._MOD_PRIME else rank

    monkeypatch.setattr(decomp, "_rank_mod_p", unlucky)
    report = verify_decomposition(4, 1)
    assert report.passed and report.direct_sum
    assert all(m.dim_computed == m.dim_expected for m in report.modules)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sigma_hat_vector_matches_equivariant_reduction(n):
    # the matrix-built ordinary vector against the reduced equivariant class
    h = HessenbergFunction.permutohedral(n)
    basis = {w: permutohedral_class(w) for w in Permutation.all(n)}
    for k in range(n):
        matrices = {i: generator_matrix(i, k, h) for i in range(1, n)}
        order = degree_basis(h, k)
        for w in g_set(n, k):
            expected = reduce_to_ordinary(sigma_hat(w), k, h, basis)
            vec = {order[j]: c for j, c in sigma_hat_vector(w, matrices).items()}
            assert vec == {v: c for v, c in expected.items() if c}


def test_coset_walks_need_interval_blocks():
    # 2143 has the coarse blocks {1,2,4} and {3}: not a parabolic subgroup
    w = Permutation.from_one_line("2143")
    h = HessenbergFunction.permutohedral(4)
    matrices = {i: generator_matrix(i, 2, h) for i in range(1, 4)}
    with pytest.raises(ValueError):
        coset_orbit_vectors(w, {degree_basis(h, 2).index(w): 1}, matrices)
    with pytest.raises(ValueError):
        sigma_hat_vector(w, matrices)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_factorized_sigma_hat_matches_the_coset_walk(n):
    h = HessenbergFunction.permutohedral(n)
    for k in range(n):
        matrices = {i: generator_matrix(i, k, h) for i in range(1, n)}
        for w in g_set(n, k):
            vec = sigma_hat_vector(w, matrices)
            assert vec == walk_sigma_hat_vector(w, matrices)
            assert all(type(c) is int for c in vec.values())


def _degree_one_matrices_n3():
    # 312 has the fine blocks {3}, {1,2} and the one coarse block {1,2,3}
    h = HessenbergFunction.permutohedral(3)
    return Permutation.from_one_line("312"), {i: generator_matrix(i, 1, h) for i in (1, 2)}


def test_sigma_hat_names_a_fine_generator_that_moves_e_w():
    w, matrices = _degree_one_matrices_n3()
    order = matrices[1].basis_order
    other = next(j for j, v in enumerate(order) if v != w)
    columns = list(matrices[1].columns)
    columns[order.index(w)] = {other: 1}
    matrices[1] = ActionMatrix(order, columns)
    with pytest.raises(AssertionError, match="s_1 of the fine block subgroup moves e_312"):
        sigma_hat_vector(w, matrices)


def test_sigma_hat_that_is_not_integral_raises():
    # s_2 lies only in the coarse subgroup; a third of it leaves thirds in
    # the sum, which |W_fine| = 2 does not divide
    w, matrices = _degree_one_matrices_n3()
    columns = [{row: Fraction(c, 3) for row, c in vec.items()}
               for vec in matrices[2].columns]
    matrices[2] = ActionMatrix(matrices[2].basis_order, columns)
    with pytest.raises(AssertionError, match=r"e_312 is not divisible by \|W_fine\| = 2"):
        sigma_hat_vector(w, matrices)


def test_dependent_row_fails_the_direct_sum_and_names_its_module(monkeypatch):
    # one module's last orbit row made a copy of its first: the stack is
    # short at both primes, and only that module's own rank falls short
    from gkmhess import decomp

    culprit = g_set(5, 2)[1]
    walk = decomp.coset_orbit_vectors

    def broken(w, vec, matrices):
        orbit = walk(w, vec, matrices)
        return orbit[:-1] + [orbit[0]] if w == culprit else orbit

    monkeypatch.setattr(decomp, "coset_orbit_vectors", broken)
    report = verify_decomposition(5, 2)
    assert not report.direct_sum and not report.passed
    for m in report.modules:
        expected = m.dim_expected - 1 if m.w == culprit else m.dim_expected
        assert m.dim_computed == expected


def test_passing_degree_ranks_once(monkeypatch):
    from gkmhess import decomp

    calls = []
    exact = decomp._rank_mod_p

    def counted(rows, p=decomp._MOD_PRIME):
        calls.append(p)
        return exact(rows, p)

    monkeypatch.setattr(decomp, "_rank_mod_p", counted)
    assert verify_decomposition(5, 2).passed
    assert calls == [decomp._MOD_PRIME]


def test_identity_generator_matrices_fail_the_decomposition(monkeypatch):
    # a planted fault in the matrices that verify_decomposition builds itself:
    # with every s_i acting trivially, no orbit has its expected dimension
    from gkmhess import decomp

    exact = decomp.generator_matrix
    monkeypatch.setattr(decomp, "generator_matrix",
                        lambda i, k, h: ActionMatrix.identity(exact(i, k, h).basis_order))
    report = verify_decomposition(4, 1)
    assert not report.passed and not report.direct_sum
    assert [m.dim_computed for m in report.modules] == [1, 1, 1]
    assert not all(m.stabilizer_exact for m in report.modules)
