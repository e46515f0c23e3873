import argparse
import functools
import hashlib
import importlib
import json
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from reference_actions import (build_auxiliary_class, copying_compose, flow_up_table,
                               one_term_image, position_keyed_generator_matrix,
                               unmirrored_expansion, walk_auxiliary_terms)

from gkmhess.classes import (
    EquivariantClass,
    expand_in_basis,
    gkm_check,
    interpolate_class,
    permutohedral_class,
    reduce_to_ordinary,
)
from gkmhess.dot import (
    ActionMatrix,
    AuxiliaryTerm,
    FlowUpBasis,
    action_matrix,
    auxiliary_terms,
    dashed_rule_check,
    degree_basis,
    dot,
    flow_up_class,
    full_flag_si_expansion,
    full_flag_si_rule_check,
    generator_matrix,
    perm_si_action,
)
from gkmhess.dot import (
    _CACHE_BOUND,
    _caches,
    _expansion_cache,
    _SiExpansionCache,
)
from gkmhess.gkm import EdgeKind, HessenbergFunction, edge_kind, l_h, poincare_coefficients
from gkmhess.perms import Permutation
from gkmhess.polys import MultiPoly


def lf(a, b, n):
    return MultiPoly.linear_form(a, b, n)


def random_gkm_class(h, rng):
    basis = {w: permutohedral_class(w) for w in Permutation.all(h.n)}
    target = EquivariantClass.zero(h.n)
    for w in rng.sample(list(basis), 3):
        coeff = MultiPoly.constant(rng.randint(-3, 3), h.n)
        target = target + basis[w].scale(coeff)
    return target


def test_dot_identity_and_group_law():
    rng = random.Random(2)
    h = HessenbergFunction.permutohedral(4)
    p = random_gkm_class(h, rng)
    assert dot(Permutation.identity(4), p) == p
    for u in rng.sample(list(Permutation.all(4)), 6):
        for v in rng.sample(list(Permutation.all(4)), 6):
            assert dot(u, dot(v, p)) == dot(u * v, p)


@pytest.mark.parametrize("n", [3, 4])
def test_dot_preserves_gkm_and_transports_support(n):
    rng = random.Random(8 + n)
    for h in HessenbergFunction.all(n):
        basis = {w: interpolate_class(w, h).cls for w in Permutation.all(n)}
        p = EquivariantClass.zero(n)
        for w in rng.sample(list(basis), 2):
            p = p + basis[w].scale(MultiPoly.constant(rng.randint(1, 3), n))
        for u in Permutation.all(n):
            moved = dot(u, p)
            assert gkm_check(moved, h)[0]
            assert moved.support() == frozenset(u * x for x in p.support())


def test_full_flag_rule_example_n3():
    assert full_flag_si_rule_check(Permutation((3, 2, 1)), 1)


def test_full_flag_rules_exhaustive_n3():
    for w in Permutation.all(3):
        for i in (1, 2):
            assert full_flag_si_rule_check(w, i)


def test_dashed_rule_figure_instance():
    h = HessenbergFunction((2, 4, 4, 4))
    w = Permutation.from_one_line("4123")
    assert edge_kind(w, 3, h) is EdgeKind.DASHED
    assert dashed_rule_check(w, 3, h)


def test_dashed_rule_rejects_solid_pairs():
    h = HessenbergFunction((2, 4, 4, 4))
    with pytest.raises(ValueError):
        dashed_rule_check(Permutation.from_one_line("1342"), 2, h)


def test_permutohedral_descent_preserving_move():
    # same descent set on both sides: the class just moves
    n = 4
    w = Permutation.from_one_line("2413")
    s1 = Permutation.simple(1, n)
    assert (s1 * w).descents() == w.descents()
    assert dot(s1, permutohedral_class(w)) == permutohedral_class(s1 * w)


def test_auxiliary_example_1324():
    w = Permutation.from_one_line("1324")
    targets = sorted(str(t.target) for t in auxiliary_terms(w, 2))
    assert targets == ["1324", "1342", "3124", "3412"]
    assert all(t.mover == Permutation.identity(4) for t in auxiliary_terms(w, 2))


def test_auxiliary_example_21435():
    w = Permutation.from_one_line("21435")
    terms = {str(t.target): str(t.mover) for t in auxiliary_terms(w, 3)}
    assert terms == {
        "21453": "12345",
        "21435": "12345",
        "42513": "14325",
        "42135": "14325",
    }


def test_auxiliary_empty_flanks_gives_sigma_itself():
    # fully fenced descent: the auxiliary class is the class itself
    w = Permutation.from_one_line("4321")
    aux = build_auxiliary_class(w, 2)
    assert aux == permutohedral_class(w)


def test_master_identity_exhaustive_n4():
    n = 4
    for w in Permutation.all(n):
        w_inv = w.inverse()
        for i in range(1, n):
            if w_inv(i + 1) + 1 != w_inv(i):
                continue
            aux = build_auxiliary_class(w, i)
            si = Permutation.simple(i, n)
            lhs = permutohedral_class(si * w).scale(lf(i + 1, i, n))
            assert lhs == dot(si, aux) - aux


@pytest.mark.parametrize("n", [3, 4, 5])
def test_master_identity_on_root_products_matches_the_expanded_classes(n, monkeypatch):
    # with every summand, and with each one dropped, the suite's verdict on
    # root products is the verdict on the expanded classes
    from gkmhess import cli

    for w in Permutation.all(n):
        w_inv = w.inverse()
        for i in range(1, n):
            if w_inv(i + 1) + 1 != w_inv(i):
                continue
            si = Permutation.simple(i, n)
            lhs = permutohedral_class(si * w).scale(lf(i + 1, i, n))
            terms = auxiliary_terms(w, i)
            for kept in [terms] + [terms[:k] + terms[k + 1:] for k in range(len(terms))]:
                aux = build_auxiliary_class(w, i, kept)
                monkeypatch.setattr(cli, "auxiliary_terms", lambda v, j: kept)
                verdict = lhs == dot(si, aux) - aux
                assert cli._master_identity_holds(w, i) == verdict
                assert verdict or kept is not terms


def test_si_expansion_example_57():
    exp = {str(v): c for v, c in perm_si_action(Permutation.from_one_line("1324"), 2).items()}
    one = MultiPoly.one(4)
    assert exp == {
        "1234": lf(3, 2, 4),
        "1324": one, "1342": one, "3412": one, "3124": one,
        "1243": -one, "2413": -one, "2134": -one,
    }


def test_si_expansion_example_58():
    exp = perm_si_action(Permutation.from_one_line("13245"), 2)
    plus = sorted(str(v) for v, c in exp.items() if c == MultiPoly.one(5))
    minus = sorted(str(v) for v, c in exp.items() if c == -MultiPoly.one(5))
    assert plus == sorted(
        ["13245", "13452", "13425", "13524", "34512", "34125", "35124", "31245"]
    )
    assert minus == sorted(
        ["12453", "12435", "12534", "24513", "24135", "25134", "21345"]
    )
    assert exp[Permutation.from_one_line("12345")] == lf(3, 2, 5)


def test_fully_fenced_si_expansion():
    # w = ...|i+1|i|... : s_i sigma_w = sigma_w + (t_{i+1}-t_i) sigma_{s_i w}
    w = Permutation.from_one_line("4321")
    exp = perm_si_action(w, 2)
    assert exp == {
        w: MultiPoly.one(4),
        Permutation.simple(2, 4) * w: lf(3, 2, 4),
    }


@pytest.mark.parametrize("n", range(2, 6))
def test_si_expansion_sums_back_to_the_moved_class(n):
    # sum over v of c_v . sigma_v is s_i . sigma_w, as equivariant classes
    basis = {u: permutohedral_class(u) for u in Permutation.all(n)}
    for w in Permutation.all(n):
        for i in range(1, n):
            total = EquivariantClass.zero(n)
            for v, coeff in perm_si_action(w, i).items():
                total = total + basis[v].scale(coeff)
            assert total == dot(Permutation.simple(i, n), basis[w])


@functools.cache
def _degree_positions(n):
    """``{w: (k, p)}``: the degree k of each w of S_n and its position p in
    ``degree_basis``."""
    h = HessenbergFunction.permutohedral(n)
    return {w: (k, p) for k in range(n) for p, w in enumerate(degree_basis(h, k))}


def _expansion_of(cache, w, i):
    """``cache.expansion`` of ``(w, i)``, translated to permutations through
    the degree basis."""
    k, p = _degree_positions(len(w))[w]
    order = degree_basis(HessenbergFunction.permutohedral(len(w)), k)
    return {order[q]: c for q, c in cache.expansion(k, p, i).items()}


def _memo_by_permutation(cache):
    """The memo of ``cache`` keyed by ``(w, i)``, each entry keyed by
    permutation."""
    h = HessenbergFunction.permutohedral(cache.n)
    memo = {}
    for (k, p, i), entry in cache.cache.items():
        order = degree_basis(h, k)
        memo[(order[p], i)] = {order[q]: c for q, c in entry.items()}
    return memo


@pytest.mark.parametrize("n", [5, 6])
def test_every_descent_memo_entry_is_the_constant_terms(n):
    # the t = 0 recursion against the expanded moved class, on every pair
    # with i+1 directly left of i, the letters read off their mirror included
    cache = _SiExpansionCache(n)
    for w in Permutation.all(n):
        for i in range(1, n):
            if w.index(i + 1) + 1 == w.index(i):
                constants = {v: c.constant_term() for v, c in perm_si_action(w, i).items()}
                assert _expansion_of(cache, w, i) == {v: c for v, c in constants.items() if c}
    assert len(cache.cache) == (n - 1) * math.factorial(n - 1)


@st.composite
def permutation_and_generator(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    w = Permutation(draw(st.permutations(range(1, n + 1))))
    return w, draw(st.integers(min_value=1, max_value=n - 1))


@settings(max_examples=80, deadline=None)
@given(permutation_and_generator())
def test_expansion_at_t0_is_the_constant_term(case):
    # the integer recursion gives the constant terms of the expanded moved class
    w, i = case
    at_zero = _expansion_of(_expansion_cache(len(w)), w, i)
    constants = {v: c.constant_term() for v, c in perm_si_action(w, i).items()}
    assert at_zero == {v: c for v, c in constants.items() if c}
    assert all(type(c) is int for c in at_zero.values())


def test_expansion_caches_stay_within_their_bound():
    for n in range(2, 7):
        # w0, the one permutation of the top degree n - 1
        _expansion_cache(n).expansion(n - 1, 0, 1)
        assert len(_caches) <= _CACHE_BOUND
    # the newest cache is kept, and asking again returns the same object
    newest = _expansion_cache(6)
    assert newest is _caches[6]
    assert _expansion_cache(6) is newest


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_auxiliary_terms_match_the_reference(n):
    for w in Permutation.all(n):
        for i in range(1, n):
            if w.index(i + 1) + 1 == w.index(i):
                assert auxiliary_terms(w, i) == walk_auxiliary_terms(w, i)
            else:
                with pytest.raises(ValueError):
                    auxiliary_terms(w, i)


def test_only_the_descent_case_is_memoized():
    # a one-term move is read off the positions of i and i+1; the memo holds
    # the (n-1) (n-1)! pairs with i+1 directly left of i, and no other
    n = 5
    cache = _SiExpansionCache(n)
    for w in Permutation.all(n):
        for i in range(1, n):
            expansion = _expansion_of(cache, w, i)
            j, k = w.index(i), w.index(i + 1)
            if j + 1 == k:
                assert expansion == {w: 1}
            elif k + 1 != j:
                assert expansion == {Permutation.simple(i, n) * w: 1}
    assert all(w.index(i + 1) + 1 == w.index(i) for w, i in _memo_by_permutation(cache))
    assert len(cache.cache) == (n - 1) * math.factorial(n - 1)
    # each degree's table of one-term images marks exactly the descent pairs
    for degree in cache.degrees.values():
        for i in range(1, n):
            assert ([q < 0 for q in degree.images[i]]
                    == [w.index(i + 1) + 1 == w.index(i) for w in degree.order])


@pytest.mark.parametrize("n", range(2, 8))
def test_mirrored_memo_equals_the_unmirrored_recursion(n):
    # letters above n/2 read off (w0 w w0, n - i) against the recursion run
    # for every letter, on every descent pair
    cache, memo = _SiExpansionCache(n), {}
    for w in Permutation.all(n):
        for i in range(1, n):
            if w.index(i + 1) + 1 == w.index(i):
                assert _expansion_of(cache, w, i) == unmirrored_expansion(w, i, memo)
    assert _memo_by_permutation(cache) == memo
    # the mirror list of each degree is phi(u) = w0 u w0 on positions
    w0 = Permutation.longest(n)
    for degree in cache.degrees.values():
        assert [degree.order[q] for q in degree.mirror] == [w0 * w * w0 for w in degree.order]


def test_the_recursion_runs_only_for_letters_up_to_half_n(monkeypatch):
    # at n = 7 the letters 1, 2, 3 compute their 720 descent pairs each; the
    # letters 4, 5, 6 read theirs off the mirror, so the memo still holds
    # all 6 * 720 pairs
    n = 7
    computed = []
    compute = _SiExpansionCache._compute

    def counted(self, k, p, i):
        computed.append(i)
        return compute(self, k, p, i)
    monkeypatch.setattr(_SiExpansionCache, "_compute", counted)
    cache = _SiExpansionCache(n)
    h = HessenbergFunction.permutohedral(n)
    for k in range(n):
        for p in range(len(degree_basis(h, k))):
            for i in range(1, n):
                cache.expansion(k, p, i)
    assert len(computed) == 2160 and set(computed) == {1, 2, 3}
    assert len(cache.cache) == (n - 1) * math.factorial(n - 1)


def _by_permutation(matrix):
    """The columns of ``matrix``, and their rows, keyed by basis permutation."""
    order = matrix.basis_order
    return {w: {order[r]: c for r, c in column.items()}
            for w, column in zip(order, matrix.columns)}


def _matrix_from(order, columns):
    """The ``ActionMatrix`` over ``order`` of columns keyed by permutation."""
    position = {w: j for j, w in enumerate(order)}
    return ActionMatrix(order, [{position[v]: c for v, c in columns[w].items()}
                                for w in order])


def _matrix_digest(matrix):
    text = json.dumps(
        [[str(w), sorted((str(v), c) for v, c in column.items())]
         for w, column in _by_permutation(matrix).items()],
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _generator_digests(sizes):
    digests = {}
    for n in sizes:
        h = HessenbergFunction.permutohedral(n)
        for k in range(n):
            for i in range(1, n):
                digests[f"{n},{k},{i}"] = _matrix_digest(generator_matrix(i, k, h))
    return digests


def test_generator_matrices_match_golden():
    # one digest per (n, k, i) of every permutohedral generator matrix at n <= 6
    golden = pathlib.Path(__file__).parent / "golden" / "generator_matrices_n6.json"
    assert _generator_digests(range(2, 7)) == json.loads(golden.read_text())


def test_generator_matrices_n7_match_golden():
    # the same digests at n = 7
    golden = pathlib.Path(__file__).parent / "golden" / "generator_matrices_n7.json"
    assert _generator_digests([7]) == json.loads(golden.read_text())


def _expansion_digest(expansion):
    text = json.dumps(
        sorted([str(v), sorted([list(e), str(c)] for e, c in coeff.terms.items())]
               for v, coeff in expansion.items()),
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_perm_si_action_matches_golden():
    # one digest per (n, w, i) of the polynomial expansion at n <= 5
    golden = pathlib.Path(__file__).parent / "golden" / "perm_si_action_n5.json"
    digests = {
        f"{n},{w},{i}": _expansion_digest(perm_si_action(w, i))
        for n in range(2, 6)
        for w in Permutation.all(n)
        for i in range(1, n)
    }
    assert digests == json.loads(golden.read_text())


@pytest.mark.parametrize("h", [
    HessenbergFunction.full_flag(4),
    HessenbergFunction.permutohedral(4),
    HessenbergFunction((2, 4, 4, 4)),
], ids=str)
@pytest.mark.parametrize("i", [-1, 0, 4, 7])
def test_generators_outside_the_group_are_rejected(h, i):
    with pytest.raises(ValueError, match=f"s_{i} outside 1 <= i < n = 4"):
        generator_matrix(i, 1, h)
    with pytest.raises(ValueError, match=f"s_{i} outside 1 <= i < n = 4"):
        perm_si_action(Permutation.from_one_line("2143"), i)


def test_off_degree_term_in_a_column_is_an_error(monkeypatch):
    # a term outside degree k must not be filtered away: in the package, a
    # recursion summand whose target is the identity, raised where the target
    # becomes a position; in the reference, a memo entry with that term
    n, i = 4, 1
    h = HessenbergFunction.permutohedral(n)
    dot_module = importlib.import_module("gkmhess.dot")  # the package exports dot()
    monkeypatch.setitem(_caches, n, _SiExpansionCache(n))
    w = Permutation.from_one_line("2134")  # i+1 directly left of i, degree 1
    identity = Permutation.identity(n)
    exact, stray = dot_module.auxiliary_terms, AuxiliaryTerm(identity, identity, identity)
    monkeypatch.setattr(dot_module, "auxiliary_terms",
                        lambda v, j: exact(v, j) + [stray] if (v, j) == (w, i) else exact(v, j))
    memo = {(w, i): {w: 1, identity: 1}}
    for assemble in (generator_matrix,
                     lambda i, k, h: position_keyed_generator_matrix(i, k, h, memo)):
        with pytest.raises(AssertionError,
                           match=r"s_1 \. sigma_2134 leaves degree 1: it reaches 1234$"):
            assemble(i, 1, h)


@pytest.mark.parametrize("fault", ["one-term", "mirror"])
def test_an_image_outside_the_degree_is_named(fault, monkeypatch):
    # a one-term image or a mirror image off the degree raises an
    # AssertionError naming it while the degree's tables are built, never a
    # KeyError: here s_1 . sigma_2134 read as the class of rank 0, the
    # identity's, and phi read as w -> w0 w, which sends degree k to degree
    # n - 1 - k
    n = 4
    h = HessenbergFunction.permutohedral(n)
    dot_module = importlib.import_module("gkmhess.dot")
    monkeypatch.setitem(_caches, n, _SiExpansionCache(n))
    w, identity = Permutation.from_one_line("2134"), Permutation.identity(n)
    if fault == "one-term":
        exact = dot_module._one_term_ranks
        monkeypatch.setattr(dot_module, "_one_term_ranks",
                            lambda v, r: [0] + exact(v, r)[1:] if v == w else exact(v, r))
        message = r"s_1 \. sigma_2134 leaves degree 1: it reaches 1234$"
    else:
        monkeypatch.setattr(dot_module, "_mirror", lambda v: Permutation.longest(len(v)) * v)
        message = r"phi\(1243\) leaves degree 1: it reaches 4312$"
    with pytest.raises(AssertionError, match=message):
        generator_matrix(1, 1, h)


@pytest.mark.parametrize("n", range(2, 8))
def test_generator_matrices_equal_the_position_keyed_assembly(n):
    # every column against the unmirrored recursion, run for every letter
    # and keyed by position, one-term columns included
    h, memo = HessenbergFunction.permutohedral(n), {}
    for k in range(n):
        for i in range(1, n):
            matrix = generator_matrix(i, k, h)
            assert matrix == position_keyed_generator_matrix(i, k, h, memo)
            assert all(type(c) is int for column in matrix.columns for c in column.values())


@pytest.mark.parametrize("n", range(2, 7))
def test_one_term_images_are_the_one_term_expansions(n):
    # None exactly when i+1 stands directly left of i; otherwise the one
    # class of the polynomial expansion, with coefficient 1
    one = MultiPoly.one(n)
    for w in Permutation.all(n):
        for i in range(1, n):
            image = one_term_image(w, i)
            descent = w.index(i + 1) + 1 == w.index(i)
            assert (image is None) == descent
            if image is not None:
                assert perm_si_action(w, i) == {image: one}
                expected = w if w.index(i) + 1 == w.index(i + 1) else Permutation.simple(i, n) * w
                assert image == expected


@pytest.mark.parametrize("n", range(2, 8))
def test_rank_filled_tables_equal_the_reference_positions(n):
    # each degree's table, filled from lexicographic ranks, against the
    # position of the reference's one permutation, for every letter; -1
    # exactly at the descent pairs, i+1 directly left of i
    cache = _SiExpansionCache(n)
    for k in range(n):
        degree = cache.degree(k)
        position = {w: p for p, w in enumerate(degree.order)}
        for i in range(1, n):
            images = [one_term_image(w, i) for w in degree.order]
            assert degree.images[i] == [-1 if v is None else position[v] for v in images]
            assert ([q < 0 for q in degree.images[i]]
                    == [w.index(i + 1) + 1 == w.index(i) for w in degree.order])
        assert degree.units == [{q: 1} for q in range(len(degree.order))]
        # one int object per position, shared by the tables and the columns
        positions = list(degree.position.values())
        assert all(q is positions[q] for row in degree.images[1:] for q in row if q >= 0)
        assert all(next(iter(unit)) is q for unit, q in zip(degree.units, positions))


@pytest.mark.parametrize("n", range(2, 6))
def test_compose_equals_a_copying_composition(n):
    # every ordered pair of generators in every degree; neither factor
    # changes, and a shared column is the left factor's own
    h = HessenbergFunction.permutohedral(n)
    for k in range(n):
        matrices = {i: generator_matrix(i, k, h) for i in range(1, n)}
        before = {i: copying_compose(ActionMatrix.identity(m.basis_order), m)
                  for i, m in matrices.items()}
        for left in matrices.values():
            for right in matrices.values():
                product = left.compose(right)
                assert product == copying_compose(left, right)
                for column, vec in zip(product.columns, right.columns):
                    if list(vec.values()) == [1]:
                        [q] = vec
                        assert column is left.columns[q]
        assert matrices == before


def test_generator_matrices_survive_the_suites_that_share_their_columns(monkeypatch):
    # after the traces, the decomposition of every degree and the Coxeter
    # relations have multiplied the matrices of n = 6, each generator matrix
    # built from the used cache equals one built from a fresh cache
    from gkmhess import cli
    from gkmhess.chromatic import verify_shareshian_wachs
    from gkmhess.decomp import verify_decomposition

    n = 6
    h = HessenbergFunction.permutohedral(n)
    assert verify_shareshian_wachs(h).agree
    for k in range(n):
        assert verify_decomposition(n, k).passed
    assert cli.verify_coxeter(n, cli.RunConfig.from_args(
        argparse.Namespace(seed=0, format="json")))["passed"]
    used = _expansion_cache(n)
    held = {(i, k): generator_matrix(i, k, h) for k in range(n) for i in range(1, n)}
    monkeypatch.setitem(_caches, n, _SiExpansionCache(n))
    for (i, k), matrix in held.items():
        assert matrix == generator_matrix(i, k, h)
    for degree in used.degrees.values():
        assert degree.units == [{q: 1} for q in range(len(degree.order))]


def test_a_basis_vector_with_the_int_one_maps_to_a_copy_of_its_column():
    order = degree_basis(HessenbergFunction.permutohedral(3), 1)
    columns = [{0: Fraction(1, 2), 2: 3}, {1: 1}, {2: -1, 3: 2}, {0: 5}]
    matrix = ActionMatrix(order, columns)
    image = matrix.apply_vector({2: 1})
    assert image == columns[2] and image is not columns[2]
    image[2] = 7
    assert columns[2] == {2: -1, 3: 2}
    # any other coefficient, a Fraction 1 included, takes the general sum
    scaled = matrix.apply_vector({0: Fraction(1)})
    assert scaled == {0: Fraction(1, 2), 2: 3} and type(scaled[2]) is Fraction
    assert matrix.apply_vector({0: 10, 3: -1}) == {2: 30}


@pytest.mark.parametrize("n", range(2, 7))
def test_permutohedral_columns_are_the_memo_expansions_by_position(n):
    # each column is the t = 0 expansion at its position, and a copy: the
    # matrix shares no dict with the memo
    h = HessenbergFunction.permutohedral(n)
    cache = _expansion_cache(n)
    for k in range(n):
        for i in range(1, n):
            for p, column in enumerate(generator_matrix(i, k, h).columns):
                expansion = cache.expansion(k, p, i)
                assert column == expansion and column is not expansion


@pytest.mark.parametrize("n", range(2, 7))
def test_mirrored_letters_have_conjugate_matrices(n):
    # s_{n-i} on degree k is s_i with rows and columns renumbered through
    # phi(u) = w0 u w0, which keeps the degree basis
    h = HessenbergFunction.permutohedral(n)
    w0 = Permutation.longest(n)
    for k in range(n):
        for i in range(1, n):
            expected = {w0 * w * w0: {w0 * v * w0: c for v, c in column.items()}
                        for w, column in _by_permutation(generator_matrix(i, k, h)).items()}
            assert _by_permutation(generator_matrix(n - i, k, h)) == expected


def test_si_expansion_degree_bookkeeping():
    # coefficient at v is homogeneous of degree des(w) - des(v)
    from gkmhess.gkm import l_h

    h5 = HessenbergFunction.permutohedral(5)
    for text in ("13245", "21435", "32154", "21543"):
        w = Permutation.from_one_line(text)
        k = len(w.descents())
        for i in range(1, 5):
            for v, coeff in perm_si_action(w, i).items():
                assert coeff.is_homogeneous(k - l_h(v, h5))


def test_stabilizer_young_subgroup():
    # Prop-style stabilizer: block-preserving value permutations fix the class
    for n in (3, 4, 5):
        for w in Permutation.all(n):
            cls = permutohedral_class(w)
            descents = (0,) + w.descents() + (n,)
            for s in range(len(descents) - 1):
                block = sorted(w(m) for m in range(descents[s] + 1, descents[s + 1] + 1))
                for a, b in zip(block, block[1:]):
                    mover = Permutation.transposition(a, b, n)
                    assert dot(mover, cls) == cls


def test_action_matrix_identity():
    h = HessenbergFunction.permutohedral(4)
    m = action_matrix(Permutation.identity(4), 1, h)
    assert m == ActionMatrix.identity(degree_basis(h, 1))


def test_action_matrix_column_example():
    h = HessenbergFunction.permutohedral(4)
    m = generator_matrix(2, 1, h)
    w = Permutation.from_one_line("1324")
    col = {str(v): c for v, c in _by_permutation(m)[w].items()}
    assert col == {
        "1324": 1, "1342": 1, "3412": 1, "3124": 1,
        "1243": -1, "2413": -1, "2134": -1,
    }


def test_trace_of_identity_gives_poincare():
    h = HessenbergFunction.permutohedral(4)
    traces = [
        action_matrix(Permutation.identity(4), k, h).trace() for k in range(4)
    ]
    assert tuple(int(t) for t in traces) == poincare_coefficients(h)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("family", ["permutohedral", "full_flag"])
def test_generator_matrix_entries_are_exact_ints(n, family):
    h = getattr(HessenbergFunction, family)(n)
    for k in range(len(poincare_coefficients(h))):
        for i in range(1, n):
            for column in generator_matrix(i, k, h).columns:
                assert all(type(v) is int for v in column.values())


@pytest.mark.parametrize("h", list(HessenbergFunction.all(4)), ids=str)
def test_degree_bases_partition_s_n(h):
    coeffs = poincare_coefficients(h)
    bases = [degree_basis(h, k) for k in range(len(coeffs))]
    assert tuple(len(b) for b in bases) == coeffs
    assert sorted(w for b in bases for w in b) == list(Permutation.all(4))
    # one scan of S_n per (h, k): a repeated request returns the cached tuple
    assert all(degree_basis(h, k) is b for k, b in enumerate(bases))


def test_action_matrix_word_independent():
    # different reduced words of the same element give equal matrices
    h = HessenbergFunction.permutohedral(4)
    braid_lhs = [1, 2, 1]
    braid_rhs = [2, 1, 2]
    k = 2
    lhs = ActionMatrix.identity(degree_basis(h, k))
    rhs = ActionMatrix.identity(degree_basis(h, k))
    for i in braid_lhs:
        lhs = lhs.compose(generator_matrix(i, k, h))
    for i in braid_rhs:
        rhs = rhs.compose(generator_matrix(i, k, h))
    assert lhs == rhs


def test_coxeter_relations_full_flag_n4():
    h = HessenbergFunction.full_flag(4)
    for k in range(7):
        mats = {i: generator_matrix(i, k, h) for i in range(1, 4)}
        identity = ActionMatrix.identity(degree_basis(h, k))
        for i in range(1, 4):
            assert mats[i].compose(mats[i]) == identity
        assert (
            mats[1].compose(mats[2]).compose(mats[1])
            == mats[2].compose(mats[1]).compose(mats[2])
        )
        assert mats[1].compose(mats[3]) == mats[3].compose(mats[1])


def test_full_flag_expansion_rule():
    # the expansion reads the positions of i and i+1; the rule is stated by
    # Coxeter lengths
    for n in (2, 3, 4, 5):
        for w in Permutation.all(n):
            for i in range(1, n):
                si_w = Permutation.simple(i, n) * w
                expected = {w: MultiPoly.one(n)}
                if si_w.coxeter_length() < w.coxeter_length():
                    expected[si_w] = lf(i + 1, i, n)
                assert full_flag_si_expansion(w, i) == expected


def test_action_matrices_general_h_route():
    # interpolated-basis route: exact relations and the trace identity
    h = HessenbergFunction((2, 3, 3))
    coeffs = poincare_coefficients(h)
    for k in range(len(coeffs)):
        mats = {i: generator_matrix(i, k, h) for i in (1, 2)}
        identity = ActionMatrix.identity(degree_basis(h, k))
        assert mats[1].compose(mats[1]) == identity
        assert mats[2].compose(mats[2]) == identity
        lhs = mats[1].compose(mats[2]).compose(mats[1])
        rhs = mats[2].compose(mats[1]).compose(mats[2])
        assert lhs == rhs
        assert action_matrix(Permutation.identity(3), k, h).trace() == coeffs[k]


def test_example_48_identity_general_h():
    # h = (2,4,4,4): the corrected sum satisfies the reflection identity
    h = HessenbergFunction((2, 4, 4, 4))
    classes = {}
    for text in ("2143", "2413", "2341", "1243"):
        result = interpolate_class(Permutation.from_one_line(text), h)
        classes[text] = result.cls
    total = classes["2143"] + classes["2413"] + classes["2341"]
    s1 = Permutation.simple(1, 4)
    lhs = dot(s1, total) - total
    assert lhs == classes["1243"].scale(lf(2, 1, 4))


def test_dot_rules_suite_reports_bugs_instead_of_skipping(monkeypatch):
    # only a non-unique basis may be booked as skipped; any other error is
    # a failure of the suite
    from gkmhess import cli

    def broken(*args, **kwargs):
        raise KeyError("bug in the rule check")

    monkeypatch.setattr(cli, "dashed_rule_check", broken)
    with pytest.raises(KeyError):
        cli.verify_dot_rules(3, cli.RunConfig())


def test_flow_up_basis_builds_what_it_is_asked_for_and_is_not_iterable():
    h = HessenbergFunction((2, 3, 3, 4))
    basis = FlowUpBasis(h)
    w = Permutation.from_one_line("2143")
    assert basis.get(w) is flow_up_class(w, h).cls
    with pytest.raises(TypeError):
        iter(basis)
    with pytest.raises(TypeError):
        for _ in basis:
            pass


def test_expand_interpolates_only_the_classes_it_reaches(monkeypatch, capsys):
    # the class of 21345 under 3,3,4,5,5 needs a few of the 120 classes; the
    # output is the corpus's, and the expansion over the whole table
    from gkmhess import cli

    golden = pathlib.Path(__file__).parent / "golden"
    path = golden / "class_21345_33455.json"
    calls = _count_interpolations(monkeypatch)
    assert cli.main(["expand", "--input", str(path), "--h", "3,3,4,5,5"]) == 0
    out = capsys.readouterr().out
    assert 0 < len(calls) < math.factorial(5)
    with open(golden / "parity.jsonl") as handle:
        records = [json.loads(line) for line in handle]
    [record] = [r for r in records
                if r["args"] == f"expand --input tests/golden/{path.name} --h 3,3,4,5,5"]
    assert hashlib.sha256(out.encode()).hexdigest() == record["stdout_sha256"]
    h = HessenbergFunction.from_string("3,3,4,5,5")
    target = flow_up_class(Permutation.from_one_line("21345"), h).cls
    full = expand_in_basis(target, flow_up_table(h))
    assert json.loads(out)["coefficients"] == {str(v): str(c) for v, c in full.items()}


def test_action_matrix_interpolates_the_basis_once(monkeypatch):
    # a word with repeated letters, in every degree, interpolates each class
    # of the basis at most once, and still multiplies the letters in order
    h = HessenbergFunction((2, 3, 3, 4))
    u = Permutation.longest(4)
    calls = _count_interpolations(monkeypatch)
    matrices = [action_matrix(u, k, h) for k in range(3)]
    assert len(calls) == len(set(calls))
    assert len(calls) == math.factorial(4)
    for k, matrix in enumerate(matrices):
        expected = ActionMatrix.identity(degree_basis(h, k))
        for gen in u.reduced_word():
            expected = expected.compose(generator_matrix(gen, k, h))
        assert matrix == expected


def _count_interpolations(monkeypatch) -> list:
    """Empty the flow-up memo and record every ``(w, h)`` it interpolates."""
    import importlib

    dot_module = importlib.import_module("gkmhess.dot")  # the package exports dot()
    calls = []

    def counted(w, h):
        calls.append((w, h))
        return interpolate_class(w, h)

    monkeypatch.setattr(dot_module, "_bases", {})
    monkeypatch.setattr(dot_module, "interpolate_class", counted)
    return calls


def test_flow_up_memo_is_bounded_and_drops_the_oldest_h(monkeypatch):
    import importlib

    dot_module = importlib.import_module("gkmhess.dot")
    calls = _count_interpolations(monkeypatch)
    functions = list(HessenbergFunction.all(3))
    for h in functions:
        flow_up_table(h)
    assert list(dot_module._bases) == functions[-_CACHE_BOUND:]
    # the permutohedral h takes its closed form and interpolates nothing
    interpolated = 6 * (len(functions) - 1)
    assert len(calls) == interpolated
    flow_up_table(functions[-1])
    assert len(calls) == interpolated
    flow_up_table(functions[0])
    assert calls[-1] == (Permutation.longest(3), functions[0])


def test_verify_dot_rules_interpolates_each_class_once(monkeypatch):
    from gkmhess import cli

    calls = _count_interpolations(monkeypatch)
    result = cli.verify_dot_rules(4, cli.RunConfig())
    assert result["passed"] and result["skipped"] == 0
    assert len(calls) == len(set(calls))
    assert len(calls) == 292


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("family", ["permutohedral", "full_flag"])
def test_closed_routes_match_the_interpolated_route(n, family):
    # the t = 0 recursion and the full-flag identity against the general
    # route: reduce s_i . sigma_w over the interpolated basis, column by column
    h = getattr(HessenbergFunction, family)(n)
    results = {w: interpolate_class(w, h) for w in Permutation.all(n)}
    assert all(result.unique for result in results.values())
    basis = {w: result.cls for w, result in results.items()}
    for k in range(len(h.pairs) + 1):
        order = degree_basis(h, k)
        for i in range(1, n):
            si = Permutation.simple(i, n)
            general = _matrix_from(order, {
                w: reduce_to_ordinary(dot(si, basis[w]), k, h, basis) for w in order
            })
            assert generator_matrix(i, k, h) == general


def test_full_flag_generator_matrix_builds_no_polynomial(monkeypatch):
    h = HessenbergFunction.full_flag(4)

    def refuse(*args, **kwargs):
        raise AssertionError("a polynomial was built")

    orders = [degree_basis(h, k) for k in range(7)]
    monkeypatch.setattr(MultiPoly, "__init__", refuse)
    for k, order in enumerate(orders):
        for i in range(1, 4):
            assert generator_matrix(i, k, h) == ActionMatrix.identity(order)


def test_action_matrix_holds_only_the_basis_order_and_columns():
    import dataclasses

    assert [f.name for f in dataclasses.fields(ActionMatrix)] == ["basis_order", "columns"]


def test_reduce_to_ordinary_keeps_integral_values_int():
    h = HessenbergFunction((2, 3, 3, 4))
    basis = flow_up_table(h)
    for k in range(len(h.pairs) + 1):
        for w in degree_basis(h, k):
            moved = dot(Permutation.simple(2, 4), basis[w])
            for value in reduce_to_ordinary(moved, k, h, basis).values():
                assert type(value) is int or value.denominator != 1


def test_non_unique_classes_are_read_as_their_representatives(monkeypatch):
    # every reader takes the representative that ``gkmhess class`` prints,
    # with its free parameters set to 0; none refuses a non-unique class
    h = HessenbergFunction((2, 4, 4, 4))
    w = Permutation.from_one_line("1243")
    result = flow_up_class(w, h)
    assert result == interpolate_class(w, h) and not result.unique
    assert dashed_rule_check(Permutation.from_one_line("12354"), 1,
                             HessenbergFunction((1, 3, 5, 5, 5)))
    basis = flow_up_table(h)
    assert basis[w] == result.cls
    k = l_h(w, h)
    order = degree_basis(h, k)
    s1 = Permutation.simple(1, 4)
    assert w in order
    assert action_matrix(s1, k, h) == _matrix_from(
        order, {v: reduce_to_ordinary(dot(s1, basis[v]), k, h, basis) for v in order}
    )
    # the closed families interpolate nothing
    calls = _count_interpolations(monkeypatch)
    for closed in (HessenbergFunction.permutohedral(4), HessenbergFunction.full_flag(4)):
        for k in range(len(closed.pairs) + 1):
            action_matrix(Permutation.longest(4), k, closed)
    assert calls == []


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_permutohedral_flow_up_class_is_the_interpolated_class(n):
    # the closed form that ``flow_up_class`` returns for the permutohedral h,
    # against the interpolation it replaces there
    h = HessenbergFunction.permutohedral(n)
    for w in Permutation.all(n):
        assert flow_up_class(w, h) == interpolate_class(w, h)


# The 18 Hessenberg functions on [5] with a non-unique flow-up class, from a
# sweep of interpolate_class over all 42 of them.
NON_UNIQUE_H5 = [
    "1,3,5,5,5", "1,4,4,5,5", "1,4,5,5,5", "2,3,5,5,5", "2,4,4,4,5", "2,4,4,5,5",
    "2,4,5,5,5", "2,5,5,5,5", "3,3,4,4,5", "3,3,4,5,5", "3,3,5,5,5", "3,4,4,4,5",
    "3,4,4,5,5", "3,4,5,5,5", "3,5,5,5,5", "4,4,4,5,5", "4,4,5,5,5", "4,5,5,5,5",
]


@pytest.mark.parametrize("text", random.Random(16).sample(NON_UNIQUE_H5, 3))
def test_dashed_rule_holds_on_non_unique_representatives(text):
    h = HessenbergFunction.from_string(text)
    non_unique = {w for w in Permutation.all(5) if not flow_up_class(w, h).unique}
    assert non_unique
    involved = 0
    for w in Permutation.all(5):
        for i in range(1, 5):
            if edge_kind(w, i, h) is EdgeKind.DASHED:
                assert dashed_rule_check(w, i, h), (str(w), i)
                involved += bool({w, Permutation.simple(i, 5) * w} & non_unique)
    assert involved


@pytest.mark.parametrize("h", list(HessenbergFunction.all(4)), ids=str)
def test_every_h_on_4_has_a_representation_and_shareshian_wachs(h):
    from gkmhess.chromatic import verify_shareshian_wachs

    assert verify_shareshian_wachs(h).agree
    for k in range(len(h.pairs) + 1):
        mats = {i: generator_matrix(i, k, h) for i in range(1, 4)}
        identity = ActionMatrix.identity(degree_basis(h, k))
        for i in range(1, 4):
            assert mats[i].compose(mats[i]) == identity
        for i in (1, 2):
            assert (mats[i].compose(mats[i + 1]).compose(mats[i])
                    == mats[i + 1].compose(mats[i]).compose(mats[i + 1]))
        assert mats[1].compose(mats[3]) == mats[3].compose(mats[1])
