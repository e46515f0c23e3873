import math
import random

import pytest
from hypothesis import given, settings, strategies as st

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
    action_matrix,
    auxiliary_terms,
    build_auxiliary_class,
    dashed_rule_check,
    degree_basis,
    dot,
    flow_up_basis,
    flow_up_class,
    full_flag_si_expansion,
    full_flag_si_rule_check,
    generator_matrix,
    perm_si_action,
)
from gkmhess.dot import _CACHE_BOUND, _caches, _ConstantRing, _expansion_cache, _PolyRing
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


def test_si_expansion_matches_dot_expand_n4():
    n = 4
    h = HessenbergFunction.permutohedral(n)
    basis = {u: permutohedral_class(u) for u in Permutation.all(n)}
    for u in Permutation.all(n):
        for i in range(1, n):
            direct = expand_in_basis(dot(Permutation.simple(i, n), basis[u]), basis, h)
            assert perm_si_action(u, i) == direct


@st.composite
def permutation_and_generator(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    w = Permutation(draw(st.permutations(range(1, n + 1))))
    return w, draw(st.integers(min_value=1, max_value=n - 1))


@settings(max_examples=80, deadline=None)
@given(permutation_and_generator())
def test_expansion_at_t0_is_the_constant_term(case):
    # the integer recursion is the polynomial one evaluated at t = 0
    w, i = case
    at_zero = _expansion_cache(len(w), _ConstantRing).expansion(w, i)
    constants = {v: c.constant_term() for v, c in perm_si_action(w, i).items()}
    assert at_zero == {v: c for v, c in constants.items() if c}
    assert all(type(c) is int for c in at_zero.values())


def test_expansion_caches_stay_within_their_bound():
    for n in range(2, 7):
        for ring in (_PolyRing, _ConstantRing):
            _expansion_cache(n, ring).expansion(Permutation.longest(n), 1)
            assert len(_caches) <= _CACHE_BOUND
    # the newest cache is kept, and asking again returns the same object
    newest = _expansion_cache(6, _ConstantRing)
    assert newest is _caches[(6, _ConstantRing)]
    assert _expansion_cache(6, _ConstantRing) is newest


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
    col = {str(v): c for v, c in m.columns[w].items()}
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
            for column in generator_matrix(i, k, h).columns.values():
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
    # the expansion reads the shared length table; the rule is stated by
    # coxeter_length
    for n in (2, 3, 4):
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
        flow_up_basis(h)
    assert list(dot_module._bases) == functions[-_CACHE_BOUND:]
    # the permutohedral h takes its closed form and interpolates nothing
    interpolated = 6 * (len(functions) - 1)
    assert len(calls) == interpolated
    flow_up_basis(functions[-1])
    assert len(calls) == interpolated
    flow_up_basis(functions[0])
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
            general = ActionMatrix(order, {
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
    basis = flow_up_basis(h)
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
    basis = flow_up_basis(h)
    assert basis[w] == result.cls
    k = l_h(w, h)
    order = degree_basis(h, k)
    s1 = Permutation.simple(1, 4)
    assert w in order
    assert action_matrix(s1, k, h) == ActionMatrix(
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
