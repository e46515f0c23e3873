import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkmhess import classes
from gkmhess.classes import (
    EquivariantClass,
    GkmViolation,
    ExpansionError,
    InfeasibleInterpolationError,
    RootProduct,
    _divide_general,
    _solve_vertex,
    expand_in_basis,
    gkm_check,
    interpolate_class,
    permutohedral_class,
    permutohedral_root_products,
    reduce_to_ordinary,
    sum_vanishes,
    top_value,
)
from gkmhess.gkm import GkmGraph, HessenbergFunction, l_h
from gkmhess.perms import Permutation
from gkmhess.polys import MultiPoly
from gkmhess.reach import support_A
import reference_interpolation
from reference_actions import flow_up_table, smooth_point_value
from reference_polys import TupleMultiPoly, divide_general


def lf(a, b, n):
    return MultiPoly.linear_form(a, b, n)


def test_gkm_check_constant_class():
    h = HessenbergFunction((2, 3, 3))
    ok, violation = gkm_check(EquivariantClass.constant(3), h)
    assert ok and violation is None


def test_class_keys_trust_permutations_and_check_the_rest():
    n = 3
    w = Permutation.from_one_line("213")
    cls = EquivariantClass(n, {w: MultiPoly.one(n), (1, 2, 3): MultiPoly.one(n)})
    assert any(key is w for key in cls.values)
    assert all(type(key) is Permutation for key in cls.values)
    with pytest.raises(ValueError, match="not a permutation"):
        EquivariantClass(n, {(1, 1, 2): MultiPoly.one(n)})


def test_gkm_check_violation():
    h = HessenbergFunction.full_flag(3)
    bad = EquivariantClass(3, {Permutation.identity(3): MultiPoly.variable(0, 3)})
    ok, violation = gkm_check(bad, h)
    assert not ok
    assert violation.v == Permutation.identity(3)


def _gkm_check_on_edge_sets(p, h):
    """``gkm_check`` as an edge-set walk: the sorted support is scanned and
    each edge is checked once, from the endpoint reached first, remembered
    in a set."""
    graph = GkmGraph(h)
    checked = set()
    for v in sorted(p.support()):
        pv = p.value(v)
        for target, a, b in graph.neighbors(v):
            key = (v, target) if v < target else (target, v)
            if key in checked:
                continue
            checked.add(key)
            diff = pv - p.value(target)
            if not diff.substitute_var(a, b).is_zero:
                return False, GkmViolation(v, target, lf(a, b, p.n), diff)
    return True, None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gkm_check_matches_the_edge_set_walk(n):
    # every flow-up class of every h, as it is, with t1 added at one point
    # and with the value at one support point dropped
    perms = list(Permutation.all(n))
    count, verdicts = 0, set()
    for h in HessenbergFunction.all(n):
        for w, cls in flow_up_table(h).items():
            support = sorted(cls.support())
            added = cls + EquivariantClass(n, {perms[count % len(perms)]: MultiPoly.variable(0, n)})
            dropped = EquivariantClass(n, {v: p for v, p in cls.values.items()
                                           if v != support[count % len(support)]})
            count += 1
            assert gkm_check(cls, h) == (True, None)
            for corrupted in (added, dropped):
                verdict = gkm_check(corrupted, h)
                assert verdict == _gkm_check_on_edge_sets(corrupted, h)
                verdicts.add(verdict[0])
    assert verdicts == {True, False}


def test_permutohedral_classes_pass_gkm():
    h = HessenbergFunction.permutohedral(5)
    rng = random.Random(0)
    sample = rng.sample(list(Permutation.all(5)), 25)
    for w in sample:
        assert gkm_check(permutohedral_class(w), h)[0]


def test_permutohedral_class_values_s8_example():
    w = Permutation.from_one_line("25347168")
    cls = permutohedral_class(w)
    v = Permutation.from_one_line("52437681")
    assert cls.value(v) == lf(4, 2, 8) * lf(6, 7, 8)
    assert cls.value(w) == lf(3, 5, 8) * lf(1, 7, 8)
    assert len(cls.support()) == 72


def test_identity_class_is_all_ones():
    cls = permutohedral_class(Permutation.identity(4))
    assert cls.support() == frozenset(Permutation.all(4))
    assert all(p == MultiPoly.one(4) for p in cls.values.values())


def test_top_value_examples():
    h = HessenbergFunction((2, 3, 3))
    assert top_value(Permutation((3, 2, 1)), h) == lf(2, 3, 3) * lf(1, 2, 3)
    assert top_value(Permutation.identity(4), HessenbergFunction.full_flag(4)) == MultiPoly.one(4)


def test_top_value_matches_permutohedral_class():
    h = HessenbergFunction.permutohedral(4)
    for w in Permutation.all(4):
        assert top_value(w, h) == permutohedral_class(w).value(w)


def test_interpolate_full_flag_s1():
    h = HessenbergFunction.full_flag(3)
    result = interpolate_class(Permutation((2, 1, 3)), h)
    assert result.unique
    values = {str(v): p for v, p in result.cls.values.items()}
    assert values == {
        "213": lf(1, 2, 3),
        "231": lf(1, 2, 3),
        "312": lf(1, 3, 3),
        "321": lf(1, 3, 3),
    }


def test_interpolate_longest_element():
    for h in HessenbergFunction.all(3):
        w0 = Permutation.longest(3)
        result = interpolate_class(w0, h)
        assert result.unique
        assert result.cls.support() == frozenset({w0})
        assert result.cls.value(w0) == top_value(w0, h)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_interpolation_reproduces_permutohedral(n):
    h = HessenbergFunction.permutohedral(n)
    for w in Permutation.all(n):
        result = interpolate_class(w, h)
        assert result.unique
        assert result.cls == permutohedral_class(w)


def test_interpolation_reproduces_permutohedral_n5_sample():
    h = HessenbergFunction.permutohedral(5)
    rng = random.Random(4)
    for w in rng.sample(list(Permutation.all(5)), 12):
        result = interpolate_class(w, h)
        assert result.unique
        assert result.cls == permutohedral_class(w)


def test_interpolated_classes_satisfy_flow_up_contract():
    for h in HessenbergFunction.all(3):
        for w in Permutation.all(3):
            result = interpolate_class(w, h)
            cls = result.cls
            degree = l_h(w, h)
            assert cls.is_homogeneous(degree)
            assert cls.support() <= support_A(w, h)
            assert cls.value(w) == top_value(w, h)
            assert gkm_check(cls, h)[0]


def test_flow_up_contract_all_h_on_4():
    # representatives satisfy the contract even when underdetermined; the
    # underdetermined instances on [4] are pinned as a regression
    from gkmhess.reach import support_A as support_fn

    nonunique = set()
    for h in HessenbergFunction.all(4):
        for w in Permutation.all(4):
            result = interpolate_class(w, h)
            cls = result.cls
            assert cls.is_homogeneous(l_h(w, h))
            assert cls.support() <= support_fn(w, h)
            assert cls.value(w) == top_value(w, h)
            assert gkm_check(cls, h)[0]
            if not result.unique:
                assert result.free_parameters == 1
                nonunique.add((str(w), str(h)))
    assert nonunique == {
        ("1243", "2,4,4,4"),
        ("2134", "3,3,4,4"),
        ("1423", "3,4,4,4"),
        ("2314", "3,4,4,4"),
    }


def test_interpolation_general_h_n5_spot_checks():
    h = HessenbergFunction((3, 3, 4, 5, 5))
    from gkmhess.reach import support_A as support_fn

    for text in ("24135", "15342", "12345", "54321"):
        w = Permutation.from_one_line(text)
        result = interpolate_class(w, h)
        assert result.unique
        assert result.cls.is_homogeneous(l_h(w, h))
        assert result.cls.support() <= support_fn(w, h)
        assert result.cls.value(w) == top_value(w, h)
        assert gkm_check(result.cls, h)[0]


def test_no_vertex_system_forces_a_parameter_relation():
    # interpolate_class raises on a relation among earlier parameters; none
    # appears on [4] or on the five-parameter class at n = 5, so every free
    # parameter is a free monomial at one vertex and the counts stay exact
    free = sum(
        interpolate_class(w, h).free_parameters
        for h in HessenbergFunction.all(4) for w in Permutation.all(4)
    )
    wide = interpolate_class(Permutation.from_one_line("21345"),
                             HessenbergFunction((3, 3, 4, 5, 5)))
    assert free == 4
    assert wide.free_parameters == 5 and not wide.unique


T1, T2 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)


@pytest.mark.parametrize("constraints,forced", [
    # t1 across the edge (1, 2) and t2 across (2, 1) force p2 - p1 = 0
    ([(1, 2, {1: T1}), (2, 1, {2: T2})], r"\(-1\)\*p1 \+ \(1\)\*p2 = 0"),
    # one value asked to be t2 and 2 t2 under t1 := t2: 0 = 1
    ([(1, 2, {0: T1}), (1, 2, {0: T1 * 2})], r"\(-?1\)\*p0 = 0"),
], ids=["relation", "inconsistent"])
def test_solve_vertex_raises_on_a_row_without_an_unknown(constraints, forced):
    with pytest.raises(InfeasibleInterpolationError, match=forced):
        _solve_vertex(2, 1, constraints, 3)


def test_interpolation_names_the_vertex_of_a_forced_relation(monkeypatch):
    def refuse(*args):
        raise classes.InfeasibleInterpolationError("forced")

    monkeypatch.setattr(classes, "_solve_vertex", refuse)
    with pytest.raises(classes.InfeasibleInterpolationError,
                       match=r"^forced at v=132, for w=123, h=2,3,3$"):
        interpolate_class(Permutation.identity(3), HessenbergFunction((2, 3, 3)))


T = [MultiPoly.variable(k, 3) for k in range(3)]


@pytest.mark.parametrize("degree,constraints,message", [
    # t1 - t2 and t1 - t3 vanish on a value of degree 1, so it is 0, but the
    # edge t2 - t3 asks for t3
    (1, [(1, 2, {}), (1, 3, {}), (2, 3, {0: T[1]})],
     r"^the value is 0, of degree 1 below its 2 vanishing roots, but p0 across t2 - t3 is not$"),
    # the value is c (t1 - t2): t3 - t2 across t1 - t3 sets c = 1, and
    # 2 (t1 - t3) across t2 - t3 asks for c = 2
    (1, [(1, 2, {}), (1, 3, {0: T[0] - T[1]}), (2, 3, {0: (T[0] - T[1]) * 2})],
     r"^p0 across t2 - t3 is not 1 times the vanishing roots, the scalar read off t1 - t3$"),
    # the value is (t1 - t2) g, and t3^2 across t1 - t3 is not a multiple of
    # t3 - t2
    (2, [(1, 2, {}), (1, 3, {0: T[0] * T[0]})],
     r"^p0 across t1 - t3 is not divisible by the vanishing roots$"),
], ids=["forced-zero", "scalar", "remainder"])
def test_solve_vertex_raises_where_the_vanishing_roots_do_not_fit(degree, constraints, message):
    with pytest.raises(InfeasibleInterpolationError, match=message):
        _solve_vertex(3, degree, constraints, 1)
    with pytest.raises(InfeasibleInterpolationError):
        reference_interpolation._solve_vertex(3, degree, constraints, 1)


def test_interpolation_names_the_vertex_where_the_roots_leave_a_remainder(monkeypatch):
    # 43512 taken out of the support of 31425 puts its label t3 - t4 into the
    # vanishing roots at 34512, which then divide no value across t1 - t5
    w, h = Permutation.from_one_line("31425"), HessenbergFunction((3, 4, 5, 5, 5))
    short = support_A(w, h) - {Permutation.from_one_line("43512")}
    for module in (classes, reference_interpolation):
        monkeypatch.setattr(module, "support_A", lambda v, g: short)
    with pytest.raises(InfeasibleInterpolationError,
                       match=r"^p0 across t1 - t5 is not divisible by the vanishing roots "
                             r"at v=34512, for w=31425, h=3,4,5,5,5$"):
        interpolate_class(w, h)
    with pytest.raises(InfeasibleInterpolationError):
        reference_interpolation.interpolate_class(w, h)


def _assert_same_interpolation(w, h, monkeypatch):
    """The quotient solve and the reference give the same class, freedom and
    parametric value at every vertex."""
    solves = {}
    for module in (classes, reference_interpolation):
        exact = module._solve_vertex
        log = solves[module] = []
        monkeypatch.setattr(module, "_solve_vertex",
                            lambda *args, exact=exact, log=log: log.append(exact(*args)) or log[-1])
    result = interpolate_class(w, h)
    reference = reference_interpolation.interpolate_class(w, h)
    assert result.cls == reference.cls and hash(result.cls) == hash(reference.cls)
    assert result.free_parameters == reference.free_parameters
    assert solves[classes] == solves[reference_interpolation]
    return result


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quotient_solve_matches_the_reference(n, monkeypatch):
    for h in HessenbergFunction.all(n):
        for w in Permutation.all(n):
            _assert_same_interpolation(w, h, monkeypatch)


def test_quotient_solve_matches_the_reference_n5_sample(monkeypatch):
    rng = random.Random(39)
    pairs = [(Permutation.from_one_line("21345"), HessenbergFunction((3, 3, 4, 5, 5)))]
    perms, hs = list(Permutation.all(5)), list(HessenbergFunction.all(5))
    pairs += [(rng.choice(perms), rng.choice(hs)) for _ in range(80)]
    free = [_assert_same_interpolation(w, h, monkeypatch).free_parameters for w, h in pairs]
    # the sample meets three more classes with free parameters:
    # 12435 under 2,4,5,5,5 (2), 52314 under 3,4,5,5,5 and 52134 under 1,4,4,5,5
    assert free[0] == 5 and sorted(f for f in free[1:] if f) == [1, 1, 2]


@pytest.mark.parametrize("n", [3, 4])
def test_quotient_solve_raises_where_the_reference_raises(n, monkeypatch):
    # every support short of one point or with one more: the two solves
    # raise on the same instances and give the same class on the others
    raised = 0
    for h in HessenbergFunction.all(n):
        for w in Permutation.all(n):
            support = support_A(w, h)
            changed = [support - {x} for x in support if x != w]
            changed += [support | {x} for x in Permutation.all(n) if x not in support]
            for points in changed:
                outcomes = []
                for module in (classes, reference_interpolation):
                    monkeypatch.setattr(module, "support_A", lambda v, g, points=points: points)
                    try:
                        result = module.interpolate_class(w, h)
                        outcomes.append((result.cls, result.free_parameters))
                    except InfeasibleInterpolationError:
                        outcomes.append("raised")
                    except AssertionError:
                        outcomes.append("w not length-minimal")
                assert outcomes[0] == outcomes[1], (h, w, sorted(points ^ support))
                raised += outcomes[0] == "raised"
    assert raised


def _freedom(w, h):
    """The count of free parameters read off the moment graph: a point u of
    the support after w with E_u constraining edges (to lower support points
    and off the support) adds the C(d - E_u + n - 1, n - 1) monomials of
    degree d - E_u, each times the product of their labels."""
    n, d = h.n, l_h(w, h)
    support = support_A(w, h)
    graph = GkmGraph(h)
    by_point = {}
    for u in support - {w}:
        length = u.coxeter_length()
        edges = sum(1 for target, _a, _b in graph.neighbors(u)
                    if target not in support or target.coxeter_length() < length)
        if edges <= d:
            by_point[str(u)] = math.comb(d - edges + n - 1, n - 1)
    return by_point


@pytest.mark.parametrize("n", [2, 3, 4])
def test_free_parameters_are_the_freedom_count_of_the_moment_graph(n):
    for h in HessenbergFunction.all(n):
        for w in Permutation.all(n):
            assert interpolate_class(w, h).free_parameters == sum(_freedom(w, h).values())


def test_freedom_count_of_21345_under_33455():
    w, h = Permutation.from_one_line("21345"), HessenbergFunction((3, 3, 4, 5, 5))
    assert _freedom(w, h) == dict.fromkeys(["23415", "23451", "23514", "24513", "34512"], 1)
    assert interpolate_class(w, h).free_parameters == 5


def test_expand_single_basis_class():
    h = HessenbergFunction.permutohedral(4)
    basis = {w: permutohedral_class(w) for w in Permutation.all(4)}
    w = Permutation.from_one_line("1324")
    expansion = expand_in_basis(basis[w], basis)
    assert expansion == {w: MultiPoly.one(4)}


def test_expand_polynomial_multiple():
    h = HessenbergFunction.permutohedral(4)
    basis = {w: permutohedral_class(w) for w in Permutation.all(4)}
    w = Permutation.from_one_line("1324")
    scalar = sum((MultiPoly.variable(k, 4) for k in range(4)), MultiPoly.zero(4))
    expansion = expand_in_basis(basis[w].scale(scalar), basis)
    assert expansion == {w: scalar}


def test_expand_example_s2_sigma_1324():
    from gkmhess.dot import dot

    h = HessenbergFunction.permutohedral(4)
    basis = {w: permutohedral_class(w) for w in Permutation.all(4)}
    w = Permutation.from_one_line("1324")
    moved = dot(Permutation.simple(2, 4), basis[w])
    expansion = {str(v): c for v, c in expand_in_basis(moved, basis).items()}
    one = MultiPoly.one(4)
    assert expansion == {
        "1234": lf(3, 2, 4),
        "1324": one, "1342": one, "3412": one, "3124": one,
        "1243": -one, "2413": -one, "2134": -one,
    }


def test_expand_products_round_trip():
    # pointwise products stay in the span; expansion must reconstruct exactly
    h = HessenbergFunction.permutohedral(3)
    basis = {w: permutohedral_class(w) for w in Permutation.all(3)}
    perms = list(Permutation.all(3))
    for u in perms:
        for v in perms:
            product = EquivariantClass(
                3,
                {
                    x: basis[u].value(x) * basis[v].value(x)
                    for x in basis[u].support() & basis[v].support()
                },
            )
            expansion = expand_in_basis(product, basis)
            rebuilt = EquivariantClass.zero(3)
            for x, coeff in expansion.items():
                rebuilt = rebuilt + basis[x].scale(coeff)
            assert rebuilt == product


@pytest.mark.parametrize("n", [2, 3, 4])
def test_expand_round_trip_random_classes(n):
    rng = random.Random(13 + n)
    for h in HessenbergFunction.all(n):
        basis = {w: interpolate_class(w, h).cls for w in Permutation.all(n)}
        for _ in range(100):
            target = EquivariantClass.zero(n)
            for w in rng.sample(list(basis), min(3, len(basis))):
                coeff = MultiPoly.constant(rng.randint(-4, 4), n)
                if rng.random() < 0.5:
                    coeff = coeff * MultiPoly.variable(rng.randrange(n), n)
                target = target + basis[w].scale(coeff)
            expansion = expand_in_basis(target, basis)
            rebuilt = EquivariantClass.zero(n)
            for w, coeff in expansion.items():
                rebuilt = rebuilt + basis[w].scale(coeff)
            assert rebuilt == target


def test_expand_outside_span_raises():
    h = HessenbergFunction.full_flag(2)
    basis = {w: interpolate_class(w, h).cls for w in Permutation.all(2)}
    # constant 1 at the longest element only is divisible by nothing useful
    bogus = EquivariantClass(2, {Permutation.longest(2): MultiPoly.one(2)})
    with pytest.raises(ExpansionError):
        expand_in_basis(bogus, basis)


def test_expand_over_a_dict_without_a_class_it_reaches_raises():
    # a dict basis is read as it stands: a point it has no class for is refused
    h = HessenbergFunction.full_flag(3)
    basis = {w: interpolate_class(w, h).cls for w in Permutation.all(3)}
    w = Permutation.from_one_line("213")
    target = basis.pop(w)
    with pytest.raises(ExpansionError, match="no basis class available at 213"):
        expand_in_basis(target, basis)


def test_reduce_to_ordinary_examples():
    from gkmhess.dot import dot

    h = HessenbergFunction.permutohedral(4)
    basis = {w: permutohedral_class(w) for w in Permutation.all(4)}
    w = Permutation.from_one_line("1324")
    assert reduce_to_ordinary(basis[w], 1, h, basis) == {w: Fraction(1)}
    moved = dot(Permutation.simple(2, 4), basis[w])
    vec = {str(v): c for v, c in reduce_to_ordinary(moved, 1, h, basis).items()}
    assert vec == {
        "1324": 1, "1342": 1, "3412": 1, "3124": 1,
        "1243": -1, "2413": -1, "2134": -1,
    }
    # augmentation-ideal multiples die
    killed = basis[w].scale(lf(1, 2, 4))
    assert reduce_to_ordinary(killed, 2, h, basis) == {}


def test_smooth_point_formula_permutohedral():
    for n in (3, 4):
        h = HessenbergFunction.permutohedral(n)
        for w in Permutation.all(n):
            cls = permutohedral_class(w)
            support = cls.support()
            for v in support:
                assert cls.value(v) == smooth_point_value(w, v, h, support)


# -- root products against their expansions ----------------------------------


def _product_of_labels(labels, n):
    """The product of the ``t_a - t_b`` as ``MultiPoly``, multiplied out one
    label at a time in the given order."""
    poly = MultiPoly.one(n)
    for a, b in labels:
        poly = poly * lf(a, b, n)
    return poly


@pytest.mark.parametrize("n", range(1, 7))
def test_root_products_expand_to_the_products_of_labels(n):
    # every permutohedral class, top value and smooth-point value at n <= 6
    h = HessenbergFunction.permutohedral(n)
    graph = GkmGraph(h)
    for w in Permutation.all(n):
        values = permutohedral_root_products(w)
        cls = permutohedral_class(w)
        support = cls.support()
        assert values.keys() == support
        for u, value in values.items():
            expected = _product_of_labels([(u[d], u[d - 1]) for d in w.descents()], n)
            assert value.expand(n) == cls.value(u) == expected
            leaving = [(a, b) for target, a, b in graph.neighbors(u) if target not in support]
            assert smooth_point_value(w, u, h, support) == _product_of_labels(leaving, n)
        oriented = [(a, b) for _target, a, b in graph.oriented_out(w)]
        assert top_value(w, h) == _product_of_labels(oriented, n)


def test_top_values_expand_for_every_h():
    for h in HessenbergFunction.all(4):
        graph = GkmGraph(h)
        for w in Permutation.all(4):
            oriented = [(a, b) for _target, a, b in graph.oriented_out(w)]
            assert top_value(w, h) == _product_of_labels(oriented, 4)


_labels = st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda ab: ab[0] != ab[1]),
                   max_size=5)


@settings(max_examples=200, deadline=None)
@given(_labels, _labels, st.sampled_from([-1, 1]), st.integers(1, 4), st.integers(1, 4),
       st.permutations(range(1, 5)))
def test_root_product_operations_match_their_expansions(left, right, sign, a, b, images):
    n, u = 4, Permutation(images)
    f, g = RootProduct.of_labels(left, sign), RootProduct.of_labels(right)
    assert f.expand(n) == _product_of_labels(left, n) * sign
    assert (f * g).expand(n) == f.expand(n) * g.expand(n)
    assert f.substitute(a, b).expand(n) == f.expand(n).substitute_var(a, b)
    assert f.relabel(u).expand(n) == f.expand(n).substitute_permutation(u)
    # unique factorization: equal values are equal tuples
    assert (f == g) == (f.expand(n) == g.expand(n))
    assert all(x < y for x, y in f.pairs) and list(f.pairs) == sorted(f.pairs)


def test_root_product_zero():
    zero = RootProduct.of_labels([(1, 2), (3, 3)])
    assert zero == RootProduct(0, ()) and zero.expand(3).is_zero
    f = RootProduct.of_labels([(2, 1), (3, 1)])
    assert f == RootProduct(1, ((1, 2), (1, 3)))
    assert f.substitute(2, 1) == zero and f * zero == zero
    assert f.substitute(3, 2) == RootProduct(1, ((1, 2), (1, 2)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_linear_form_is_the_root_product_of_its_label(n):
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            assert lf(a, b, n) == RootProduct.of_labels([(a, b)]).expand(n)
    assert lf(n, n, n).is_zero


def _expanding(monkeypatch):
    """The root products that ``RootProduct.expand`` expands from here on."""
    expanded = []
    exact = RootProduct.expand
    monkeypatch.setattr(RootProduct, "expand",
                        lambda self, n: expanded.append(self) or exact(self, n))
    return expanded


def test_sum_vanishes_on_one_root_per_term(monkeypatch):
    # (t1 - t2)(t1 - t3) + (t2 - t1)(t2 - t3) - (t1 - t2)(t1 - t2) = 0: the
    # shared t1 - t2 leaves t1 - t3, t3 - t2 and t2 - t1
    expanded = _expanding(monkeypatch)
    terms = [(RootProduct.of_labels([(1, 2), (1, 3)]), 1),
             (RootProduct.of_labels([(2, 1), (2, 3)]), 1),
             (RootProduct.of_labels([(1, 2), (1, 2)]), -1)]
    assert sum_vanishes(terms, 3)
    assert not sum_vanishes(terms[:2], 3)
    assert not sum_vanishes(terms[:1] + terms[2:], 3)
    assert not expanded
    # terms that cancel factor for factor, and no term at all
    assert sum_vanishes(terms[:1] + [(terms[0][0], -1)], 3)
    assert sum_vanishes([], 3)


def test_sum_vanishes_on_two_roots_per_term(monkeypatch):
    # (t1 - t2)(t3 - t4) - (t1 - t3)(t2 - t4) + (t1 - t4)(t2 - t3) = 0, each
    # term also times the shared t1 - t5, which is divided out
    expanded = _expanding(monkeypatch)
    shared = RootProduct.of_labels([(1, 5)])
    terms = [(shared * RootProduct.of_labels(labels), coeff) for labels, coeff in [
        ([(1, 2), (3, 4)], 1), ([(1, 3), (2, 4)], -1), ([(1, 4), (2, 3)], 1)]]
    assert sum_vanishes(terms, 5)
    assert len(expanded) == 3 and all(len(value.pairs) == 2 for value in expanded)
    perturbed = terms[:2] + [(shared * RootProduct.of_labels([(1, 4), (3, 2)]), 1)]
    assert not sum_vanishes(perturbed, 5)
    assert not sum_vanishes(terms[:2] + [(terms[2][0], 2)], 5)


_signed_products = st.lists(st.tuples(_labels, st.integers(-2, 2)), max_size=4)


@settings(max_examples=200, deadline=None)
@given(_signed_products, _labels)
def test_sum_vanishes_is_the_expanded_sum_vanishing(terms, shared):
    n = 4
    common = RootProduct.of_labels(shared)
    values = [(common * RootProduct.of_labels(labels), coeff) for labels, coeff in terms]
    total = MultiPoly.zero(n)
    for value, coeff in values:
        total = total + value.expand(n) * coeff
    assert sum_vanishes(values, n) == total.is_zero


# -- exact division on packed monomials against the tuple-keyed reference ------

DIV_NVARS = 3


@st.composite
def nonzero_term_maps(draw, max_exponent=3):
    return draw(st.dictionaries(
        st.tuples(*[st.integers(0, max_exponent)] * DIV_NVARS),
        st.one_of(st.integers(-5, 5), st.fractions(-3, 3, max_denominator=4)).filter(bool),
        min_size=1, max_size=4,
    ))


@given(nonzero_term_maps(), nonzero_term_maps(), nonzero_term_maps(max_exponent=2))
@settings(max_examples=120, deadline=None)
def test_division_matches_the_reference_on_multiples_and_non_multiples(q_terms, r_terms, s_terms):
    q, r, s = (MultiPoly(DIV_NVARS, t) for t in (q_terms, r_terms, s_terms))
    q_ref, r_ref, s_ref = (TupleMultiPoly(DIV_NVARS, t) for t in (q_terms, r_terms, s_terms))
    product = q * r
    quotient = _divide_general(product, q)
    assert quotient == r
    assert str(quotient) == str(divide_general(q_ref * r_ref, q_ref))
    # q r + s for any s: the same answer as the reference, None exactly where q
    # does not divide; a nonconstant q never divides q r + 1
    mixed = _divide_general(product + s, q)
    mixed_ref = divide_general(q_ref * r_ref + s_ref, q_ref)
    assert (mixed is None) == (mixed_ref is None)
    if mixed is not None:
        assert str(mixed) == str(mixed_ref) and mixed * q == product + s
    if q.degree() > 0:
        assert _divide_general(product + 1, q) is None
        assert divide_general(q_ref * r_ref + 1, q_ref) is None


def test_division_of_zero_and_by_a_product_of_labels():
    n = 4
    labels = lf(1, 2, n) * lf(2, 3, n) * lf(1, 4, n)
    assert _divide_general(MultiPoly.zero(n), labels).is_zero
    cofactor = lf(3, 4, n) * lf(3, 4, n) + MultiPoly.constant(Fraction(1, 3), n) * lf(1, 3, n)
    assert _divide_general(labels * cofactor, labels) == cofactor
    assert _divide_general(labels * cofactor + lf(1, 2, n), labels) is None
