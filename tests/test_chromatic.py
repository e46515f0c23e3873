import gc
import itertools
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from reference_actions import cycle_type_representative, half_word_traces, omega_through_e

from gkmhess.chromatic import (
    SymmetryViolationError,
    _assert_symmetric,
    _coloring_counts,
    _cycle_blocks,
    _cycle_type_traces,
    chromatic_qsym,
    frobenius_of_degree,
    verify_shareshian_wachs,
)
from gkmhess.dot import ActionMatrix, action_matrix, generator_matrix
from gkmhess.gkm import HessenbergFunction, poincare_coefficients
from gkmhess.perms import Permutation
from gkmhess.polys import MultiPoly
from gkmhess.symfunc import (
    SymFunc,
    _monomial_expansion,
    partition_list,
    z_mu,
)


def test_incomparability_edges():
    assert HessenbergFunction((2, 3, 3)).pairs == ((1, 2), (2, 3))
    assert HessenbergFunction((1, 2, 3)).pairs == ()


def test_edgeless_graph_chromatic():
    graded = chromatic_qsym(HessenbergFunction((1, 2, 3)))
    assert len(graded) == 1
    # every coloring proper: X = e_1^n
    assert graded[0] == SymFunc(3, "e", {(1, 1, 1): 1})


def test_complete_graph_chromatic():
    graded = chromatic_qsym(HessenbergFunction((3, 3, 3)))
    # injective colorings only, graded by the inversion statistic
    assert [g.coeffs.get((1, 1, 1), 0) for g in graded] == [1, 2, 2, 1]
    assert all(set(g.coeffs) <= {(1, 1, 1)} for g in graded)


def test_chromatic_t_coefficients_are_symmetric():
    # the construction itself asserts symmetry; smoke over all h on [5]
    for n in (4, 5):
        for h in HessenbergFunction.all(n):
            chromatic_qsym(h)


def test_chromatic_degrees_are_nonzero_at_both_ends_and_palindromic():
    # c(v) = n + 1 - v is proper with no ascent, so t^0 is nonzero, and
    # t^top equals it by palindromicity: no degree is ever trimmed
    for n in range(1, 6):
        for h in HessenbergFunction.all(n):
            graded = chromatic_qsym(h)
            top = len(h.pairs)
            assert len(graded) == top + 1
            assert not graded[0].is_zero() and not graded[top].is_zero()
            assert all(graded[k] == graded[top - k] for k in range(top + 1))


def _enumerated_counts(h):
    """Every proper coloring with colors in [n], one at a time, by content and ascents."""
    n, top = h.n, len(h.pairs)
    earlier = {i: [j for j, b in h.pairs if b == i] for i in range(1, n + 1)}
    counts = {}

    def extend(colors, ascents):
        i = len(colors) + 1
        if i > n:
            content = tuple(colors.count(c) for c in range(1, n + 1))
            counts.setdefault(content, [0] * (top + 1))[ascents] += 1
            return
        neighbours = [colors[j - 1] for j in earlier[i]]
        for c in range(1, n + 1):
            if c not in neighbours:
                extend(colors + [c], ascents + sum(d < c for d in neighbours))

    extend([], 0)
    return counts


@given(st.sampled_from([h for n in range(1, 7) for h in HessenbergFunction.all(n)]))
@settings(max_examples=25, deadline=None)
def test_transfer_matches_enumerated_colorings(h):
    assert _coloring_counts(h) == _enumerated_counts(h)


def test_asymmetric_count_table_is_rejected():
    counts = _coloring_counts(HessenbergFunction.permutohedral(3))
    _assert_symmetric(counts, 3)
    unequal = {**counts, (1, 2, 0): [c + 1 for c in counts[(1, 2, 0)]]}
    with pytest.raises(SymmetryViolationError, match=r"content \(1, 2, 0\)"):
        _assert_symmetric(unequal, 3)
    missing = {c: v for c, v in counts.items() if c != (0, 1, 2)}
    with pytest.raises(SymmetryViolationError, match="rearrangements count 0"):
        _assert_symmetric(missing, 3)


def _multiplied_out(basis, lam, n):
    """m-coefficients of the basis element, its factors multiplied as polynomials."""
    if basis == "p":
        factors = [[(i,) * part for i in range(n)] for part in lam]
    else:
        pick = itertools.combinations if basis == "e" else itertools.combinations_with_replacement
        factors = [list(pick(range(n), part)) for part in lam]
    product = MultiPoly.one(n)
    for chosen in factors:
        terms = {}
        for variables in chosen:
            exps = [0] * n
            for i in variables:
                exps[i] += 1
            terms[tuple(exps)] = 1
        product = product * MultiPoly(n, terms)
    out = {}
    for mu in partition_list(n):
        coeff = product.terms.get(tuple(mu) + (0,) * (n - len(mu)), 0)
        if coeff:
            out[mu] = Fraction(coeff)
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_counted_transitions_match_multiplied_out_products(n):
    for basis in "ehp":
        for lam in partition_list(n):
            assert _monomial_expansion(basis, lam, n) == _multiplied_out(basis, lam, n)


@pytest.mark.parametrize("h", [
    HessenbergFunction.permutohedral(4),
    HessenbergFunction.permutohedral(5),
    HessenbergFunction.full_flag(4),
    HessenbergFunction.full_flag(5),
    HessenbergFunction((2, 3, 3, 5, 5)),
], ids=str)
def test_half_word_traces_match_composed_matrices(h):
    for k in range(len(h.pairs) + 1):
        matrices = {i: generator_matrix(i, k, h) for i in range(1, h.n)}
        traces = _cycle_type_traces(h, k, matrices)
        assert list(traces) == partition_list(h.n)
        for mu, chi in traces.items():
            u = cycle_type_representative(mu)
            assert chi == action_matrix(u, k, h).trace()


@pytest.mark.parametrize("n", range(1, 9))
def test_cycle_blocks_multiply_to_the_representative(n):
    for mu in partition_list(n):
        blocks = _cycle_blocks(mu)
        assert [len(block) + 1 for block in blocks] == list(mu)
        product = Permutation.identity(n)
        for block in blocks:
            for gen in block:
                product = product * Permutation.simple(gen, n)
        assert product == cycle_type_representative(mu)


def _traced_functions():
    families = [make(n) for n in range(1, 7)
                for make in (HessenbergFunction.permutohedral, HessenbergFunction.full_flag)]
    return list(dict.fromkeys(families + list(HessenbergFunction.all(4))))


@pytest.mark.parametrize("h", _traced_functions(), ids=str)
def test_block_traces_match_composed_matrices_and_half_words(h):
    for k in range(len(h.pairs) + 1):
        matrices = {i: generator_matrix(i, k, h) for i in range(1, h.n)}
        traces = _cycle_type_traces(h, k, matrices)
        assert traces == half_word_traces(h, k, matrices)
        for mu, chi in traces.items():
            assert chi == action_matrix(cycle_type_representative(mu), k, h).trace()


def test_trace_products_are_freed_when_the_degree_returns(monkeypatch):
    # the segment memo is a plain local, so reference counting frees every
    # product on return, with the cycle collector off
    made = []
    compose = ActionMatrix.compose

    def recorded(self, other):
        product = compose(self, other)
        made.append(weakref.ref(product))
        return product

    monkeypatch.setattr(ActionMatrix, "compose", recorded)
    gc.disable()
    try:
        frobenius_of_degree(HessenbergFunction.permutohedral(5), 2)
        alive = [ref for ref in made if ref() is not None]
    finally:
        gc.enable()
    assert made and not alive


def test_traces_form_only_the_products_of_proper_prefixes(monkeypatch):
    # at n = 5 the words split as L R into (s1 s2 s3)(s4), (s1 s2)(s3),
    # (s1 s2)(s4), (s1)(s2), (s1)(s3) and ()(s1): only s1 s2 and s1 s2 s3
    # are products, and s1 s2 s3 s4 is never formed
    made = []
    compose = ActionMatrix.compose

    def recorded(self, other):
        made.append(other)
        return compose(self, other)

    monkeypatch.setattr(ActionMatrix, "compose", recorded)
    h = HessenbergFunction.permutohedral(5)
    matrices = {i: generator_matrix(i, 2, h) for i in range(1, 5)}
    _cycle_type_traces(h, 2, matrices)
    assert made == [matrices[2], matrices[3]]


def test_cycle_type_representative_is_a_permutation_of_its_type():
    # the representative is built unchecked, so check it here
    for n in range(1, 8):
        for mu in partition_list(n):
            u = cycle_type_representative(mu)
            assert Permutation(tuple(u)) == u
            cycles, seen = [], set()
            for start in range(1, n + 1):
                size, j = 0, start
                while j not in seen:
                    seen.add(j)
                    j, size = u(j), size + 1
                if size:
                    cycles.append(size)
            assert sorted(cycles) == sorted(mu)


def test_basis_round_trips():
    plist = partition_list(5)
    f = SymFunc(5, "m", {plist[0]: Fraction(2), plist[3]: Fraction(-1, 3)})
    for basis in ("e", "h", "p", "s"):
        assert f.to_basis(basis).to_basis("m") == f


@given(st.dictionaries(st.sampled_from(partition_list(4)), st.integers(-5, 5), max_size=4))
@settings(max_examples=30)
def test_round_trip_random_m_vectors(coeffs):
    f = SymFunc(4, "m", coeffs)
    assert f.to_basis("p").to_basis("e").to_basis("m") == f


@pytest.mark.parametrize("n", range(1, 8))
def test_omega_on_power_sums_matches_the_route_through_e(n):
    for mu in partition_list(n):
        p_mu = SymFunc(n, "p", {mu: Fraction(3, 2)})
        image = p_mu.omega()
        assert image.basis == "p"
        assert image.coeffs == {mu: Fraction(3, 2) * (-1) ** (n - len(mu))}
        assert image == omega_through_e(p_mu)


def test_omega_swaps_e_and_h():
    f = SymFunc(4, "e", {(2, 1, 1): 1, (4,): 2})
    g = f.omega()
    assert g.basis == "h" and g.coeffs == f.coeffs
    assert g.omega() == f


def test_omega_on_power_sums():
    # omega(p_k) = (-1)^{k-1} p_k, multiplicative over parts
    for lam in partition_list(4):
        f = SymFunc(4, "p", {lam: 1})
        sign = 1
        for part in lam:
            sign *= (-1) ** (part - 1)
        assert f.omega().to_basis("p") == SymFunc(4, "p", {lam: sign})


def test_power_sum_identity():
    # p_1^n expands over h with the standard multinomial coefficients
    n = 4
    f = SymFunc(n, "p", {(1, 1, 1, 1): 1}).to_basis("m")
    # (x1+...+xn)^4 has monomial coefficient multinomial(4; exponents)
    assert f.coeffs[(1, 1, 1, 1)] == 24
    assert f.coeffs[(4,)] == 1
    assert f.coeffs[(2, 1, 1)] == 12


def test_z_mu_and_representatives():
    assert z_mu((3, 2)) == 6
    assert z_mu((1, 1, 1)) == 6
    assert z_mu((2, 2)) == 8
    rep = cycle_type_representative((3, 2))
    assert rep.cycle_type() == (3, 2)


def test_frobenius_degree_zero_is_trivial_module():
    for n in (3, 4):
        h = HessenbergFunction.permutohedral(n)
        f = frobenius_of_degree(h, 0)
        assert f.coeffs == {(n,): Fraction(1)}


@pytest.mark.parametrize("family", ["permutohedral", "full_flag"])
def test_frobenius_coefficients_are_exact_fractions(family):
    # int traces over z_mu must not pass through float division
    h = getattr(HessenbergFunction, family)(4)
    for k in range(len(poincare_coefficients(h))):
        f = frobenius_of_degree(h, k)
        for basis in ("h", "p"):
            coeffs = f.to_basis(basis).coeffs.values()
            assert all(type(c) is Fraction and 24 % c.denominator == 0 for c in coeffs)


def test_symfunc_rejects_float_coefficients():
    with pytest.raises(TypeError):
        SymFunc(3, "p", {(3,): 1 / 3})
    with pytest.raises(TypeError):
        SymFunc(3, "p", {(2, 1): 2.0})


def test_symfunc_scale_rejects_float_factor():
    p3 = SymFunc(3, "p", {(3,): 1})
    with pytest.raises(TypeError):
        p3.scale(0.1)
    assert p3.scale(Fraction(1, 10)).coeffs == {(3,): Fraction(1, 10)}


def test_frobenius_n5_k2_example():
    h = HessenbergFunction.permutohedral(5)
    f = frobenius_of_degree(h, 2)
    assert f.coeffs == {
        (5,): 1, (3, 2): 3, (4, 1): 1, (2, 2, 1): 1,
    }


def test_frobenius_dimensions_match_betti_numbers():
    # character at the identity recovers the degree dimension
    from gkmhess.decomp import eulerian_number

    h = HessenbergFunction.permutohedral(4)
    for k in range(4):
        f = frobenius_of_degree(h, k).to_basis("p")
        dim = sum(
            coeff * _power_sum_dimension(lam, 4) for lam, coeff in f.coeffs.items()
        )
        assert dim == eulerian_number(4, k)


def _power_sum_dimension(lam, n):
    # dimension pairing: p_lam evaluated as a character dimension
    return 0 if any(part > 1 for part in lam) else _fact(n)


def _fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_frobenius_h_positivity():
    # every degree's character is a nonnegative integer h-combination
    for n in (2, 3, 4, 5):
        h = HessenbergFunction.permutohedral(n)
        for k in range(n):
            f = frobenius_of_degree(h, k)
            assert all(
                c >= 0 and c.denominator == 1 for c in f.coeffs.values()
            )


def test_shareshian_wachs_small():
    for n in (2, 3, 4):
        assert verify_shareshian_wachs(HessenbergFunction.permutohedral(n)).agree
        assert verify_shareshian_wachs(HessenbergFunction.full_flag(n)).agree


def test_shareshian_wachs_general_h():
    # interpolated basis route for a non-family Hessenberg function
    report = verify_shareshian_wachs(HessenbergFunction((2, 3, 3)))
    assert report.agree


def test_non_palindromic_characters_fail_the_identity(monkeypatch):
    # both sides agree degree by degree, but hard Lefschetz is violated
    from gkmhess import chromatic

    graded = [
        SymFunc(3, "m", {(1, 1, 1): Fraction(1)}),
        SymFunc(3, "m", {(1, 1, 1): Fraction(2)}),
        SymFunc(3, "m", {(2, 1): Fraction(1)}),
    ]
    monkeypatch.setattr(chromatic, "chromatic_qsym", lambda h: graded)
    monkeypatch.setattr(chromatic, "_power_sum_character",
                        lambda h, k: graded[k].omega().to_basis("p"))
    report = verify_shareshian_wachs(HessenbergFunction.permutohedral(3))
    assert report.per_degree == [True, True, True]
    assert not report.agree


def test_chromatic_t1_matches_characters_233():
    # coefficient of t^1 equals the involuted degree-1 Frobenius characteristic
    h = HessenbergFunction((2, 3, 3))
    graded = chromatic_qsym(h)
    lhs = graded[1].omega().to_basis("h")
    rhs = frobenius_of_degree(h, 1)
    assert lhs == rhs
