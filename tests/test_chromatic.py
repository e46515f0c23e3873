from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkmhess.chromatic import (
    chromatic_qsym,
    frobenius_of_degree,
    verify_closed_expansion,
    verify_shareshian_wachs,
)
from gkmhess.gkm import HessenbergFunction, poincare_coefficients
from gkmhess.symfunc import SymFunc, cycle_type_representative, partition_list, z_mu


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


def test_chromatic_t1_matches_characters_233():
    # coefficient of t^1 equals the involuted degree-1 Frobenius characteristic
    h = HessenbergFunction((2, 3, 3))
    graded = chromatic_qsym(h)
    lhs = graded[1].omega().to_basis("h")
    rhs = frobenius_of_degree(h, 1)
    assert lhs == rhs


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_closed_expansion(n):
    report = verify_closed_expansion(n)
    assert report.agree
    assert report.total_dimension == _fact(n)


def test_closed_expansion_n3_degrees():
    from gkmhess.decomp import expected_type_multiset

    assert expected_type_multiset(3, 0) == {(3,): 1}
    assert expected_type_multiset(3, 1) == {(3,): 1, (2, 1): 1}
    assert expected_type_multiset(3, 2) == {(3,): 1}
