import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkmhess.perms import Permutation
from gkmhess.polys import MAX_EXPONENT, MultiPoly, parse_poly
from reference_polys import TupleMultiPoly

NVARS = 3


def t(i):
    return MultiPoly.variable(i - 1, NVARS)


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(NVARS))
        terms[exps] = draw(st.integers(-9, 9))
    return MultiPoly(NVARS, terms)


@given(polys(), polys(), polys())
@settings(max_examples=60)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys(), st.integers(-9, 9) | st.fractions(-3, 3, max_denominator=4))
def test_a_number_minus_a_polynomial(p, a):
    assert a - p == MultiPoly.constant(a, NVARS) - p == -(p - a)


@given(polys())
def test_no_stored_zeros(p):
    assert all(c for c in p.terms.values())
    assert (p - p).is_zero


def test_substitute_examples():
    s1 = Permutation.simple(1, 3)
    p = t(1) - t(2)
    assert p.substitute_permutation(s1) == t(2) - t(1)
    assert t(3).substitute_permutation(Permutation.identity(3)) == t(3)
    u = Permutation((2, 3, 1))
    p2 = (t(2) - t(3)) * (t(1) - t(2))
    assert p2.substitute_permutation(u) == (t(3) - t(1)) * (t(2) - t(3))


@given(polys())
@settings(max_examples=40)
def test_substitution_composes(p):
    for u in Permutation.all(3):
        for v in Permutation.all(3):
            lhs = p.substitute_permutation(u).substitute_permutation(v)
            assert lhs == p.substitute_permutation(v * u)


def test_substitution_composes_s4():
    import random

    rng = random.Random(17)
    samples = []
    for _ in range(3):
        terms = {
            tuple(rng.randint(0, 2) for _ in range(4)): rng.randint(-5, 5)
            for _ in range(4)
        }
        samples.append(MultiPoly(4, terms))
    for p in samples:
        for u in Permutation.all(4):
            for v in Permutation.all(4):
                lhs = p.substitute_permutation(u).substitute_permutation(v)
                assert lhs == p.substitute_permutation(v * u)


def test_divide_examples():
    # the edge divisibility test: t_a - t_b divides q iff q(t_a := t_b) = 0
    p = t(1) * t(1) - t(2) * t(2)
    assert p.substitute_var(1, 2).is_zero
    assert not t(1).substitute_var(1, 2).is_zero
    assert MultiPoly.zero(NVARS).substitute_var(1, 2).is_zero


@given(polys(), st.integers(-9, 9).filter(bool))
@settings(max_examples=60)
def test_divide_round_trip(p, c):
    # multiples of t_a - t_b vanish under t_a := t_b; adding a constant breaks it
    for a, b in [(1, 2), (2, 3), (1, 3), (3, 1)]:
        product = p * MultiPoly.linear_form(a, b, NVARS)
        assert product.substitute_var(a, b).is_zero
        assert not (product + c).substitute_var(a, b).is_zero


def test_str_canonical():
    p = t(1) * t(1) - t(2) * t(2)
    assert str(p) == "t1^2-t2^2"
    q = MultiPoly.constant(Fraction(-1, 2), NVARS) * t(3) + 2 * t(1) * t(2)
    assert str(q) == "2*t1*t2-1/2*t3"
    assert str(MultiPoly.zero(NVARS)) == "0"
    assert str(MultiPoly.constant(3, NVARS)) == "3"


@given(polys())
@settings(max_examples=60)
def test_parse_round_trip(p):
    assert parse_poly(str(p), NVARS) == p


def test_parse_examples():
    assert parse_poly("t1-t2", 3) == t(1) - t(2)
    assert parse_poly("-t1+3/2*t2^2", 3) == -t(1) + MultiPoly.constant(Fraction(3, 2), 3) * t(2) * t(2)
    with pytest.raises(ValueError, match="unknown variable 't4'"):
        parse_poly("t1-t4^2", 3)


@pytest.mark.parametrize("text,message", [
    ("t1--t2", "a sign without a term"),
    ("t1-+t2", "a sign without a term"),
    ("t1+-t2", "a sign without a term"),
    ("-", "a sign without a term"),
    ("t1-", "a sign without a term"),
    ("1/0", "a zero denominator"),
    ("t1-3/0*t2", "a zero denominator"),
])
def test_parse_rejects_stray_signs_and_zero_denominators(text, message):
    with pytest.raises(ValueError, match=f"cannot parse {re.escape(repr(text))}: {message}"):
        parse_poly(text, 3)


def test_homogeneity_and_degree():
    p = t(1) * t(2) - t(3) * t(3)
    assert p.is_homogeneous(2)
    assert p.degree() == 2
    assert not (p + t(1)).is_homogeneous()
    assert MultiPoly.zero(NVARS).degree() == -1


def test_evaluate():
    p = 2 * t(1) * t(1) + t(2) - t(3)
    assert p.evaluate([Fraction(1, 2), Fraction(3), Fraction(1)]) == Fraction(5, 2)


# -- packed monomials against the tuple-keyed reference ------------------------

REF_NVARS = 4
COEFFS = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@st.composite
def term_maps(draw, max_exponent=4):
    return draw(st.dictionaries(
        st.tuples(*[st.integers(0, max_exponent)] * REF_NVARS), COEFFS, max_size=6
    ))


def _both(terms):
    return MultiPoly(REF_NVARS, terms), TupleMultiPoly(REF_NVARS, terms)


def _same(packed, reference):
    assert str(packed) == str(reference)
    assert packed.terms == reference.terms
    assert packed.sorted_terms() == reference.sorted_terms()
    # a Fraction with denominator 1 is always stored as an int
    assert all(type(c) is int or c.denominator != 1 for c in packed.packed.values())


@given(term_maps(), term_maps(), COEFFS,
       st.permutations(range(1, REF_NVARS + 1)),
       st.tuples(st.integers(1, REF_NVARS), st.integers(1, REF_NVARS)).filter(lambda ab: ab[0] != ab[1]),
       st.lists(COEFFS, min_size=REF_NVARS, max_size=REF_NVARS))
@settings(max_examples=150, deadline=None)
def test_packed_polynomials_match_the_tuple_reference(terms_p, terms_q, c, u, ab, point):
    p, p_ref = _both(terms_p)
    q, q_ref = _both(terms_q)
    _same(p + q, p_ref + q_ref)
    _same(p - q, p_ref - q_ref)
    _same(p * q, p_ref * q_ref)
    _same(p + c, p_ref + c)
    _same(p - c, p_ref - c)
    _same(p * c, p_ref * c)
    _same(c * p, c * p_ref)
    _same(-p, -p_ref)
    _same(p.substitute_var(*ab), p_ref.substitute_var(*ab))
    _same(p.substitute_permutation(Permutation(u)), p_ref.substitute_permutation(u))
    assert p.evaluate(point) == p_ref.evaluate(point)
    assert type(p.evaluate(point)) is type(p_ref.evaluate(point))
    assert p.degree() == max((sum(e) for e in p_ref.terms), default=-1)
    assert (p == q) == (p_ref == q_ref)
    assert (p == c) == (p_ref == c)
    if p == q:
        assert hash(p) == hash(q)
    if p == c:
        assert hash(p) == hash(c)


def test_checked_constructor_rejects_malformed_exponent_tuples():
    for terms in ({(1, 0, 0): 1}, {(1,): 1}, {(-1, 2): 3}, {(0, -1): 0},
                  {(1.5, 0): 1}, {(MAX_EXPONENT + 1, 0): 1}):
        with pytest.raises(ValueError, match="exponent tuple"):
            MultiPoly(2, terms)
    assert str(MultiPoly(2, {(MAX_EXPONENT, 0): 1})) == f"t1^{MAX_EXPONENT}"
    with pytest.raises(ValueError, match="exponent tuple"):
        parse_poly(f"t1^{MAX_EXPONENT + 1}", 2)


def test_constants_hash_as_their_numbers():
    for nvars in (0, 1, 2, 5):
        assert MultiPoly.one(nvars) == 1 and hash(MultiPoly.one(nvars)) == hash(1)
        assert MultiPoly.zero(nvars) == 0 and hash(MultiPoly.zero(nvars)) == hash(0)
        half = MultiPoly.constant(Fraction(-1, 2), nvars)
        assert half == Fraction(-1, 2) and hash(half) == hash(Fraction(-1, 2))
        assert len({MultiPoly.one(nvars), 1, Fraction(1)}) == 1
    assert MultiPoly.constant(Fraction(4, 2), 3).packed == {0: 2}
    assert type(MultiPoly.constant(Fraction(4, 2), 3).constant_term()) is int


def test_exponent_overflow_raises_and_never_wraps():
    x = MultiPoly(2, {(MAX_EXPONENT, 0): 1})
    y = MultiPoly.variable(1, 2)
    assert str(x * y) == f"t1^{MAX_EXPONENT}*t2"
    for product in (lambda: x * MultiPoly.variable(0, 2),
                    lambda: MultiPoly.variable(0, 2) * x,
                    lambda: x * (MultiPoly.variable(0, 2) + y),
                    lambda: (x + 1) * (MultiPoly.variable(0, 2) - 1)):
        with pytest.raises(OverflowError, match="exponent above"):
            product()
    # t_2 := t_1 moves field 2 onto field 1: 127 + 1 would set the guard bit
    xy = MultiPoly(2, {(MAX_EXPONENT, 1): 1, (0, 0): 3})
    for a, b in ((2, 1), (1, 2)):
        with pytest.raises(OverflowError, match="exponent above"):
            xy.substitute_var(a, b)
    edge = MultiPoly(2, {(MAX_EXPONENT - 1, 1): 1}).substitute_var(2, 1)
    assert str(edge) == f"t1^{MAX_EXPONENT}"
