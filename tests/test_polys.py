from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkmhess.perms import Permutation
from gkmhess.polys import MultiPoly, parse_poly

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


def test_homogeneity_and_degree():
    p = t(1) * t(2) - t(3) * t(3)
    assert p.is_homogeneous(2)
    assert p.degree() == 2
    assert not (p + t(1)).is_homogeneous()
    assert MultiPoly.zero(NVARS).degree() == -1


def test_evaluate():
    p = 2 * t(1) * t(1) + t(2) - t(3)
    assert p.evaluate([Fraction(1, 2), Fraction(3), Fraction(1)]) == Fraction(5, 2)
