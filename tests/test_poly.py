from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    reference_distinct_root_count,
    reference_gcd_coeffs,
    reference_max_root_multiplicity,
    reference_partial,
    reference_polydiv,
    reference_rational_roots,
)
from stabloci.poly import (
    MultiPoly,
    distinct_root_count,
    max_root_multiplicity,
    poly_gcd_univariate,
    rational_roots,
    univariate_coeffs,
)


def u(*coeffs):
    return MultiPoly(1, {(i,): Fraction(c) for i, c in enumerate(coeffs)})


def test_gcd_shared_factor():
    # u^2 - 1 and u - 1 share u - 1
    g = poly_gcd_univariate([u(-1, 0, 1), u(-1, 1)])
    assert univariate_coeffs(g) == [Fraction(-1), Fraction(1)]


def test_gcd_coprime_is_one():
    g = poly_gcd_univariate([u(0, 1), u(1, 1)])
    assert univariate_coeffs(g) == [Fraction(1)]


def test_gcd_empty_and_zero_lists():
    assert poly_gcd_univariate([]).is_zero()
    assert poly_gcd_univariate([u(), u()]).is_zero()


def test_gcd_is_monic():
    g = poly_gcd_univariate([u(0, 0, 4), u(0, 2)])
    assert univariate_coeffs(g)[-1] == 1


def test_rational_roots():
    # (t - 1)(t + 2)(2t - 3) = 2t^3 + t^2 - 7t + ... expand: roots 1, -2, 3/2
    p = u(-1, 1).mul(u(2, 1)).mul(u(-3, 2))
    roots = rational_roots(univariate_coeffs(p))
    assert set(roots) == {Fraction(1), Fraction(-2), Fraction(3, 2)}


def test_max_root_multiplicity():
    cube = u(0, 1).mul(u(0, 1)).mul(u(0, 1))
    assert max_root_multiplicity(univariate_coeffs(cube)) == 3
    squarefree = u(-1, 1).mul(u(1, 1))
    assert max_root_multiplicity(univariate_coeffs(squarefree)) == 1
    assert max_root_multiplicity([Fraction(5)]) == 0


def test_evaluate_and_substitute():
    # p = x0^2 x1 + 3
    p = MultiPoly(2, {(2, 1): Fraction(1), (0, 0): Fraction(3)})
    assert p.evaluate([Fraction(2), Fraction(5)]) == 23
    q = p.substitute_constants({0: Fraction(2)})
    assert q.evaluate([Fraction(0), Fraction(5)]) == 23


def test_partial_derivative():
    p = MultiPoly(2, {(2, 1): Fraction(1)})
    dp = reference_partial(p, 0)
    assert dp == MultiPoly(2, {(1, 1): Fraction(2)})


small_polys = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=0, max_size=4
)


@given(small_polys, small_polys)
def test_poly_ring_laws(a_coeffs, b_coeffs):
    a, b = u(*a_coeffs), u(*b_coeffs)
    assert a.add(b) == b.add(a)
    assert a.mul(b) == b.mul(a)
    assert a.sub(a).is_zero()


@given(small_polys, small_polys)
def test_gcd_divides_both(a_coeffs, b_coeffs):
    a, b = u(*a_coeffs), u(*b_coeffs)
    g = poly_gcd_univariate([a, b])
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
        return
    for p in (a, b):
        _, rem = reference_polydiv(univariate_coeffs(p), univariate_coeffs(g))
        assert rem == []


def product(*factors):
    out = u(1)
    for f in factors:
        out = out.mul(u(*f))
    return out


# products of small linear and irreducible quadratic factors, so that
# gcds, repeated and irrational roots all occur and the trial-division
# oracle stays fast
small_factor = st.one_of(
    st.tuples(st.integers(-3, 3), st.integers(1, 3)),
    st.sampled_from([(1, 0, 1), (-2, 0, 1), (1, 1, 1), (3, -1, 2)]),
)
small_factors = st.lists(small_factor, max_size=3)


@settings(max_examples=100, deadline=None)
@given(small_factors, small_factors, small_factors)
def test_gcd_matches_the_fraction_euclid(common, a_rest, b_rest):
    a, b = product(*common, *a_rest), product(*common, *b_rest)
    expected = reference_gcd_coeffs(univariate_coeffs(a), univariate_coeffs(b))
    assert univariate_coeffs(poly_gcd_univariate([a, b])) == expected


@settings(max_examples=100, deadline=None)
@given(small_factors, st.lists(small_factor, max_size=2))
def test_roots_and_multiplicities_match_the_references(once, twice):
    coeffs = univariate_coeffs(product(*once, *twice, *twice))
    assert rational_roots(coeffs) == reference_rational_roots(coeffs)
    assert distinct_root_count(coeffs) == reference_distinct_root_count(coeffs)
    assert max_root_multiplicity(coeffs) == reference_max_root_multiplicity(coeffs)


BIG = 10**17 + 3


@pytest.mark.parametrize(
    "factors,count,multiplicity",
    [
        ([(-BIG, 3), (1, 0, 1)], 3, 1),  # (3x - 10^17 - 3)(x^2 + 1)
        ([(-1, BIG)], 1, 1),
        ([(-BIG, 1), (-BIG, 1), (2, -BIG**2)], 2, 2),
        ([(0, 1), (BIG, -7), (-2, 0, 1), (-2, 0, 1)], 4, 2),
    ],
)
def test_large_coefficient_roots_verify_exactly(factors, count, multiplicity):
    f = product(*factors)
    coeffs = univariate_coeffs(f)
    roots = rational_roots(coeffs)
    linear = sorted(Fraction(-a, b) for a, b, *rest in factors if not rest)
    assert roots == sorted(set(linear))
    assert all(f.evaluate([r]) == 0 for r in roots)
    assert distinct_root_count(coeffs) == count
    assert max_root_multiplicity(coeffs) == multiplicity
