from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from oracles import reference_partial
from stabloci.poly import (
    MultiPoly,
    from_univariate_coeffs,
    max_root_multiplicity,
    poly_gcd_univariate,
    rational_roots,
    univariate_coeffs,
)


def u(*coeffs):
    return from_univariate_coeffs([Fraction(c) for c in coeffs])


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
    a = from_univariate_coeffs(a_coeffs)
    b = from_univariate_coeffs(b_coeffs)
    assert a.add(b) == b.add(a)
    assert a.mul(b) == b.mul(a)
    assert a.sub(a).is_zero()


@given(small_polys, small_polys)
def test_gcd_divides_both(a_coeffs, b_coeffs):
    a = from_univariate_coeffs(a_coeffs)
    b = from_univariate_coeffs(b_coeffs)
    g = poly_gcd_univariate([a, b])
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
        return
    for p in (a, b):
        num = univariate_coeffs(p)
        den = univariate_coeffs(g)
        from stabloci.poly import _polydiv

        _, rem = _polydiv(num, den)
        assert rem == []
