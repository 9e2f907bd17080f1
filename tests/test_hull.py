import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    certify_closest_point,
    oracle_hull_position,
    oracle_in_hull,
    reference_closest_point,
    reference_closest_points_by_subset,
    reference_rank,
    reference_solve,
    vec_sub,
)
from stabloci.hull import (
    HullPosition,
    _project_origin,
    closest_point_to_origin,
    closest_points_by_subset,
    hull_origin_position,
    origin_in_hull,
)
from stabloci.linalg import dot, norm_sq, vec, zero_vec


def pts(*rows):
    return [vec(r) for r in rows]


def test_position_examples():
    assert hull_origin_position(pts([-1], [2])) == HullPosition.INTERIOR
    assert hull_origin_position(pts([1], [2])) == HullPosition.OUTSIDE
    assert hull_origin_position(pts([0, 1], [0, -1])) == HullPosition.BOUNDARY


def test_position_more_shapes():
    # full triangle around the origin
    assert hull_origin_position(pts([2, 0], [-1, 1], [-1, -1])) == HullPosition.INTERIOR
    # origin is a vertex
    assert hull_origin_position(pts([0, 0], [1, 0], [0, 1])) == HullPosition.BOUNDARY
    # origin on an edge of a full-dimensional hull
    assert hull_origin_position(pts([-1, 0], [1, 0], [0, 1])) == HullPosition.BOUNDARY
    # 3d simplex containing the origin strictly
    assert (
        hull_origin_position(pts([3, 0, 0], [0, 3, 0], [0, 0, 3], [-1, -1, -1]))
        == HullPosition.INTERIOR
    )


def test_closest_point_examples():
    assert closest_point_to_origin(pts([1], [3])) == (Fraction(1),)
    assert closest_point_to_origin(pts([-1], [1])) == (Fraction(0),)


def test_closest_points_by_subset_examples():
    table = closest_points_by_subset([(2, 0), (0, 2), (-1, -1), (1, 1)])
    assert table[0b0001] == ((2, 0), 1)
    assert table[0b0011] == ((1, 1), 1)  # an edge's interior point
    assert table[0b1011] == ((1, 1), 1)  # kept when [1, 1] joins
    assert table[0b0111] == ((0, 0), 1)
    assert table[0b1100] == ((0, 0), 1)
    assert len(table) == 15
    # the foot of the perpendicular on x + 2y = 2 is (2/5, 4/5)
    assert closest_points_by_subset([(2, 0), (0, 1)])[0b11] == ((2, 4), 5)
    with pytest.raises(ValueError):
        closest_points_by_subset([(1, 0), (1, 0)])


def test_closest_point_segment_by_grid_refinement_oracle():
    points = pts([2, 0], [0, 2])
    computed = closest_point_to_origin(points)
    # brute-force refinement along the segment (1-t)*a + t*b
    best = None
    for k in range(0, 257):
        t = Fraction(k, 256)
        cand = tuple((1 - t) * a + t * b for a, b in zip(points[0], points[1]))
        if best is None or norm_sq(cand) < norm_sq(best):
            best = cand
    assert computed == best == (Fraction(1), Fraction(1))


def test_closest_point_variational_inequality_randomised():
    rng = random.Random(99)
    for _ in range(120):
        rank = rng.randint(1, 3)
        count = rng.randint(1, 6)
        points = [
            vec([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rank)])
            for _ in range(count)
        ]
        p = closest_point_to_origin(points)
        for q in points:
            assert dot(p, vec_sub(q, p)) >= 0
        assert certify_closest_point(points, p)


def test_position_agrees_with_oracle_randomised():
    rng = random.Random(5)
    for _ in range(200):
        rank = rng.randint(1, 3)
        count = rng.randint(1, 6)
        points = [
            vec([Fraction(rng.randint(-3, 3)) for _ in range(rank)]) for _ in range(count)
        ]
        assert hull_origin_position(points) == oracle_hull_position(points)


def test_membership_consistent_with_closest_point():
    rng = random.Random(17)
    for _ in range(100):
        rank = rng.randint(1, 2)
        count = rng.randint(1, 5)
        points = [
            vec([Fraction(rng.randint(-3, 3)) for _ in range(rank)]) for _ in range(count)
        ]
        inside = hull_origin_position(points) != HullPosition.OUTSIDE
        assert inside == (norm_sq(closest_point_to_origin(points)) == 0)


@st.composite
def _point_sets(draw):
    """Points of a random subspace of rank 0..dim in R^dim, dim 1..4, drawn
    with repeats from a small pool that may hold the zero point."""
    dim = draw(st.integers(1, 4))
    rank = draw(st.integers(0, dim))
    small = st.integers(-2, 2)
    basis = [vec(draw(st.tuples(*[small] * dim))) for _ in range(rank)]
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    pool = [
        tuple(sum((c * b[i] for c, b in zip(cs, basis)), Fraction(0)) for i in range(dim))
        for cs in draw(st.lists(st.tuples(*[coeff] * rank), min_size=max(rank, 1), max_size=rank + 3))
    ]
    if draw(st.booleans()):
        pool.append(zero_vec(dim))
    repeats = draw(st.lists(st.sampled_from(pool), max_size=2))
    return draw(st.permutations(pool + repeats))


@settings(max_examples=100, deadline=None)
@given(_point_sets())
def test_membership_matches_caratheodory_oracle(points):
    assert origin_in_hull(points) == oracle_in_hull(points)


@settings(max_examples=400, deadline=None)
@given(_point_sets())
def test_position_matches_facet_oracle_at_every_rank(points):
    assert hull_origin_position(points) == oracle_hull_position(points)


@settings(max_examples=200, deadline=None)
@given(_point_sets(), st.data())
def test_closest_point_matches_fraction_reference(points, data):
    """Each point divided by its own denominator 1, 2, 3 or 5, so the
    integer scaling meets mixed denominators."""
    denominators = data.draw(st.lists(st.sampled_from([1, 2, 3, 5]), min_size=len(points), max_size=len(points)))
    points = [tuple(x / d for x in p) for p, d in zip(points, denominators)]
    assert closest_point_to_origin(points) == reference_closest_point(points)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        hull_origin_position([])


@st.composite
def _wide_point_sets(draw):
    """Points of a random subspace of rank 0..dim (half of the time dim) in
    R^dim, dim 1..6.  Each point is a small combination of a small basis,
    so the origin lands on faces, times a positive scale with numerator up
    to 10^6 and denominator up to 10^4.  A point opposite the sum of the
    others may join, which puts the origin in the relative interior; a
    point may come back doubled, and the zero point may join."""
    dim = draw(st.integers(1, 6))
    rank = dim if draw(st.booleans()) else draw(st.integers(0, dim - 1))
    small = st.integers(-3, 3)
    basis = [draw(st.tuples(*[small] * dim)) for _ in range(rank)]
    coeff = st.integers(-2, 2)
    scale = st.fractions(min_value=Fraction(1, 10**4), max_value=10**6, max_denominator=10**4)

    def scaled(v):
        s = draw(scale)
        return tuple(s * x for x in v)

    pool = [
        scaled([sum(c * b[i] for c, b in zip(cs, basis)) for i in range(dim)])
        for cs in draw(st.lists(st.tuples(*[coeff] * rank), min_size=max(rank, 1), max_size=rank + 1))
    ]
    if draw(st.booleans()):
        pool.append(scaled([-sum(x) for x in zip(*pool)]))
    doubled = [tuple(2 * x for x in p) for p in draw(st.lists(st.sampled_from(pool), max_size=1))]
    if draw(st.booleans()):
        pool.append(zero_vec(dim))
    return draw(st.permutations(pool + doubled))


@settings(max_examples=200, deadline=None)
@given(_wide_point_sets())
def test_position_matches_facet_oracle_up_to_dimension_six(points):
    assert hull_origin_position(points) == oracle_hull_position(points)


_small_int = st.integers(-4, 4)


@st.composite
def _distinct_int_points(draw):
    """Up to 8 distinct integer points of rank 1-3."""
    dim = draw(st.integers(1, 3))
    return draw(st.lists(st.tuples(*[_small_int] * dim), min_size=1, max_size=8, unique=True))


@settings(max_examples=150, deadline=None)
@given(_distinct_int_points())
def test_integer_table_matches_fraction_reference_table(points):
    table = closest_points_by_subset(points)
    reference = reference_closest_points_by_subset([vec(p) for p in points])
    assert sorted(table) == sorted(reference) == list(range(1, 2 ** len(points)))
    for mask, (v, q) in table.items():
        assert q > 0 and gcd(q, *v) == 1
        beta, nsq = reference[mask]
        assert tuple(Fraction(x, q) for x in v) == beta
        assert Fraction(sum(x * x for x in v), q * q) == nsq


@st.composite
def _independent_int_subsets(draw):
    """1..dim+1 affinely independent integer points in Z^dim, dim 1-3."""
    dim = draw(st.integers(1, 3))
    size = draw(st.integers(1, dim + 1))
    subset = draw(st.lists(st.tuples(*[_small_int] * dim), min_size=size, max_size=size, unique=True))
    diffs = [vec_sub(p, subset[0]) for p in subset[1:]]
    if diffs and reference_rank(diffs) < len(diffs):
        subset = subset[:1]
    return subset


@settings(max_examples=300, deadline=None)
@given(_independent_int_subsets())
def test_cramer_projection_matches_reference_solve(subset):
    """v / q against the normal equations solved by dense Gauss-Jordan."""
    t0 = vec(subset[0])
    diffs = [vec_sub(vec(p), t0) for p in subset[1:]]
    gram = [[dot(a, b) for b in diffs] for a in diffs]
    mu = reference_solve(gram, [-dot(d, t0) for d in diffs], len(diffs)) if diffs else ()
    inside = all(m >= 0 for m in mu) and sum(mu) <= 1
    entry = _project_origin(subset)
    if not inside:
        assert entry is None
        return
    foot = tuple(x + sum(m * d[i] for m, d in zip(mu, diffs)) for i, x in enumerate(t0))
    v, q = entry
    assert q > 0 and gcd(q, *v) == 1
    assert tuple(Fraction(x, q) for x in v) == foot


def test_cramer_projection_rejects_dependent_points():
    assert _project_origin([(1, 0), (2, 0), (3, 0)]) is None
    assert _project_origin([(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 3, 0)]) is None
    for subset in combinations([(1, 2), (2, 4), (3, 6)], 2):
        assert _project_origin(subset) is None  # the foot 0 lies outside the segment
