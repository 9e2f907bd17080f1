from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    mat_vec,
    matrix_rank,
    reference_kernel,
    reference_rank,
    reference_row_space,
    reference_rref,
    reference_solve,
)
from stabloci.linalg import (
    RANK_PRIME,
    RatMatrix,
    certified_rank,
    int_det,
    int_echelon,
    int_kernel,
    primitive_int_vec,
    row_space_basis,
    rref,
    rref_kernel,
    solve,
    vec,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def test_kernel_identity_is_trivial():
    assert rref_kernel(RatMatrix.from_entries(2, [(0, 0, 1), (1, 1, 1)])) == []


def test_kernel_zero_matrix_is_everything():
    kernel = rref_kernel(RatMatrix([[0] * 3] * 2))
    assert len(kernel) == 3
    assert matrix_rank(kernel) == 3


def test_kernel_rank_two_in_dim_three():
    m = RatMatrix([[1, 1, 0], [0, 0, 1]])
    kernel = rref_kernel(m)
    assert len(kernel) == 1
    v = kernel[0]
    assert v[0] == -v[1] and v[2] == 0 and v[0] != 0


def test_kernel_vectors_annihilated_exactly():
    m = RatMatrix([[2, 3, 5, 7], [1, 0, -1, 2], [3, 3, 4, 9]])
    for v in rref_kernel(m):
        assert all(x == 0 for x in mat_vec(m, v))


def _sparse(rows):
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


def test_int_kernel_matches_rref_kernel_span():
    rows = [[2, 3, 5, 7], [1, 0, -1, 2], [3, 3, 4, 9]]
    frac = rref_kernel(RatMatrix(rows))
    fast = int_kernel(_sparse(rows), 4)
    assert len(frac) == len(fast)
    assert matrix_rank(frac + fast) == len(frac)
    m = RatMatrix(rows)
    for v in fast:
        assert all(x == 0 for x in mat_vec(m, v))


def test_int_kernel_randomised_differential():
    import random

    rng = random.Random(77)
    for _ in range(40):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
        fast = int_kernel(_sparse(rows), ncols)
        slow = rref_kernel(RatMatrix(rows))
        assert len(fast) == len(slow)
        m = RatMatrix(rows)
        for v in fast:
            assert all(x == 0 for x in mat_vec(m, v))
        # same span: stacking changes no rank
        assert matrix_rank(fast + slow) == len(slow) or len(slow) == 0


@st.composite
def int_matrices(draw):
    """Integer matrices of 0-8 rows and 1-12 columns, entries up to 10^6,
    often with zero, duplicate or proportional rows."""
    ncols = draw(st.integers(1, 12))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(10**6), 10**6))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=8))
    while rows and len(rows) < 8 and draw(st.booleans()):
        source = draw(st.sampled_from(rows))
        factor = draw(st.sampled_from([0, 1, -1, 2, -7, 10**6]))
        rows.insert(draw(st.integers(0, len(rows))), [factor * x for x in source])
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(int_matrices())
@example(([], 5))
@example(([[0, 0, 0], [0, 0, 0]], 3))
@example(([[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]], 12))
@example(([[0, 2, 4, 0, 6], [0, 1, 2, 0, 3], [0, -3, -6, 0, -9]], 5))
@example(([[0, 3, 1], [2, 0, 0], [4, 6, 2], [0, 0, -5]], 3))  # full column rank: no kernel
def test_int_kernel_is_rref_kernel(matrix):
    """The sparse core gives rref_kernel's basis exactly, and its rank."""
    rows, ncols = matrix
    sparse = _sparse(rows)
    assert int_kernel(sparse, ncols) == rref_kernel(RatMatrix(rows or [[0] * ncols]))
    assert len(int_echelon(sparse)) == matrix_rank(rows)


@st.composite
def rank_cases(draw):
    """Small integer rows, tall, wide or rank-deficient (a product through
    a narrower inner dimension), with entries that often vanish mod 2 or 3,
    and the prime to take the rank at."""
    shape = draw(st.sampled_from(("tall", "wide", "deficient")))
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if shape == "tall":
        nrows += ncols
    elif shape == "wide":
        ncols += nrows
    entry = st.integers(-6, 6)

    def matrix(r, c):
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))

    if shape == "deficient":
        inner = draw(st.integers(0, min(nrows, ncols) - 1))
        left, right = matrix(nrows, inner), matrix(inner, ncols)
        rows = [[sum(a * right[k][j] for k, a in enumerate(r)) for j in range(ncols)] for r in left]
    else:
        rows = matrix(nrows, ncols)
    return rows, ncols, draw(st.sampled_from((2, 3, RANK_PRIME)))


@settings(max_examples=300, deadline=None)
@given(rank_cases())
@example(([[2, 4], [6, 0]], 2, 2))  # zero mod 2: the whole rank comes from the fallback
@example(([[1, 1], [1, -1]], 2, 2))  # rank 1 mod 2, rank 2 over the rationals
@example(([[3, 1, 0], [0, 1, 3]], 3, 3))  # full row rank mod 3 certifies a wide rank
@example(([[1], [2], [3]], 1, 2))  # full column rank mod 2 certifies a tall rank
def test_certified_rank_is_the_exact_rank(case):
    rows, ncols, p = case
    sparse = _sparse(rows)
    assert certified_rank(sparse, ncols, p=p) == matrix_rank(rows) == len(int_echelon(sparse))


@st.composite
def rational_systems(draw):
    """A rational matrix of 0-7 rows and 1-12 columns with mixed
    denominators, often with zero or proportional rows, and a right-hand
    side that is either in its column span or drawn at random."""
    ncols = draw(st.integers(1, 12))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.integers(-3, 3).map(Fraction),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
    )
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=7))
    while rows and len(rows) < 7 and draw(st.booleans()):
        source = draw(st.sampled_from(rows))
        factor = draw(st.sampled_from([Fraction(0), Fraction(-1), Fraction(3, 7), Fraction(-10**6, 11)]))
        rows.insert(draw(st.integers(0, len(rows))), [factor * x for x in source])
    if draw(st.booleans()):
        x = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        rhs = [sum((a * b for a, b in zip(r, x)), Fraction(0)) for r in rows]
    else:
        rhs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    return rows, ncols, rhs


@settings(max_examples=300, deadline=None)
@given(rational_systems())
@example(([], 4, []))
@example(([[Fraction(0)] * 3, [Fraction(0)] * 3], 3, [Fraction(0), Fraction(1)]))
@example(([[Fraction(1, k) for k in range(1, 13)]], 12, [Fraction(5, 6)]))
@example(([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]], 2, [Fraction(1), Fraction(3)]))
@example(([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]], 2, [Fraction(1), Fraction(2)]))
def test_elimination_matches_dense_gauss_jordan(system):
    """Every reader of the sparse core equals the dense Fraction reference;
    the integer readers take each row's primitive integer multiple."""
    rows, ncols, rhs = system
    sparse = _sparse(map(primitive_int_vec, rows))
    assert rref(rows) == reference_rref(rows)
    echelon = int_echelon(sparse)
    assert matrix_rank(rows) == len(echelon) == reference_rank(rows)
    # integer echelon rows, each keyed by its leading column, spanning the row space
    assert all(min(row) == lead and all(type(x) is int for x in row.values()) for lead, row in echelon.items())
    assert reference_row_space([[row.get(j, 0) for j in range(ncols)] for row in echelon.values()]) == reference_row_space(rows)
    assert row_space_basis(rows) == reference_row_space(rows)
    kernel = reference_kernel(rows, ncols)
    assert int_kernel(sparse, ncols) == kernel
    if rows:
        assert rref_kernel(RatMatrix(rows)) == kernel
        assert solve(RatMatrix(rows), rhs) == reference_solve(rows, rhs, ncols)


def test_solve_consistent_and_inconsistent():
    m = RatMatrix([[1, 1], [1, -1]])
    x = solve(m, vec([3, 1]))
    assert x == (Fraction(2), Fraction(1))
    m2 = RatMatrix([[1, 1], [2, 2]])
    assert solve(m2, vec([1, 3])) is None


def test_nilpotency_detection():
    assert RatMatrix([[0, 1], [0, 0]]).is_nilpotent()
    assert not RatMatrix([[0, 1], [1, 0]]).is_nilpotent()
    assert RatMatrix([[0] * 3] * 3).is_nilpotent()


@given(st.integers(0, 5).flatmap(lambda n: st.lists(st.lists(rationals | st.just(Fraction(0)), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_sparse_entry_view_round_trips(rows):
    m = RatMatrix(rows)
    entries = m.nonzero_entries()
    assert all(x != 0 and m.entries[i][j] == x for i, j, x in entries)
    assert len(entries) == sum(x != 0 for r in rows for x in r)
    assert RatMatrix.from_entries(m.rows, entries) == m


def test_row_space_basis_is_canonical():
    rows = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    basis = row_space_basis(rows)
    assert basis == [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]


@given(rationals, rationals, rationals)
def test_rational_arithmetic_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a


@given(st.lists(rationals, min_size=2, max_size=2), st.lists(rationals, min_size=2, max_size=2))
def test_matrix_vector_linearity(row, v):
    m = RatMatrix([row, [0, 0]])
    doubled = mat_vec(m, [2 * x for x in v])
    assert doubled == tuple(2 * y for y in mat_vec(m, v))


def _leibniz_det(m):
    total = 0
    for perm in permutations(range(len(m))):
        term = -1 if sum(perm[i] > perm[j] for i, j in combinations(range(len(m)), 2)) % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_int_det_matches_leibniz_expansion(m):
    # small entries make zero pivots and singular matrices common
    assert int_det(m) == _leibniz_det(m)


@given(st.lists(rationals, min_size=1, max_size=5))
def test_primitive_int_vec_is_a_positive_multiple(v):
    p = primitive_int_vec(v)
    assert all(isinstance(x, int) for x in p)
    if not any(v):
        assert p == (0,) * len(v)
        return
    assert gcd(*p) == 1
    t = next(Fraction(a) / b for a, b in zip(p, v) if b)
    assert t > 0 and tuple(t * x for x in v) == p
