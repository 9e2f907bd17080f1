"""Invariant-ring computations against counting oracles and hand checks."""

import random
from fractions import Fraction
from functools import cache, partial

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    matrix_rank,
    reference_bidegree_weight_zero,
    reference_block_diagonal,
    reference_derivation,
    reference_derivation_on_degree,
    reference_derivation_rows,
    reference_kernel,
    reference_monomials,
    reference_monomials_of_weight,
    reference_nonvanishing,
    reference_product_rank,
    reference_sym_lowering,
    reference_sym_raising,
    reference_weight_counting_dimension,
    reference_weight_zero,
)
from stabloci import invariants, linalg
from stabloci.actions import (
    ProjectivePoint,
    UnipotentData,
    jet_group_example,
    jordan_embed_ga,
)
from stabloci.errors import DegreeBoundExceeded, DimensionMismatch
from stabloci.invariants import (
    GradedInvariantSpace,
    _bidegree_weight_zero,
    _coordinate_weights_sym,
    _image_terms,
    _derivation_rows,
    _monomials_of_weight,
    generator_degree_report,
    invariant_nonvanishing_verdict,
    monomials_of_degree,
    points_at_infinity_classifier,
    product_sl2_invariants,
    restriction_to_slice,
    sl2_invariant_dimension,
    sl2_invariants_binary_form,
    sl2_weight_counting_dimension,
    unipotent_invariants,
)
from stabloci.linalg import RatMatrix, certified_rank, int_echelon, int_kernel, integer_entries
from stabloci.poly import MultiPoly
from stabloci.torus import Status, torus_verdict

CUBICS = jordan_embed_ga([3])


def point(*coords):
    return ProjectivePoint(coords)


def test_derivation_zero_matrix():
    for d in (0, 1, 3):
        op = reference_derivation_on_degree(RatMatrix([[0] * 3] * 3), d)
        assert op.is_zero()


def test_derivation_degree_one_is_linear_action():
    n = RatMatrix([[0, 1], [0, 0]])
    op = reference_derivation_on_degree(n, 1)
    monos = monomials_of_degree(2, 1)
    index = {m: i for i, m in enumerate(monos)}
    # x0 -> -x1, x1 -> 0 under the negative transpose convention
    assert op.entries[index[(0, 1)]][index[(1, 0)]] == Fraction(-1)
    assert op.entries[index[(1, 0)]][index[(0, 1)]] == 0
    assert op.entries[index[(0, 1)]][index[(0, 1)]] == 0
    assert op.entries[index[(1, 0)]][index[(1, 0)]] == 0


def test_derivation_degree_two_hand_leibniz():
    n = RatMatrix([[0, 1], [0, 0]])
    op = reference_derivation_on_degree(n, 2)
    monos = monomials_of_degree(2, 2)  # (0,2), (1,1), (2,0)
    index = {m: i for i, m in enumerate(monos)}
    # D(x0^2) = -2 x0 x1, D(x0 x1) = -x1^2, D(x1^2) = 0
    expected = [[Fraction(0)] * 3 for _ in range(3)]
    expected[index[(1, 1)]][index[(2, 0)]] = Fraction(-2)
    expected[index[(0, 2)]][index[(1, 1)]] = Fraction(-1)
    assert op == RatMatrix(expected)


_entry = st.one_of(
    st.just(Fraction(0)),
    st.integers(-4, 4).map(Fraction),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
)


@st.composite
def _matrix_and_poly(draw):
    """A square matrix (any entries, nilpotent or not) and a sparse polynomial."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_entry, min_size=n, max_size=n), min_size=n, max_size=n))
    exponent = st.tuples(*[st.integers(0, 3)] * n)
    terms = draw(st.dictionaries(exponent, _entry, max_size=6))
    return RatMatrix(rows), MultiPoly(n, terms)


@settings(max_examples=300, deadline=None)
@given(_matrix_and_poly())
def test_apply_derivation_matches_images_times_partials(case):
    n_matrix, p = case
    image = _image_terms(n_matrix.nonzero_entries(), p.terms)
    assert MultiPoly(p.num_vars, image) == reference_derivation(n_matrix, p)


_mixed_entry = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9])),
)


@st.composite
def _operators_and_span(draw):
    """One to three square matrices whose entries mix denominators and signs,
    diagonal entries included, and a span of distinct monomials of mixed
    degrees, possibly empty."""
    n = draw(st.integers(1, 4))
    matrix = st.lists(st.lists(_mixed_entry, min_size=n, max_size=n), min_size=n, max_size=n)
    if draw(st.booleans()):
        operators = draw(st.lists(matrix, min_size=1, max_size=3))
    else:
        # Diagonal operators: their kernels are spans of monomials x^e with
        # sum e_i k_i = 0, so the diagonal terms of a kernel monomial cancel.
        scale = st.builds(Fraction, st.sampled_from([-5, -1, 1, 3]), st.sampled_from([1, 2, 3, 4, 7]))
        diagonal = st.tuples(scale, st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        operators = [
            [[c * k if i == j else 0 for j in range(n)] for i, k in enumerate(ks)]
            for c, ks in draw(st.lists(diagonal, min_size=1, max_size=3))
        ]
    operators = [RatMatrix(rows) for rows in operators]
    exponent = st.tuples(*[st.integers(0, 3)] * n)
    monos = draw(st.lists(exponent, max_size=12, unique=True))
    return operators, monos


@settings(max_examples=300, deadline=None)
@given(_operators_and_span())
@example(  # the diagonal terms of x0 x1 cancel, so x0 x1 is in the kernel
    (
        [
            RatMatrix([[Fraction(1, 2), 0], [0, Fraction(-1, 2)]]),
            RatMatrix([[Fraction(-2, 3), 0], [0, Fraction(2, 3)]]),
        ],
        [(1, 1), (2, 0), (0, 2), (0, 0)],
    )
)
def test_kernel_on_monomials_matches_reference_kernel(case):
    """The integer rows give the kernel that the Fraction images do."""
    operators, monos = case
    rows = reference_derivation_rows(operators, monos)
    scaled = [integer_entries(op)[1] for op in operators]
    assert int_kernel(_derivation_rows(scaled, monos), len(monos)) == reference_kernel(rows, len(monos))


@st.composite
def _graded_generators(draw):
    """Coordinate grading weights d_0..d_{n-1} and one to three generators,
    each with a positive adjoint weight w and entries, mixed in sign and
    denominator, only where d_i - d_j = w; such generators are nilpotent
    and shift the function weight of every monomial by w."""
    n = draw(st.integers(1, 4))
    grading = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    generators, weights = [], []
    for _ in range(draw(st.integers(1, 3))):
        w = draw(st.integers(1, 4))
        entries = [(i, j, draw(_mixed_entry)) for i in range(n) for j in range(n) if grading[i] - grading[j] == w]
        generators.append(RatMatrix.from_entries(n, entries))
        weights.append(w)
    return UnipotentData(generators=tuple(generators), grading_weights=tuple(weights)), tuple(grading)


@settings(max_examples=150, deadline=None)
@given(_graded_generators(), st.integers(0, 4), st.booleans())
def test_unipotent_invariants_match_blockwise_reference_kernel(case, degree, graded):
    """The block builder gives, vector for vector and tag for tag, the
    reference kernel of each grading block in increasing function weight,
    or of all monomials at once without a grading."""
    u, grading = case
    blocks: dict[int, list] = {}
    for m in reference_monomials(len(grading), degree):
        blocks.setdefault(-sum(e * g for e, g in zip(m, grading)) if graded else 0, []).append(m)
    basis, weights = [], []
    for w in sorted(blocks):
        rows = reference_derivation_rows(u.generators, blocks[w])
        for v in reference_kernel(rows, len(blocks[w])):
            basis.append(MultiPoly(len(grading), dict(zip(blocks[w], v))))
            weights.append(Fraction(-w))
    space = unipotent_invariants(u, degree, gm_weights=grading if graded else None)
    assert space.basis == tuple(basis)
    assert space.gm_weights == (tuple(weights) if graded else None)


def test_unipotent_invariants_degree_zero_is_constants():
    space = unipotent_invariants(CUBICS.unipotent, 0)
    assert space.dim == 1 and space.basis[0].is_constant()


def test_unipotent_invariants_standard_rep():
    action = jordan_embed_ga([1])
    space = unipotent_invariants(action.unipotent, 1)
    assert space.dim == 1
    # the invariant coordinate is the one killed by the derivation
    assert reference_derivation(action.unipotent.generators[0], space.basis[0]).is_zero()


def test_unipotent_invariants_cubics_degree_one():
    space = unipotent_invariants(CUBICS.unipotent, 1, gm_weights=CUBICS.grading.gm_weights)
    assert space.dim == 1
    assert space.basis[0] == MultiPoly(4, {(0, 0, 0, 1): Fraction(1)})
    # the tag is the pairing with the grading weights: the bottom weight
    assert space.gm_weights == (Fraction(-3),)


def test_unipotent_invariants_cubics_dimension_table():
    dims = [
        unipotent_invariants(CUBICS.unipotent, d).dim for d in range(1, 5)
    ]
    assert dims == [1, 2, 3, 5]
    report = generator_degree_report(
        [unipotent_invariants(CUBICS.unipotent, d) for d in range(1, 5)]
    )
    assert [(r.degree, r.new_generators) for r in report] == [(1, 1), (2, 1), (3, 1), (4, 1)]


def test_generator_counts_stabilise_as_finite_generation_witness():
    # four generators (degrees 1..4), none after; the degree-6 count
    # also witnesses the single relation among them
    spaces = [unipotent_invariants(CUBICS.unipotent, d) for d in range(1, 9)]
    report = generator_degree_report(spaces)
    assert [r.new_generators for r in report] == [1, 1, 1, 1, 0, 0, 0, 0]
    by_degree = {r.degree: r for r in report}
    assert by_degree[6].from_products == 9 - 1  # one relation in degree 6
    assert by_degree[6].dim == 8


@pytest.mark.parametrize("action", [jordan_embed_ga([3]), jet_group_example(3)], ids=["jordan_3", "jet_3"])
def test_generator_report_matches_row_space_basis(action):
    gm = action.grading.gm_weights
    spaces = [unipotent_invariants(action.unipotent, d, gm_weights=gm) for d in range(1, 9)]
    for row in generator_degree_report(spaces):
        expected = reference_product_rank(spaces, row.degree)
        assert row.from_products == expected
        assert row.new_generators == row.dim - expected


_coefficient = st.builds(
    Fraction, st.integers(-6, 6).filter(bool), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9])
)


@st.composite
def _graded_spaces(draw):
    """Spaces of degrees 1-4 in 1-3 variables whose bases are drawn
    homogeneous polynomials with mixed denominators and signs, often with
    repeated or proportional elements; they need not be invariants."""
    num_vars = draw(st.integers(1, 3))
    spaces = []
    for d in range(1, 5):
        monos = reference_monomials(num_vars, d)
        poly = st.dictionaries(st.sampled_from(monos), _coefficient, min_size=1, max_size=4)
        basis = [MultiPoly(num_vars, terms) for terms in draw(st.lists(poly, max_size=3))]
        if basis and draw(st.booleans()):
            c = draw(_coefficient)
            basis.append(MultiPoly(num_vars, {e: c * v for e, v in basis[0].terms.items()}))
        spaces.append(GradedInvariantSpace(degree=d, basis=tuple(basis)))
    return spaces


def _space(degree, *polys):
    return GradedInvariantSpace(degree=degree, basis=tuple(MultiPoly(2, terms) for terms in polys))


@settings(max_examples=200, deadline=None)
@given(_graded_spaces())
@example(  # x0 x1^2 cancels in the first product, so its row must drop the entry
    [
        _space(1, {(0, 1): Fraction(-1), (1, 0): Fraction(-1)}),
        _space(2, {(1, 1): Fraction(-1), (0, 2): Fraction(1)}, {(1, 1): Fraction(1), (0, 2): Fraction(-1)}),
        _space(3, {(1, 2): Fraction(-1)}),
    ]
)
def test_integer_product_rank_is_fraction_product_rank(spaces):
    """Ranks of the integer products equal those of the Fraction products."""
    for row in generator_degree_report(spaces):
        assert row.from_products == (reference_product_rank(spaces, row.degree) if row.dim else 0)


_coordinate = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(3)])


@st.composite
def _spaces_and_point(draw):
    """Drawn spaces and a point in their variables, zero coordinates included."""
    spaces = draw(_graded_spaces())
    num_vars = next((s.basis[0].num_vars for s in spaces if s.basis), 2)
    return spaces, draw(st.lists(_coordinate, min_size=num_vars, max_size=num_vars).filter(any))


@settings(max_examples=300, deadline=None)
@given(_spaces_and_point())
@example(  # x0 - 2 x1 and x0^2 - 4 x1^2 vanish at (1, 1/2) but not at its numerators
    (
        [
            _space(1, {(1, 0): Fraction(1, 3), (0, 1): Fraction(-2, 3)}),
            _space(2, {(2, 0): Fraction(1, 2), (0, 2): Fraction(-2)}),
            _space(3, {(1, 2): Fraction(3, 7)}),
        ],
        [Fraction(1), Fraction(1, 2)],
    )
)
def test_integer_nonvanishing_is_fraction_evaluation(case):
    """The integer evaluation finds the witness that Fraction evaluation does."""
    spaces, coords = case
    report = invariant_nonvanishing_verdict(spaces, ProjectivePoint(coords))
    assert (report.found, report.witness_degree, report.bound) == reference_nonvanishing(spaces, coords)


def test_nonvanishing_rejects_a_point_of_the_wrong_length():
    spaces = [unipotent_invariants(CUBICS.unipotent, d) for d in range(1, 3)]
    for coords in ((1, 2, 3), (1, 2, 3, 5, 0), (0, 0, 0, 0, 1)):
        with pytest.raises(ValueError):
            invariant_nonvanishing_verdict(spaces, point(*coords))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(0, 10))
@example(10, 10)
@example(7, 7)  # odd weight total: no weight-zero monomial
def test_weight_zero_listing_matches_filter(n, d):
    weights = _coordinate_weights_sym(n)
    assert _monomials_of_weight(weights, d, 0) == reference_weight_zero(reference_monomials(n + 1, d), weights)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 6), st.integers(0, 6))
@example(3, 0, 0)
@example(5, 6, 1)
def test_bidegree_weight_zero_listing_matches_filter(n, a, b):
    assert _bidegree_weight_zero(n, a, b) == reference_bidegree_weight_zero(n, a, b)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=5), st.integers(0, 6), st.integers(-8, 8))
@example([3, 0, 1], 4, 5)  # tails that are no arithmetic progression
def test_weight_listing_matches_filter_for_any_weights(weights, degree, target):
    assert _monomials_of_weight(weights, degree, target) == reference_monomials_of_weight(weights, degree, target)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(0, 10))
@example(10, 10)
def test_weight_counting_dp_matches_enumeration(n, d):
    assert sl2_weight_counting_dimension(n, d) == reference_weight_counting_dimension(n, d)


def test_invariants_annihilated_and_weight_tagged():
    gm = CUBICS.grading.gm_weights
    generator = CUBICS.unipotent.generators[0]
    for d in range(1, 5):
        space = unipotent_invariants(CUBICS.unipotent, d, gm_weights=gm)
        for p, w in zip(space.basis, space.gm_weights):
            assert reference_derivation(generator, p).is_zero()
            for exp in p.terms:
                assert sum(e * g for e, g in zip(exp, gm)) == w


def test_joint_kernel_shrinks_with_more_constraints():
    one = jordan_embed_ga([1, 1]).unipotent
    extra = RatMatrix([[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    more = UnipotentData(generators=one.generators + (extra,), grading_weights=(2, 2))
    for d in (1, 2, 3):
        assert unipotent_invariants(more, d).dim <= unipotent_invariants(one, d).dim


def test_sl2_binary_quartic_dimensions():
    dims = [sl2_invariants_binary_form(4, d).dim for d in range(1, 5)]
    assert dims == [0, 1, 1, 1]


def test_sl2_cubic_discriminant_degree():
    assert [sl2_invariants_binary_form(3, d).dim for d in range(1, 5)] == [0, 0, 0, 1]


def test_sl2_linear_form_has_no_invariants():
    assert all(sl2_invariants_binary_form(1, d).dim == 0 for d in range(1, 7))


def test_sl2_dimensions_match_weight_counting_oracle():
    for n in range(1, 5):
        for d in range(1, 7):
            assert (
                sl2_invariants_binary_form(n, d).dim
                == sl2_weight_counting_dimension(n, d)
            ), (n, d)


SMALL_SL2 = [(n, d) for n in range(1, 7) for d in range(0, 8)]


@cache
def _reference_sl2_nullity(n, d):
    """Nullity of the dense raising rows on the weight-zero monomials, with
    the columns reversed as on the rank path, which also keeps the dense
    elimination's fractions small."""
    monos = reference_monomials_of_weight([n - 2 * j for j in range(n + 1)], d, 0)
    rows = reference_derivation_rows((reference_sym_raising(n),), monos)
    return len(reference_kernel([r[::-1] for r in rows], len(monos)))


def test_sl2_rank_path_is_the_kernel_dimension():
    """The CLI's certified rank gives the basis path's dimension."""
    for n, d in SMALL_SL2:
        expected = _reference_sl2_nullity(n, d)
        assert sl2_invariant_dimension(n, d) == sl2_invariants_binary_form(n, d).dim == expected, (n, d)


@pytest.mark.parametrize("p", [2, 3])
def test_sl2_rank_path_is_exact_at_small_primes(p, monkeypatch):
    """At a prime that loses rank the exact fallback still gives the
    dimension; some tables in range do lose rank, so it is exercised."""
    fallbacks = []

    def counted_echelon(rows):
        fallbacks.append(len(rows))
        return int_echelon(rows)

    monkeypatch.setattr(linalg, "int_echelon", counted_echelon)
    monkeypatch.setattr(invariants, "certified_rank", partial(certified_rank, p=p))
    for n, d in SMALL_SL2:
        assert sl2_invariant_dimension(n, d) == _reference_sl2_nullity(n, d), (n, d)
    assert fallbacks


def test_degree_bounds_raised():
    with pytest.raises(DegreeBoundExceeded):
        sl2_invariants_binary_form(3, 13)
    with pytest.raises(DegreeBoundExceeded):
        unipotent_invariants(CUBICS.unipotent, 13)
    with pytest.raises(DegreeBoundExceeded):
        product_sl2_invariants(3, 15, 2)


def test_product_pure_form_bidegree_equals_plain_invariants():
    for d in (2, 3, 4):
        pure = product_sl2_invariants(3, 0, d)
        plain = sl2_invariants_binary_form(3, d)
        assert pure.dim == plain.dim
        restricted = restriction_to_slice(pure, 3)
        assert restricted.dim == pure.dim


def test_product_evaluation_pairing_exists():
    space = product_sl2_invariants(3, 3, 1)
    assert space.dim >= 1


def _product_operators(n):
    """Dense raising and lowering on z0, z1, z2, w0..wn: the defining
    representation, a trivial line, and the binary n-forms."""
    line = RatMatrix([[0]])
    raising = reference_block_diagonal([reference_sym_raising(1), line, reference_sym_raising(n)])
    lowering = reference_block_diagonal([reference_sym_lowering(1), line, reference_sym_lowering(n)])
    return raising, lowering


def test_product_invariants_killed_by_both_derivations():
    raising, lowering = _product_operators(3)
    for (a, b) in [(2, 2), (3, 1), (6, 2)]:
        space = product_sl2_invariants(3, a, b)
        for p in space.basis:
            assert reference_derivation(raising, p).is_zero()
            assert reference_derivation(lowering, p).is_zero()


@pytest.mark.parametrize("n,a,b", [(1, 2, 2), (2, 2, 1), (2, 3, 3), (3, 3, 1), (3, 2, 2), (3, 6, 2), (4, 4, 2), (4, 2, 3)])
def test_product_basis_is_the_joint_raising_lowering_kernel(n, a, b):
    """The product basis equals the dense joint kernel, vector for vector."""
    monos = reference_bidegree_weight_zero(n, a, b)
    rows = []
    for op in _product_operators(n):
        images = [reference_derivation(op, MultiPoly(n + 4, {m: 1})) for m in monos]
        for exp in sorted({e for image in images for e in image.terms}):
            rows.append([image.terms.get(exp, Fraction(0)) for image in images])
    expected = tuple(MultiPoly(n + 4, dict(zip(monos, v))) for v in reference_kernel(rows, len(monos)))
    assert expected
    assert product_sl2_invariants(n, a, b).basis == expected


def test_restriction_lands_in_additive_group_invariants():
    generator = CUBICS.unipotent.generators[0]
    for (a, b) in [(3, 1), (2, 2), (6, 2), (3, 3)]:
        restricted = restriction_to_slice(product_sl2_invariants(3, a, b), 3)
        monos = monomials_of_degree(4, b)
        index = {m: i for i, m in enumerate(monos)}
        kernel_space = unipotent_invariants(CUBICS.unipotent, b)
        rows = []
        for p in restricted.basis:
            assert reference_derivation(generator, p).is_zero()
            row = [Fraction(0)] * len(monos)
            for exp, c in p.terms.items():
                row[index[exp]] = c
            rows.append(row)
        for q in kernel_space.basis:
            row = [Fraction(0)] * len(monos)
            for exp, c in q.terms.items():
                row[index[exp]] = c
            rows.append(row)
        # restricted span is inside the kernel span: adding it changes no rank
        assert matrix_rank(rows) == kernel_space.dim


def test_restriction_spans_cubic_invariants():
    # the slice restrictions exhaust the additive-group invariants
    for d in (1, 2):
        target = unipotent_invariants(CUBICS.unipotent, d).dim
        monos = monomials_of_degree(4, d)
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for a in range(0, 3 * d + 1):
            restricted = restriction_to_slice(product_sl2_invariants(3, a, d), 3)
            for p in restricted.basis:
                row = [Fraction(0)] * len(monos)
                for exp, c in p.terms.items():
                    row[index[exp]] = c
                rows.append(row)
        assert matrix_rank(rows) == target


def test_nonvanishing_verdict_examples():
    spaces = [unipotent_invariants(CUBICS.unipotent, d) for d in range(1, 5)]
    generic = point(1, 2, 3, 5)
    report = invariant_nonvanishing_verdict(spaces, generic)
    assert report.found and report.witness_degree == 1
    # double point at the fixed coordinate: every low invariant vanishes
    double_inf = point(1, 1, 0, 0)
    report2 = invariant_nonvanishing_verdict(spaces, double_inf)
    assert not report2.found and report2.bound == 4


def test_nonvanishing_consistent_with_borderline_torus_verdict():
    # a nonvanishing invariant of one grading weight certifies that the
    # matching twist does not make the point unstable
    gm = CUBICS.grading.gm_weights
    spaces = [unipotent_invariants(CUBICS.unipotent, d, gm_weights=gm) for d in range(1, 5)]
    rng = random.Random(31)
    for _ in range(30):
        coords = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
        if all(c == 0 for c in coords):
            continue
        x = ProjectivePoint(coords)
        for space in spaces:
            for p, w in zip(space.basis, space.gm_weights):
                if p.evaluate(x.coords) != 0:
                    chi = Fraction(w, space.degree)
                    verdict = torus_verdict(CUBICS.torus, (chi,), x)
                    assert verdict.status != Status.UNSTABLE


def test_sl2_basis_is_the_joint_raising_lowering_kernel():
    """The weight-0 raising kernel equals the joint kernel, vector for vector."""
    for n in range(1, 6):
        for d in range(0, 6):
            monos = reference_monomials_of_weight([n - 2 * j for j in range(n + 1)], d, 0)
            rows = reference_derivation_rows((reference_sym_raising(n), reference_sym_lowering(n)), monos)
            expected = tuple(MultiPoly(n + 1, dict(zip(monos, v))) for v in reference_kernel(rows, len(monos)))
            assert sl2_invariants_binary_form(n, d).basis == expected, (n, d)


def test_sl2_quartic_triple_root_all_invariants_vanish():
    spaces = [sl2_invariants_binary_form(4, d) for d in range(1, 5)]
    # s t^3 has a triple root at the free coordinate point
    triple = ProjectivePoint((0, 0, 0, 1, 0))
    report = invariant_nonvanishing_verdict(spaces, triple)
    assert not report.found
    # consistent with the torus verdict: support {3} has weight -2
    quartic_torus = jordan_embed_ga([4]).torus
    from stabloci.linalg import zero_vec

    assert torus_verdict(quartic_torus, zero_vec(1), triple).status == Status.UNSTABLE


def test_points_at_infinity_examples():
    # distinct roots, none at the fixed point
    assert points_at_infinity_classifier(3, point(0, -1, 0, 1)) == \
        points_at_infinity_classifier(3, point(0, -1, 0, 1))
    report = points_at_infinity_classifier(3, point(0, -1, 0, 1))
    assert report.multiplicity_at_infinity == 0 and report.max_multiplicity == 1
    # divisible by the square of the fixed coordinate
    report2 = points_at_infinity_classifier(3, point(1, 1, 0, 0))
    assert report2.multiplicity_at_infinity >= 2 and report2.max_multiplicity >= 2
    # a triple finite root: perfect cube detection
    report3 = points_at_infinity_classifier(3, point(1, 3, 3, 1))
    assert report3.multiplicity_at_infinity == 0 and report3.max_multiplicity == 3


def test_points_at_infinity_errors():
    with pytest.raises(DimensionMismatch):
        points_at_infinity_classifier(3, point(1, 0))
