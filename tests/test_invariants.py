"""Invariant-ring computations against counting oracles and hand checks."""

import random
from fractions import Fraction

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_derivation, reference_kernel, reference_rank
from stabloci.actions import (
    ProjectivePoint,
    UnipotentData,
    jet_group_example,
    jordan_embed_ga,
    sym_power_raising,
)
from stabloci.errors import DegreeBoundExceeded, DimensionMismatch
from stabloci.invariants import (
    _kernel_on_monomials,
    apply_derivation,
    derivation_on_degree,
    generator_degree_report,
    invariant_nonvanishing_verdict,
    monomials_of_degree,
    points_at_infinity_classifier,
    product_sl2_invariants,
    restriction_to_slice,
    sl2_invariants_binary_form,
    sl2_weight_counting_dimension,
    unipotent_invariants,
)
from stabloci.linalg import RatMatrix, matrix_rank
from stabloci.poly import MultiPoly
from stabloci.torus import Status, torus_verdict

CUBICS = jordan_embed_ga([3])


def point(*coords):
    return ProjectivePoint(coords)


def test_derivation_zero_matrix():
    for d in (0, 1, 3):
        op = derivation_on_degree(RatMatrix.zero(3, 3), d)
        assert op.is_zero()


def test_derivation_degree_one_is_linear_action():
    n = RatMatrix([[0, 1], [0, 0]])
    op = derivation_on_degree(n, 1)
    monos = monomials_of_degree(2, 1)
    index = {m: i for i, m in enumerate(monos)}
    # x0 -> -x1, x1 -> 0 under the negative transpose convention
    assert op.entry(index[(0, 1)], index[(1, 0)]) == Fraction(-1)
    assert op.entry(index[(1, 0)], index[(0, 1)]) == 0
    assert op.entry(index[(0, 1)], index[(0, 1)]) == 0
    assert op.entry(index[(1, 0)], index[(1, 0)]) == 0


def test_derivation_degree_two_hand_leibniz():
    n = RatMatrix([[0, 1], [0, 0]])
    op = derivation_on_degree(n, 2)
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
    assert apply_derivation(n_matrix, p) == reference_derivation(n_matrix, p)


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
    n = operators[0].rows
    rows = []
    for op in operators:
        images = [reference_derivation(op, MultiPoly.monomial(n, m)) for m in monos]
        for exp in sorted({e for image in images for e in image.terms}):
            rows.append([image.terms.get(exp, Fraction(0)) for image in images])
    assert _kernel_on_monomials(operators, monos) == reference_kernel(rows, len(monos))


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


def _product_ranks_by_rref(spaces):
    """Product-span dimension per degree, by the dense Gauss-Jordan reference."""
    by_degree = {s.degree: s for s in spaces}
    ranks = {}
    for d, space in by_degree.items():
        monos = monomials_of_degree(space.basis[0].num_vars, d)
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for d1 in range(1, d // 2 + 1):
            for p in by_degree[d1].basis:
                for q in by_degree[d - d1].basis:
                    row = [Fraction(0)] * len(monos)
                    for exp, c in p.mul(q).terms.items():
                        row[index[exp]] = c
                    rows.append(row)
        ranks[d] = reference_rank(rows)
    return ranks


@pytest.mark.parametrize("action", [jordan_embed_ga([3]), jet_group_example(3)], ids=["jordan_3", "jet_3"])
def test_generator_report_matches_row_space_basis(action):
    gm = action.grading.gm_weights
    spaces = [unipotent_invariants(action.unipotent, d, gm_weights=gm) for d in range(1, 9)]
    expected = _product_ranks_by_rref(spaces)
    for row in generator_degree_report(spaces):
        assert row.from_products == expected[row.degree]
        assert row.new_generators == row.dim - expected[row.degree]


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


def test_product_invariants_killed_by_both_derivations():
    from stabloci.invariants import _product_matrices

    raising, lowering = _product_matrices(3)
    for (a, b) in [(2, 2), (3, 1), (6, 2)]:
        space = product_sl2_invariants(3, a, b)
        for p in space.basis:
            assert reference_derivation(raising, p).is_zero()
            assert reference_derivation(lowering, p).is_zero()


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
        lowering = RatMatrix([[n - j if i == j + 1 else 0 for j in range(n + 1)] for i in range(n + 1)])
        for d in range(1, 6):
            monos = monomials_of_degree(n + 1, d)
            keep = [c for c, m in enumerate(monos) if sum(e * (n - 2 * j) for j, e in enumerate(m)) == 0]
            rows = [
                [row[c] for c in keep]
                for op in (sym_power_raising(n), lowering)
                for row in derivation_on_degree(op, d).entries
            ]
            joint = reference_kernel(rows, len(keep)) if keep else []
            expected = tuple(
                MultiPoly(n + 1, {monos[c]: x for c, x in zip(keep, v)}) for v in joint
            )
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
