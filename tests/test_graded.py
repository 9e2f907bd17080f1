"""Graded-unipotent machinery: weight ladders, sweeps, conditions, hats."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    fraction_series_translate,
    is_adapted,
    lowest_bounded_chamber,
    mat_vec,
    min_weight_indices,
    omega_sequence,
    rational_roots_with_multiplicity,
    reference_kernel,
    reference_span_minors,
    reference_translate,
    span_condition_rows,
)
from stabloci.actions import (
    GradingData,
    ProjectivePoint,
    TorusWeights,
    UnipotentData,
    WeightedAction,
    aut_p112_example,
    jet_group_example,
    jordan_embed_ga,
)
from stabloci.corpus import builtin_documents
from stabloci.errors import (
    MTooSmall,
    NotAdapted,
    TrivialAction,
    UnsupportedUnipotentDimension,
)
from stabloci import graded
from stabloci.graded import (
    ConditionVerdict,
    _all_roots_rational,
    _poly_matrix_rank,
    adapted_window,
    blowup_centre,
    check_condition_cstar,
    check_condition_cstar_tilde,
    generic_stab_dim,
    hat_stable_minplus,
    in_X0_min,
    in_Z_min,
    m_lower_bound,
    q_hat_stable,
    stab_dim_u,
    translate_coordinate_polys,
    u_sweep_membership,
)
from stabloci.linalg import RatMatrix
from stabloci.poly import MultiPoly, rational_roots, univariate_coeffs
from stabloci.torus import Status, torus_verdict


def point(*coords):
    return ProjectivePoint(coords)


def with_chi(action, chi):
    g = GradingData(gm_weights=action.grading.gm_weights, character_twist=Fraction(chi))
    return dataclasses.replace(action, grading=g)


CUBICS = jordan_embed_ga([3])
CUBICS_ADAPTED = with_chi(CUBICS, -2)
CUBICS_BORDERLINE = with_chi(CUBICS, -3)


def test_omega_sequence_examples():
    g = GradingData(gm_weights=(0, 0, 1, 2))
    assert g.omega() == (Fraction(0), Fraction(1), Fraction(2))
    g2 = GradingData(gm_weights=(0, 0, 1, 2), character_twist=Fraction(1, 2))
    assert g2.omega() == (Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2))
    assert CUBICS.grading.omega() == (
        Fraction(-3),
        Fraction(-1),
        Fraction(1),
        Fraction(3),
    )


def test_adapted_window_examples():
    window = adapted_window(CUBICS.grading)
    assert (window.lo, window.hi) == (Fraction(-3), Fraction(-1))
    assert window.lo < window.well_adapted_hi < window.hi
    # chi = -3 is borderline (not inside), chi = -2 is adapted
    assert not window.lo < Fraction(-3)
    assert window.lo < Fraction(-2) < window.hi
    with pytest.raises(TrivialAction):
        adapted_window(GradingData(gm_weights=(5, 5)))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=6),
    st.one_of(st.integers(-5, 5).map(Fraction), st.fractions(min_value=-5, max_value=5, max_denominator=6)),
)
def test_ladder_matches_reference(gm_weights, chi):
    """The ladder GradingData builds once equals the chamber, sequence and
    adaptedness helpers it replaced; integer twists often put 0 on a weight."""
    g = GradingData(gm_weights=tuple(gm_weights), character_twist=chi)
    chamber = lowest_bounded_chamber(g)
    assert g.omega() == omega_sequence(g)
    assert g.chamber() == (chamber.lo, chamber.hi)
    assert g.is_adapted() == is_adapted(g)
    assert g.min_weight_indices() == min_weight_indices(g)
    assert g.is_trivial() == (chamber.lo == chamber.hi)
    if g.is_trivial():
        with pytest.raises(TrivialAction):
            adapted_window(g)
    else:
        window = adapted_window(g)
        assert (window.lo, window.hi) == (chamber.lo, chamber.hi)
        assert window.well_adapted_hi == (chamber.lo + chamber.hi) / 2


def test_z_min_and_x0_min_examples():
    g = GradingData(gm_weights=(0, 1, 2))
    assert in_Z_min(g, point(1, 0, 0))
    assert not in_Z_min(g, point(1, 1, 0))
    g2 = GradingData(gm_weights=(0, 0, 2))
    assert in_Z_min(g2, point(1, 5, 0))
    assert in_X0_min(g, point(1, 1, 1))
    assert not in_X0_min(g, point(0, 1, 1))
    # minimal locus is contained in its attracting set
    for coords in [(1, 0, 0), (1, 0, 1), (1, 1, 1)]:
        if in_Z_min(g, point(*coords)):
            assert in_X0_min(g, point(*coords))


def test_sweep_trivial_cases():
    g = GradingData(gm_weights=(0, 1))
    trivial_n = UnipotentData(generators=(RatMatrix([[0, 0], [0, 0]]),), grading_weights=(1,))
    # x already in the minimal locus
    cert = u_sweep_membership(trivial_n, g, point(1, 0))
    assert cert.in_sweep
    # trivial generator, x outside the minimal locus
    cert2 = u_sweep_membership(trivial_n, g, point(1, 1))
    assert not cert2.in_sweep and not cert2.heuristic


def test_sweep_requires_single_generator():
    action = aut_p112_example(chi=Fraction(1))
    with pytest.raises(UnsupportedUnipotentDimension):
        u_sweep_membership(action.unipotent, action.grading, point(1, 1, 1, 1))


def test_sweep_on_cubics_borderline():
    # borderline twist: minimal block is the pure t^3 coefficient
    g = CUBICS_BORDERLINE.grading
    u = CUBICS_BORDERLINE.unipotent
    # a point already in the minimal locus is swept, with witness 0
    inside = point(0, 0, 0, 1)
    cert0 = u_sweep_membership(u, g, inside)
    assert cert0.in_sweep and cert0.witness_params == (Fraction(0),)
    # a perfect cube away from the fixed point translates into the block
    cube = point(1, 3, 3, 1)  # (s + t)^3
    cert = u_sweep_membership(u, g, cube)
    assert cert.in_sweep and cert.witness_params is not None
    # double-but-not-triple root: the coefficient gcd is constant
    double = point(0, 0, 1, 1)  # t^2 (s + t)
    cert2 = u_sweep_membership(u, g, double)
    assert not cert2.in_sweep and not cert2.heuristic


UNIPOTENT_CORPUS = [
    (name, doc) for name, doc in builtin_documents() if doc.action.unipotent_dim() > 0
]

_coordinate = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@pytest.mark.parametrize("doc", [doc for _, doc in UNIPOTENT_CORPUS], ids=[n for n, _ in UNIPOTENT_CORPUS])
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_translate_matches_matrix_exponential_on_corpus_actions(doc, data):
    u, size = doc.action.unipotent, doc.action.n + 1
    x = ProjectivePoint(data.draw(st.lists(_coordinate, min_size=size, max_size=size).filter(any)))
    assert translate_coordinate_polys(u, x) == reference_translate(u, x)


_entry = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)


@st.composite
def _triangular_generators(draw):
    """1-3 strictly upper or lower triangular generators of size 2-5, and a point."""
    size = draw(st.integers(2, 5))
    generators = []
    for _ in range(draw(st.integers(1, 3))):
        upper = draw(st.booleans())
        rows = [
            [draw(_entry) if (j > i if upper else j < i) else Fraction(0) for j in range(size)]
            for i in range(size)
        ]
        generators.append(RatMatrix(rows))
    coords = draw(st.lists(_coordinate, min_size=size, max_size=size).filter(any))
    u = UnipotentData(generators=tuple(generators), grading_weights=(1,) * len(generators))
    return u, ProjectivePoint(coords)


@settings(max_examples=200, deadline=None)
@given(_triangular_generators())
def test_translate_matches_matrix_exponential_on_triangular_generators(case):
    u, x = case
    assert translate_coordinate_polys(u, x) == reference_translate(u, x)


@st.composite
def _scaled_generators(draw):
    """1-3 strictly triangular generators of size 2-5, generator j divided
    by its own denominator d_j (distinct from the others), and a point
    with rational and often zero coordinates."""
    size = draw(st.integers(2, 5))
    denominators = draw(st.permutations([1, 2, 3, 5, 7]))[: draw(st.integers(1, 3))]
    generators = []
    for d in denominators:
        upper = draw(st.booleans())
        rows = [
            [draw(_entry) / d if (j > i if upper else j < i) else Fraction(0) for j in range(size)]
            for i in range(size)
        ]
        generators.append(RatMatrix(rows))
    coordinate = st.one_of(st.just(Fraction(0)), _coordinate)
    coords = draw(st.lists(coordinate, min_size=size, max_size=size).filter(any))
    u = UnipotentData(generators=tuple(generators), grading_weights=(1,) * len(generators))
    return u, ProjectivePoint(coords)


@settings(max_examples=200, deadline=None)
@given(_scaled_generators())
def test_translate_matches_fraction_series(case):
    """The integer series, divided once, is the Fraction series."""
    u, x = case
    assert translate_coordinate_polys(u, x) == fraction_series_translate(u, x)


@settings(max_examples=300, deadline=None)
@given(_scaled_generators())
def test_stab_dim_kernel_matches_fraction_span_rows(case):
    """The integer span rows have the kernel basis of the Fraction rows."""
    u, x = case
    rows = span_condition_rows(u.generators, x.coords)
    assert stab_dim_u(u, x).kernel_basis == tuple(reference_kernel(rows, u.dim))


@settings(max_examples=200, deadline=None)
@given(_scaled_generators())
def test_generic_stab_dim_matches_span_minor_rank(case):
    """The linear span matrix [x | N_1 x ... N_u x] has the generic
    stabiliser of the quadratic pair minors."""
    u, _ = case
    columns = [reference_span_minors(g) for g in u.generators]
    assert generic_stab_dim(u, u.generators[0].rows - 1) == u.dim - _poly_matrix_rank(list(zip(*columns)))


@settings(max_examples=100, deadline=None)
@given(_scaled_generators())
def test_generic_stab_dim_is_least_at_seeded_integer_points(case):
    """No point has a smaller stabiliser than the generic one, and 20
    seeded integer points attain it (the rank drops only on a proper
    subvariety cut out in degree at most u + 1)."""
    u, _ = case
    size = u.generators[0].rows
    rng = random.Random(0)
    points = [[Fraction(rng.randint(-50, 50)) for _ in range(size)] for _ in range(20)]
    dims = [len(reference_kernel(span_condition_rows(u.generators, p), u.dim)) for p in points if any(p)]
    generic = generic_stab_dim(u, size - 1)
    assert all(generic <= d for d in dims) and generic == min(dims)


@settings(max_examples=100, deadline=None)
@given(_scaled_generators())
def test_blowup_centre_equations_are_the_nonzero_span_minors(case):
    """One generator at a time; the equations read the generator alone, so
    the action is assembled past the grading check that a random
    triangular generator fails."""
    u, _ = case
    size = u.generators[0].rows
    for gen in u.generators:
        action = WeightedAction(torus=TorusWeights(1, ((0,),) * size), grading=GradingData((0,) * size))
        object.__setattr__(action, "unipotent", UnipotentData(generators=(gen,), grading_weights=(1,)))
        expected = tuple(m for m in reference_span_minors(gen) if not m.is_zero())
        assert blowup_centre(action).equations == expected


_root = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_irreducible_quadratic = st.one_of(
    # t^2 + b t + c with negative discriminant
    st.tuples(_root, st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4)).map(
        lambda bd: (bd[0] ** 2 / 4 + bd[1], bd[0], Fraction(1))
    ),
    # t^2 - p, p not a rational square
    st.sampled_from([2, 3, 5, 6, 7]).map(lambda p: (Fraction(-p), Fraction(0), Fraction(1))),
)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.tuples(_root, st.integers(1, 3)), max_size=3),
    st.lists(_irreducible_quadratic, max_size=2),
    st.sampled_from([Fraction(1), Fraction(-3), Fraction(2, 5)]),
)
def test_all_roots_rational_matches_multiplicity_sum(linear, quadratics, lead):
    f = MultiPoly(1, {(0,): lead})
    for root, mult in linear:
        for _ in range(mult):
            f = f.mul(MultiPoly(1, {(0,): -root, (1,): 1}))
    for q in quadratics:
        f = f.mul(MultiPoly(1, {(i,): c for i, c in enumerate(q)}))
    assume(f.total_degree() >= 1)
    coeffs = univariate_coeffs(f)
    by_multiplicity = sum(m for _, m in rational_roots_with_multiplicity(coeffs)) == len(coeffs) - 1
    assert _all_roots_rational(f, rational_roots(coeffs)) == by_multiplicity == (not quadratics)


def test_sweep_witness_verifies_exactly():
    g = CUBICS_BORDERLINE.grading
    u = CUBICS_BORDERLINE.unipotent
    cube = point(1, 3, 3, 1)
    cert = u_sweep_membership(u, g, cube)
    polys = translate_coordinate_polys(u, cube)
    above = [i for i in range(4) if i != 3]
    for i in above:
        assert polys[i].evaluate(cert.witness_params) == 0


def test_hat_stable_examples_on_cubics():
    # in the minimal locus: swept, unstable
    assert hat_stable_minplus(CUBICS_ADAPTED, point(0, 0, 0, 1)).status == Status.UNSTABLE
    # minimal supported weight above the bottom: fails the flow test
    assert hat_stable_minplus(CUBICS_ADAPTED, point(1, 1, 1, 0)).status == Status.UNSTABLE
    # three distinct roots, none fixed: stable, cross-checked below
    assert hat_stable_minplus(CUBICS_ADAPTED, point(0, -1, 0, 1)).status == Status.STABLE


def test_hat_stable_cross_checked_against_nonvanishing():
    # a stable cubic always carries a nonvanishing low-degree invariant
    from stabloci.invariants import invariant_nonvanishing_verdict, unipotent_invariants

    spaces = [
        unipotent_invariants(CUBICS.unipotent, d, degree_cap=12) for d in range(1, 13)
    ]
    rng = random.Random(14)
    stable_seen = 0
    for _ in range(30):
        coords = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        if all(c == 0 for c in coords):
            continue
        x = ProjectivePoint(coords)
        if hat_stable_minplus(CUBICS_ADAPTED, x).status == Status.STABLE:
            stable_seen += 1
            assert invariant_nonvanishing_verdict(spaces, x).found
    assert stable_seen > 0


def test_hat_stable_trivial_grading_routes_to_torus():
    action = WeightedAction(
        torus=TorusWeights(rank=1, weights=((-1,), (0,), (2,))),
        grading=GradingData(gm_weights=(3, 3, 3)),
    )
    assert hat_stable_minplus(action, point(1, 1, 1)).status == Status.STABLE
    assert hat_stable_minplus(action, point(1, 0, 0)).status == Status.UNSTABLE


def test_hat_stable_pure_circle_without_unipotent():
    action = WeightedAction(
        torus=TorusWeights(rank=1, weights=((0,), (1,))),
        grading=GradingData(gm_weights=(0, 1), character_twist=Fraction(1, 2)),
    )
    assert hat_stable_minplus(action, point(1, 1)).status == Status.STABLE
    assert hat_stable_minplus(action, point(1, 0)).status == Status.UNSTABLE
    assert hat_stable_minplus(action, point(0, 1)).status == Status.UNSTABLE


def test_hat_stable_requires_adapted_twist():
    with pytest.raises(NotAdapted):
        hat_stable_minplus(CUBICS, point(1, 1, 1, 1))  # chi = 0 not adapted
    with pytest.raises(NotAdapted):
        hat_stable_minplus(CUBICS_BORDERLINE, point(1, 1, 1, 1))


def test_hat_stable_implies_flow_and_not_fixed_locus():
    rng = random.Random(2)
    g = CUBICS_ADAPTED.grading
    for _ in range(40):
        coords = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        if all(c == 0 for c in coords):
            continue
        x = ProjectivePoint(coords)
        v = hat_stable_minplus(CUBICS_ADAPTED, x)
        if v.status == Status.STABLE:
            assert in_X0_min(g, x) and not in_Z_min(g, x)


def test_x0_min_invariant_under_group_flow():
    g = CUBICS_ADAPTED.grading
    u = CUBICS_ADAPTED.unipotent
    rng = random.Random(4)
    for _ in range(25):
        coords = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
        if all(c == 0 for c in coords):
            continue
        x = ProjectivePoint(coords)
        polys = translate_coordinate_polys(u, x)
        for s in (Fraction(1), Fraction(-2), Fraction(1, 3)):
            translated = [p.evaluate((s,)) for p in polys]
            y = ProjectivePoint(translated)
            assert in_X0_min(g, x) == in_X0_min(g, y)


def test_sweep_closed_under_group_flow():
    g = CUBICS_BORDERLINE.grading
    u = CUBICS_BORDERLINE.unipotent
    for coords in [(1, 3, 3, 1), (0, 0, 0, 1), (1, 0, 0, 0)]:
        x = ProjectivePoint(coords)
        cert = u_sweep_membership(u, g, x)
        polys = translate_coordinate_polys(u, x)
        for s in (Fraction(2), Fraction(-1, 2)):
            y = ProjectivePoint([p.evaluate((s,)) for p in polys])
            assert u_sweep_membership(u, g, y).in_sweep == cert.in_sweep


def test_twist_independence_inside_adapted_window():
    for action in (jordan_embed_ga([3]), jordan_embed_ga([1, 1]), aut_p112_example(), jet_group_example(3)):
        window = adapted_window(action.grading)
        chi_a = window.lo + (window.hi - window.lo) / 4
        chi_b = window.lo + (window.hi - window.lo) * 3 / 4
        rng = random.Random(8)
        panel = []
        size = action.n + 1
        for _ in range(12):
            coords = [Fraction(rng.randint(-2, 2)) for _ in range(size)]
            if any(c != 0 for c in coords):
                panel.append(ProjectivePoint(coords))
        table_a = [hat_stable_minplus(with_chi(action, chi_a), x, seed=1).status for x in panel]
        table_b = [hat_stable_minplus(with_chi(action, chi_b), x, seed=1).status for x in panel]
        assert table_a == table_b


def test_stab_dim_examples():
    u = CUBICS.unipotent
    rng = random.Random(9)
    for _ in range(5):
        coords = [Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9))]
        assert stab_dim_u(u, ProjectivePoint(coords)).dim == 0
    # the generator-fixed coordinate point is stabilised by the full line
    report = stab_dim_u(u, point(1, 0, 0, 0))
    assert report.dim == 1 and len(report.kernel_basis) == 1
    trivial = UnipotentData(generators=(), grading_weights=())
    assert stab_dim_u(trivial, point(1, 1)).dim == 0


def test_stab_dim_kernel_satisfies_span_condition():
    action = aut_p112_example()
    u = action.unipotent
    report = stab_dim_u(u, point(0, 0, 1, 1))
    assert report.dim == len(report.kernel_basis)
    x = report.point.coords
    for c in report.kernel_basis:
        image = [Fraction(0)] * len(x)
        for coeff, gen in zip(c, u.generators):
            if coeff:
                image = [a + coeff * b for a, b in zip(image, mat_vec(gen, x))]
        # image lies in the line through x: all 2x2 minors vanish
        for i in range(len(x)):
            for k in range(i + 1, len(x)):
                assert image[i] * x[k] - image[k] * x[i] == 0


def test_generic_stab_dim_exact():
    assert generic_stab_dim(CUBICS.unipotent, 3) == 0
    assert generic_stab_dim(aut_p112_example().unipotent, 3) == 0
    zero_gen = UnipotentData(generators=(RatMatrix([[0, 0], [0, 0]]),), grading_weights=(1,))
    assert generic_stab_dim(zero_gen, 1) == 1


def test_condition_cstar_examples():
    report = check_condition_cstar(CUBICS_ADAPTED)
    assert report.verdict == ConditionVerdict.HOLDS and report.exact
    # trivial unipotent part
    plain = WeightedAction(
        torus=TorusWeights(rank=1, weights=((0,), (1,))),
        grading=GradingData(gm_weights=(0, 1)),
    )
    assert check_condition_cstar(plain).verdict == ConditionVerdict.HOLDS
    # constructed failure: the generator kills a minimal-locus vector
    bad = WeightedAction(
        torus=TorusWeights(rank=1, weights=((0,), (0,), (1,))),
        grading=GradingData(gm_weights=(0, 0, 1), character_twist=Fraction(1, 2)),
        unipotent=UnipotentData(
            generators=(RatMatrix([[0, 0, 0], [0, 0, 0], [0, 1, 0]]),),
            grading_weights=(1,),
        ),
    )
    report_bad = check_condition_cstar(bad)
    assert report_bad.verdict == ConditionVerdict.FAILS and report_bad.exact
    assert report_bad.witness is not None
    killed = report_bad.witness
    assert mat_vec(bad.unipotent.generators[0], killed.coords) == (Fraction(0),) * 3


def test_condition_cstar_exact_for_builtin_multigenerator_actions():
    for action in (aut_p112_example(chi=Fraction(1)), jet_group_example(3, chi=Fraction(3, 2))):
        report = check_condition_cstar(action)
        assert report.verdict == ConditionVerdict.HOLDS and report.exact


def test_condition_cstar_tilde_examples():
    report = check_condition_cstar_tilde(CUBICS_ADAPTED)
    assert report.verdict == ConditionVerdict.HOLDS and report.exact
    # constant one-dimensional stabiliser everywhere: holds by equality
    zero_gen = WeightedAction(
        torus=TorusWeights(rank=1, weights=((0,), (1,))),
        grading=GradingData(gm_weights=(0, 1), character_twist=Fraction(1, 2)),
        unipotent=UnipotentData(generators=(RatMatrix([[0, 0], [0, 0]]),), grading_weights=(1,)),
    )
    report2 = check_condition_cstar_tilde(zero_gen)
    assert report2.verdict == ConditionVerdict.HOLDS and report2.exact


def _elementary(size, *entries):
    rows = [[0] * size for _ in range(size)]
    for i, j, c in entries:
        rows[i][j] = c
    return RatMatrix(rows)


def _weight_one_action(gm_weights, generators):
    return WeightedAction(
        torus=TorusWeights(rank=1, weights=tuple((w,) for w in gm_weights)),
        grading=GradingData(gm_weights=tuple(gm_weights), character_twist=Fraction(1, 2)),
        unipotent=UnipotentData(generators=tuple(generators), grading_weights=(1,) * len(generators)),
    )


E = _elementary
BRANCH_ACTIONS = {
    # one minimal coordinate, two generators
    "single": _weight_one_action((0, 1, 2), [E(3, (1, 0, 1)), E(3, (2, 1, 1))]),
    # two minimal coordinates: decided by the minors
    "minors_rational": _weight_one_action((0, 0, 1, 1), [E(4, (2, 0, 1)), E(4, (3, 1, 1))]),
    "minors_irrational": _weight_one_action(
        (0, 0, 1, 1), [E(4, (2, 0, 1), (3, 1, 1)), E(4, (2, 1, -1), (3, 0, 1))]
    ),
    "minors_constant": _weight_one_action(
        (0, 0, 1, 1, 1), [E(5, (2, 0, 1), (3, 1, 1)), E(5, (2, 1, 1), (4, 0, 1))]
    ),
    # three minimal coordinates: sampled
    "sampled_fails": _weight_one_action(
        (0, 0, 0, 1, 1, 1), [E(6, (3, 0, 1), (4, 1, 1), (5, 2, 1)), E(6, (3, 1, 1), (4, 2, 1))]
    ),
    "sampled_holds": _weight_one_action(
        (0, 0, 0, 1, 1, 1),
        [E(6, (3, 0, 1), (4, 1, 1), (5, 2, 1)), E(6, (3, 1, 1), (4, 2, 1), (5, 0, 1))],
    ),
}
P = "generic stabiliser dimension 0"


@pytest.mark.parametrize(
    "name, check, verdict, exact, witness, detail, sampled",
    [
        ("single", check_condition_cstar, "fails", True, (1, 0, 0),
         "a Lie combination kills the minimal coordinate point", False),
        ("single", check_condition_cstar_tilde, "fails", True, (1, 0, 0),
         f"{P} but the minimal coordinate point has dimension 1", False),
        ("minors_rational", check_condition_cstar, "fails", True, (0, 1, 0, 0),
         "rank drops on the minimal locus: common zero at [0:1]", False),
        ("minors_rational", check_condition_cstar_tilde, "fails", True, (0, 1, 0, 0),
         f"{P} but the rank drops on the minimal locus: common zero at [0:1]", False),
        ("minors_irrational", check_condition_cstar, "fails", True, None,
         "rank drops on the minimal locus: gcd of degree 2 (irrational zero)", False),
        ("minors_irrational", check_condition_cstar_tilde, "fails", True, None,
         f"{P} but the rank drops on the minimal locus: gcd of degree 2 (irrational zero)", False),
        ("minors_constant", check_condition_cstar, "holds", True, None, "minor gcd is constant", False),
        ("minors_constant", check_condition_cstar_tilde, "holds", True, None,
         f"{P}; rank constant on the minimal locus", False),
        ("sampled_fails", check_condition_cstar, "fails", True, (1, 0, 0, 0, 0, 0),
         "sampled minimal-locus point with nontrivial stabiliser", True),
        ("sampled_fails", check_condition_cstar_tilde, "fails", True, (1, 0, 0, 0, 0, 0),
         f"{P} but a sampled point has dimension 1", True),
        ("sampled_holds", check_condition_cstar, "probably-holds", False, None,
         "no stabiliser found at sampled minimal-locus points", True),
        ("sampled_holds", check_condition_cstar_tilde, "probably-holds", False, None,
         f"{P}; matched at all sampled minimal-locus points", True),
    ],
)
def test_condition_reports_on_every_branch(name, check, verdict, exact, witness, detail, sampled):
    report = check(BRANCH_ACTIONS[name], seed=3)
    assert report.verdict == ConditionVerdict(verdict)
    assert report.exact is exact
    assert (report.witness.coords if report.witness else None) == (
        tuple(Fraction(c) for c in witness) if witness else None
    )
    assert report.detail == detail
    assert (report.seed, report.samples) == ((3, 12) if sampled else (None, 0))


def test_blowup_centre_cubics():
    centre = blowup_centre(CUBICS_ADAPTED)
    # fixed locus misses the attracting set, so the maximum there is 0
    assert centre.max_stab_dim_x0min == 0 and not centre.meets_x0min
    assert len(centre.equations) == 6
    fixed = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    generic = (Fraction(1), Fraction(1), Fraction(1), Fraction(1))
    assert all(eq.evaluate(fixed) == 0 for eq in centre.equations)
    assert any(eq.evaluate(generic) != 0 for eq in centre.equations)


def test_blowup_centre_line():
    action = with_chi(jordan_embed_ga([1]), Fraction(-1, 2))
    centre = blowup_centre(action)
    # single fixed point of the projective line
    assert len(centre.equations) == 1
    eq = centre.equations[0]
    assert eq.evaluate((Fraction(1), Fraction(0))) == 0
    assert eq.evaluate((Fraction(1), Fraction(1))) != 0


def test_blowup_centre_trivial_group():
    plain = WeightedAction(
        torus=TorusWeights(rank=1, weights=((0,), (1,))),
        grading=GradingData(gm_weights=(0, 1)),
    )
    centre = blowup_centre(plain)
    assert centre.max_stab_dim_x0min == 0 and centre.equations == ()


TRIVIAL_TORUS = WeightedAction(torus=TorusWeights(rank=1, weights=((-1,), (0,), (2,))), label="plain")


def test_q_hat_trivial_extension_matches_plain_verdicts():
    panel = [point(1, 1, 1), point(0, 1, 0), point(1, 0, 0), point(0, 0, 1), point(1, 0, 1)]
    for q in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        m = m_lower_bound(TRIVIAL_TORUS, q)
        for x in panel:
            plain = torus_verdict(TRIVIAL_TORUS.torus, (Fraction(0),), x).status
            assert q_hat_stable(TRIVIAL_TORUS, q, m, x).status == plain


def test_q_hat_outside_unit_interval_empty():
    panel = [point(1, 1, 1), point(0, 1, 0), point(1, 0, 0)]
    for q in (Fraction(-1), Fraction(2)):
        m = m_lower_bound(TRIVIAL_TORUS, q)
        for x in panel:
            assert q_hat_stable(TRIVIAL_TORUS, q, m, x).status == Status.UNSTABLE


def test_q_hat_zero_equals_hat_stable_on_graded_panel():
    action = CUBICS_ADAPTED
    m = m_lower_bound(action, Fraction(0))
    rng = random.Random(6)
    for _ in range(25):
        coords = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
        if all(c == 0 for c in coords):
            continue
        x = ProjectivePoint(coords)
        assert q_hat_stable(action, Fraction(0), m, x).status == hat_stable_minplus(action, x).status


def test_q_hat_verdict_stable_under_m_increase():
    action = CUBICS_ADAPTED
    panel = [point(0, -1, 0, 1), point(0, 0, 0, 1), point(1, 1, 1, 1)]
    for q in (Fraction(0), Fraction(1, 3), Fraction(2)):
        m0 = m_lower_bound(action, q)
        for x in panel:
            statuses = {q_hat_stable(action, q, m, x).status for m in (m0, m0 + 1, m0 + 7)}
            assert len(statuses) == 1
    for q in (Fraction(1, 2), Fraction(-1)):
        m0 = m_lower_bound(TRIVIAL_TORUS, q)
        for x in [point(1, 1, 1), point(1, 0, 0)]:
            statuses = {q_hat_stable(TRIVIAL_TORUS, q, m, x).status for m in (m0, m0 + 1, m0 + 5)}
            assert len(statuses) == 1


def test_q_hat_builds_one_translate_per_point(monkeypatch):
    """Both line thresholds read the same translate of the point."""
    calls = []

    def counted(u, x):
        calls.append(x)
        return translate_coordinate_polys(u, x)

    monkeypatch.setattr(graded, "translate_coordinate_polys", counted)
    q = Fraction(1, 2)
    for x in (point(0, -1, 0, 1), point(1, 1, 1, 1)):
        q_hat_stable(CUBICS_ADAPTED, q, m_lower_bound(CUBICS_ADAPTED, q), x)
    assert calls == [point(0, -1, 0, 1), point(1, 1, 1, 1)]


def test_q_hat_trivial_grading_with_nonzero_common_weight():
    # the common weight only shifts the line interval; above the lower
    # bound the verdicts match the plain ones and are m-stable
    action = WeightedAction(
        torus=TorusWeights(rank=1, weights=((-1,), (0,), (2,))),
        grading=GradingData(gm_weights=(3, 3, 3)),
    )
    panel = [point(1, 1, 1), point(1, 0, 0)]
    for q in (Fraction(1, 2), Fraction(1, 4)):
        m0 = m_lower_bound(action, q)
        for x in panel:
            plain = torus_verdict(action.torus, (Fraction(0),), x).status
            statuses = {q_hat_stable(action, q, m, x).status for m in (m0, m0 + 1, m0 + 9)}
            assert statuses == {plain}


def test_q_hat_preconditions():
    with pytest.raises(MTooSmall):
        q_hat_stable(TRIVIAL_TORUS, Fraction(1, 2), 1, point(1, 1, 1))
    with pytest.raises(UnsupportedUnipotentDimension):
        q_hat_stable(aut_p112_example(chi=Fraction(1)), Fraction(0), 100, point(1, 1, 1, 1))
    with pytest.raises(NotAdapted):
        q_hat_stable(CUBICS, Fraction(0), 100, point(1, 1, 1, 1))


def test_hat_stable_consistent_with_sampled_translates():
    # the stable set is the intersection of translated circle-stable sets:
    # a stable point must stay circle-stable under every sampled translate,
    # and any circle-unstable translate forces instability
    action = CUBICS_ADAPTED
    g = action.grading
    u = action.unipotent
    rng = random.Random(21)
    samples = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(12)]
    for _ in range(40):
        coords = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        if all(c == 0 for c in coords):
            continue
        x = ProjectivePoint(coords)
        verdict = hat_stable_minplus(action, x)
        polys = translate_coordinate_polys(u, x)
        chi = (g.character_twist,)
        translate_statuses = []
        for s in samples:
            y = ProjectivePoint([p.evaluate((s,)) for p in polys])
            translate_statuses.append(torus_verdict(action.torus, chi, y).status)
        if verdict.status == Status.STABLE:
            assert all(st == Status.STABLE for st in translate_statuses)
        if any(st != Status.STABLE for st in translate_statuses):
            assert verdict.status == Status.UNSTABLE


def test_jet_order_four_sweeps_exactly():
    # three group parameters; sequential elimination stays exact
    action = jet_group_example(4, chi=Fraction(3, 2))
    for coords in [(1, 1, 1, 1), (1, 0, 0, 0), (2, -1, 3, 5)]:
        v = hat_stable_minplus(action, point(*coords))
        assert v.status == Status.UNSTABLE and not v.heuristic
    for coords in [(0, 1, 1, 1), (0, 0, 1, 1)]:
        v = hat_stable_minplus(action, point(*coords))
        assert v.status == Status.UNSTABLE and not v.heuristic


def test_two_block_action_stability():
    action = jordan_embed_ga([2, 3], chi=Fraction(-5, 2))
    # a point with an unsweepable quadratic component is stable
    assert hat_stable_minplus(action, point(0, 0, 1, 0, 0, 0, 1)).status == Status.STABLE
    # the minimal coordinate point is swept
    assert hat_stable_minplus(action, point(0, 0, 0, 0, 0, 0, 1)).status == Status.UNSTABLE
    report = check_condition_cstar(action)
    assert report.verdict == ConditionVerdict.HOLDS and report.exact


def test_stab_dim_semicontinuity_on_degeneration_family():
    # family f_t = (s + t*u)(s - t*u)(u) degenerating to s^2 u at t = 0
    u = CUBICS.unipotent
    generic_dims = []
    for t in (Fraction(1), Fraction(1, 2), Fraction(3)):
        # (s + t u)(s - t u) u = s^2 u - t^2 u^3: coords (0, 1, 0, -t^2)
        x = point(0, 1, 0, -t * t)
        generic_dims.append(stab_dim_u(u, x).dim)
    limit = point(0, 1, 0, 0)
    assert stab_dim_u(u, limit).dim >= max(generic_dims)
    # plane-automorphism family: the vertex limit picks up the whole group
    u3 = aut_p112_example().unipotent
    family_dims = [stab_dim_u(u3, point(1, 0, 0, t)).dim for t in (1, 2, Fraction(1, 3))]
    assert stab_dim_u(u3, point(1, 0, 0, 0)).dim >= max(family_dims)
    assert stab_dim_u(u3, point(1, 0, 0, 0)).dim == 3


def test_vanishing_solver_labels_unreachable_systems_heuristic():
    # no rational or eliminable structure: the solver must not silently
    # claim exactness
    from stabloci.graded import _exists_common_vanishing
    from stabloci.poly import MultiPoly

    circle = MultiPoly(
        2,
        {
            (2, 0): Fraction(1),
            (0, 2): Fraction(1),
            (0, 0): Fraction(1),
        },
    )
    cert = _exists_common_vanishing([circle], 2, seed=0)
    assert not cert.in_sweep and cert.heuristic
