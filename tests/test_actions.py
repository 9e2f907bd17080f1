"""Action model tests: constructors against independent symbolic oracles,
document round-trips, and rejection of malformed inputs."""

import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    reference_block_diagonal,
    reference_commutator,
    reference_matmul,
    reference_sym_lowering,
    reference_sym_raising,
)
from stabloci.actions import (
    ActionDocument,
    GradingData,
    ProjectivePoint,
    TorusWeights,
    UnipotentData,
    WeightedAction,
    aut_p112_example,
    dump_json,
    jet_group_example,
    jordan_embed_ga,
    parse_document,
    serialize_document,
    sl2_entries,
)
from stabloci.corpus import builtin_documents
from stabloci.errors import (
    DimensionMismatch,
    GradingCommutationFailure,
    MalformedDocument,
    NonPositiveGradingWeight,
    NotNilpotent,
)
from stabloci.linalg import RatMatrix
from stabloci.poly import MultiPoly
from stabloci.ratio import parse_fraction

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def sym_power_matrix_oracle(k: int) -> RatMatrix:
    """Derivative at 0 of the symmetric-power action of 1 + a*e.

    Expands (for each basis monomial e1^(k-j) e2^j) the image under
    e1 -> e1, e2 -> a*e1 + e2 symbolically in (a, e1, e2) and extracts
    the linear-in-a matrix coefficient.
    """
    rows = [[Fraction(0)] * (k + 1) for _ in range(k + 1)]
    for j in range(k + 1):
        # (a e1 + e2)^j expanded: sum_i C(j,i) a^(j-i) e1^(j-i) e2^i
        image = MultiPoly(3)  # variables a, e1, e2
        for i in range(j + 1):
            exp = (j - i, (k - j) + (j - i), i)
            image = image.add(MultiPoly(3, {exp: comb(j, i)}))
        for (a_deg, e1_deg, e2_deg), coeff in image.terms.items():
            if a_deg == 1:
                target = e2_deg  # v_target = e1^(k-target) e2^target
                rows[target][j] = coeff
    return RatMatrix(rows)


def test_jordan_single_block_matches_symbolic_oracle():
    for k in (1, 2, 3, 4):
        action = jordan_embed_ga([k])
        oracle = sym_power_matrix_oracle(k)
        assert action.unipotent.generators[0] == oracle
        assert [w[0] for w in action.torus.weights] == [k - 2 * j for j in range(k + 1)]


@pytest.mark.parametrize("k", range(1, 11))
def test_sl2_entries_match_dense_references(k):
    raising, lowering = sl2_entries(k)
    assert RatMatrix.from_entries(k + 1, raising) == reference_sym_raising(k)
    assert RatMatrix.from_entries(k + 1, lowering) == reference_sym_lowering(k)
    shifted = sl2_entries(k, 3)
    assert shifted == tuple([(i + 3, j + 3, x) for i, j, x in entries] for entries in (raising, lowering))


@pytest.mark.parametrize("blocks", [[1], [4], [1, 1], [2, 3], [3, 1, 2], [1, 1, 1, 5]])
def test_jordan_generator_matches_block_diagonal_reference(blocks):
    generator = jordan_embed_ga(blocks).unipotent.generators[0]
    assert generator == reference_block_diagonal([reference_sym_raising(k) for k in blocks])


def test_jordan_cubics_is_the_spec_action():
    action = jordan_embed_ga([3])
    assert action.grading.gm_weights == (3, 1, -1, -3)
    assert action.unipotent.grading_weights == (2,)
    n = action.unipotent.generators[0]
    assert n.entries[0][1] == 1 and n.entries[1][2] == 2 and n.entries[2][3] == 3


def test_jordan_defining_representation():
    action = jordan_embed_ga([1])
    assert action.grading.gm_weights == (1, -1)
    assert action.unipotent.generators[0] == RatMatrix([[0, 1], [0, 0]])


def test_jordan_two_blocks_block_diagonal():
    action = jordan_embed_ga([1, 1])
    assert action.grading.gm_weights == (1, -1, 1, -1)
    n = action.unipotent.generators[0]
    assert n.entries[0][1] == 1 and n.entries[2][3] == 1
    assert n.entries[0][3] == 0 and n.entries[2][1] == 0
    # commutation invariant is enforced at construction; rebuild to confirm
    WeightedAction(
        torus=action.torus, grading=action.grading, unipotent=action.unipotent
    )


def test_aut_p112_shape():
    action = aut_p112_example()
    assert action.unipotent.dim == 3
    assert all(w > 0 for w in action.unipotent.grading_weights)
    # constructing the action runs the commutation check for all generators
    assert action.grading.gm_weights == (2, 2, 2, 0)


def jet_composition_oracle(k: int, m: int) -> RatMatrix:
    """Linear-in-a part of jet composition with t + a t^(m+1).

    Acts on coefficient vectors: psi(t) = sum c_j t^j composed with the
    reparametrisation, expanded symbolically and truncated mod t^(k+1).
    """
    rows = [[Fraction(0)] * k for _ in range(k)]
    for j in range(1, k + 1):
        # (t + a t^(m+1))^j mod t^(k+1), coefficient linear in a: j t^(j+m)
        phi_j = MultiPoly(2)  # variables a, t
        for i in range(j + 1):
            t_deg = j + i * m
            if t_deg <= k:
                phi_j = phi_j.add(MultiPoly(2, {(i, t_deg): comb(j, i)}))
        for (a_deg, t_deg), coeff in phi_j.terms.items():
            if a_deg == 1:
                rows[t_deg - 1][j - 1] = coeff
    return RatMatrix(rows)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_jet_group_matches_composition_oracle(k):
    action = jet_group_example(k)
    assert action.grading.gm_weights == tuple(range(1, k + 1))
    assert action.unipotent.grading_weights == tuple(range(1, k))
    for m in range(1, k):
        assert action.unipotent.generators[m - 1] == jet_composition_oracle(k, m)


def test_jet_two_single_generator():
    action = jet_group_example(2)
    assert action.unipotent.dim == 1
    assert action.unipotent.grading_weights == (1,)
    assert action.grading.gm_weights == (1, 2)


def test_roundtrip_on_corpus():
    for name, doc in builtin_documents():
        text = serialize_document(doc)
        again = parse_document(text)
        assert serialize_document(again) == text, name
        assert again.action == doc.action
        assert again.points == doc.points
        assert again.bounds == doc.bounds


def _json_trees(depth: int):
    """JSON values nested up to `depth` containers deep, tuples among them."""
    leaves = st.none() | st.booleans() | st.integers() | st.text()
    if depth == 0:
        return leaves
    child = _json_trees(depth - 1)
    return (
        leaves
        | st.lists(child, max_size=4)
        | st.lists(child, max_size=4).map(tuple)
        | st.dictionaries(st.text(), child, max_size=4)
    )


@settings(max_examples=400, deadline=None)
@given(_json_trees(4))
def test_dump_json_matches_the_stdlib_indent_encoder(value):
    assert dump_json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "value",
    [1.5, [0.0], {"a": float("nan")}, {1, 2}, frozenset(), {1: "a"}, {"a": {(0,): 1}}, Fraction(1, 2)],
    ids=["float", "nested_float", "nan", "set", "frozenset", "int_key", "tuple_key", "fraction"],
)
def test_dump_json_rejects_types_no_report_holds(value):
    with pytest.raises(TypeError):
        dump_json(value)


def test_parse_simple_torus_document():
    text = json.dumps(
        {
            "label": "demo",
            "n": 2,
            "torus": {"rank": 1, "weights": [[0], [1], [2]]},
        }
    )
    doc = parse_document(text)
    assert doc.action.torus.weights == ((0,), (1,), (2,))
    assert doc.action.grading is None and doc.action.unipotent is None


def test_parse_rejects_non_nilpotent():
    text = json.dumps(
        {
            "label": "bad",
            "n": 1,
            "torus": {"rank": 1, "weights": [[1], [-1]]},
            "grading": {"gm_weights": [1, -1], "chi": "0"},
            "unipotent": {"generators": [[["0", "1"], ["1", "0"]]], "adjoint_weights": [2]},
        }
    )
    with pytest.raises(NotNilpotent):
        parse_document(text)


def test_parse_rejects_dimension_mismatch():
    text = json.dumps(
        {
            "label": "bad",
            "n": 3,
            "torus": {"rank": 1, "weights": [[1], [-1]]},
        }
    )
    with pytest.raises(DimensionMismatch):
        parse_document(text)


def test_parse_rejects_bad_commutation():
    # diag weights (5, 0) give [D,N] = 5N, not 2N
    text = json.dumps(
        {
            "label": "bad",
            "n": 1,
            "torus": {"rank": 1, "weights": [[5], [0]]},
            "grading": {"gm_weights": [5, 0], "chi": "0"},
            "unipotent": {"generators": [[["0", "1"], ["0", "0"]]], "adjoint_weights": [2]},
        }
    )
    with pytest.raises(GradingCommutationFailure):
        parse_document(text)


def test_parse_rejects_ragged_generator_rows():
    raw = json.loads((CORPUS / "jordan_3.json").read_text())
    raw["unipotent"]["generators"][0][1].pop()
    with pytest.raises(MalformedDocument, match="rows differ in length"):
        parse_document(json.dumps(raw))


def _random_square(rng: random.Random, size: int, nilpotent: bool) -> list[list[Fraction]]:
    """Dense random entries, or strictly upper triangular ones under a random
    permutation of the coordinates; both with a share of zero entries."""
    perm = list(range(size))
    rng.shuffle(perm)
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if (i < j or not nilpotent) and rng.random() < 0.6:
                rows[perm[i]][perm[j]] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return rows


def test_is_nilpotent_matches_dense_power_oracle():
    rng = random.Random(41)
    for trial in range(300):
        size = rng.randint(0, 9)
        rows = _random_square(rng, size, nilpotent=trial % 2 == 0)
        power = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
        for _ in range(size):
            power = reference_matmul(power, rows)
        assert RatMatrix(rows).is_nilpotent() == all(x == 0 for r in power for x in r)


@pytest.mark.parametrize("size", range(10))
def test_is_nilpotent_at_the_full_nilpotency_index(size):
    """The shift v_j -> v_{j-1} has N^(size-1) != 0 = N^size, the longest
    chain of a size-square nilpotent; closing it into a cycle is not nilpotent."""
    shift = [(j - 1, j, 1) for j in range(1, size)]
    assert RatMatrix.from_entries(size, shift).is_nilpotent()
    if size:
        assert not RatMatrix.from_entries(size, shift + [(size - 1, 0, 1)]).is_nilpotent()


def test_grading_check_matches_dense_commutator_oracle():
    """Generators whose entries all raise the grading, so they are
    nilpotent: mostly by exactly w, sometimes by another amount.  The
    check fails exactly when the dense [diag(d), N] differs from w N."""
    rng = random.Random(43)
    outcomes = []
    for _ in range(300):
        size = rng.randint(2, 6)
        d = [rng.randint(-3, 3) for _ in range(size)]
        w = rng.randint(1, 3)
        rows = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(size):
                if d[i] > d[j] and rng.random() < (0.7 if d[i] - d[j] == w else 0.1):
                    rows[i][j] = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
        diag = [[Fraction(d[i] if i == j else 0) for j in range(size)] for i in range(size)]
        consistent = reference_commutator(diag, rows) == [[w * x for x in r] for r in rows]
        outcomes.append(consistent)
        torus = TorusWeights(rank=1, weights=tuple((x,) for x in d))
        grading = GradingData(gm_weights=tuple(d))
        unipotent = UnipotentData(generators=(RatMatrix(rows),), grading_weights=(w,))
        if consistent:
            WeightedAction(torus=torus, grading=grading, unipotent=unipotent)
        else:
            with pytest.raises(GradingCommutationFailure):
                WeightedAction(torus=torus, grading=grading, unipotent=unipotent)
    assert 50 < sum(outcomes) < 250


def test_parse_rejects_nonpositive_adjoint_weight():
    with pytest.raises(NonPositiveGradingWeight):
        UnipotentData(
            generators=(RatMatrix([[0, 1], [0, 0]]),), grading_weights=(0,)
        )


def test_parse_rejects_garbage():
    with pytest.raises(MalformedDocument):
        parse_document("not json at all {")
    with pytest.raises(MalformedDocument):
        parse_document(json.dumps({"n": 1}))


@pytest.mark.parametrize("text", ["1e4300", "2E-3", "1.5e2"])
def test_parse_fraction_rejects_exponent_literals(text):
    with pytest.raises(MalformedDocument):
        parse_fraction(text)


def test_parse_rejects_deep_nesting():
    with pytest.raises(MalformedDocument):
        parse_document("[" * 100000 + "]" * 100000)


def test_cubics_document_accepted():
    # the symmetric-cube generator with grading weights and adjoint weight 2
    action = jordan_embed_ga([3])
    doc = ActionDocument(action=action)
    again = parse_document(serialize_document(doc))
    assert again.action == action


def test_projective_point_scale_equality():
    a = ProjectivePoint((1, 2, 0))
    b = ProjectivePoint((Fraction(1, 2), 1, 0))
    assert a == b and hash(a) == hash(b)
    with pytest.raises(MalformedDocument):
        ProjectivePoint((0, 0))


def test_generators_verified_nilpotent_for_all_builtins():
    for _, doc in builtin_documents():
        u = doc.action.unipotent
        if u is None:
            continue
        for g in u.generators:
            assert g.is_nilpotent()
