"""Torus verdicts, chambers, limits, and the unstable stratification."""

import hashlib
import json
import random
import tempfile
from fractions import Fraction
from itertools import combinations
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    certify_closest_point,
    reference_closest_point,
    reference_closest_points_by_subset,
    reference_stratification,
    vec_add,
    vec_sub,
)
from stabloci.actions import GradingData, ProjectivePoint, TorusWeights
from stabloci.cli import run
from stabloci.errors import EnumerationBoundExceeded, UnknownIndex
from stabloci.hull import HullPosition, closest_point_to_origin, closest_points_by_subset
from stabloci.linalg import dot, norm_sq, vec, zero_vec
from stabloci.torus import (
    Status,
    StratumIndex,
    stratification_indices,
    limit_point,
    stratum_of,
    stratum_quotient_data,
    torus_verdict,
)

LINE = TorusWeights(rank=1, weights=((-1,), (0,), (2,)))
ZERO1 = zero_vec(1)


def point(*coords):
    return ProjectivePoint(coords)


def test_verdict_examples():
    assert torus_verdict(LINE, ZERO1, point(1, 1, 1)).status == Status.STABLE
    assert torus_verdict(LINE, ZERO1, point(0, 1, 0)).status == Status.STRICTLY_SEMISTABLE
    right = TorusWeights(rank=1, weights=((1,), (2,)))
    assert torus_verdict(right, ZERO1, point(1, 1)).status == Status.UNSTABLE
    assert torus_verdict(right, ZERO1, point(1, 0)).status == Status.UNSTABLE


def test_verdict_matches_witness_position():
    v = torus_verdict(LINE, ZERO1, point(1, 1, 1))
    assert v.hull_position == HullPosition.INTERIOR
    v2 = torus_verdict(LINE, ZERO1, point(0, 1, 0))
    assert v2.hull_position == HullPosition.BOUNDARY


def test_lowest_bounded_chamber_examples():
    g = GradingData(gm_weights=(0, 0, 1, 2))
    assert g.chamber() == (Fraction(0), Fraction(1))
    g2 = GradingData(gm_weights=(5, 5, 5))
    assert g2.chamber() == (Fraction(5), Fraction(5))
    g3 = GradingData(gm_weights=(-2, 3))
    assert g3.chamber() == (Fraction(-2), Fraction(3))


def test_chamber_uses_the_twist():
    g = GradingData(gm_weights=(0, 0, 1, 2), character_twist=Fraction(1, 2))
    assert g.chamber() == (Fraction(-1, 2), Fraction(1, 2))


def test_chamber_interior_examples():
    # chambers (-1, 2), (0, 1) and the single point 0
    assert GradingData(gm_weights=(-1, 2)).is_adapted()
    assert not GradingData(gm_weights=(0, 1)).is_adapted()
    assert GradingData(gm_weights=(0, 0)).is_adapted()


def test_limit_point_examples():
    steps = TorusWeights(rank=1, weights=((0,), (1,), (2,)))
    assert limit_point(steps, [1], point(1, 1, 1)) == point(1, 0, 0)
    assert limit_point(steps, [0], point(1, 1, 1)) == point(1, 1, 1)
    ties = TorusWeights(rank=1, weights=((1,), (1,), (3,)))
    assert limit_point(ties, [1], point(2, 5, 7)) == point(2, 5, 0)


def test_limit_point_idempotent_and_support_fixed():
    rng = random.Random(3)
    for _ in range(50):
        rank = rng.randint(1, 2)
        count = rng.randint(2, 5)
        tw = TorusWeights(
            rank=rank,
            weights=tuple(tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(count)),
        )
        lam = [rng.randint(-2, 2) for _ in range(rank)]
        coords = [Fraction(rng.randint(0, 3)) for _ in range(count)]
        if all(c == 0 for c in coords):
            coords[0] = Fraction(1)
        x = ProjectivePoint(coords)
        y = limit_point(tw, lam, x)
        assert limit_point(tw, lam, y) == y


def test_stratification_indices_examples():
    sym = TorusWeights(rank=1, weights=((-1,), (0,), (1,)))
    strat = stratification_indices(sym, ZERO1)
    betas = {idx.beta for idx in strat.indices}
    assert betas == {(Fraction(0),), (Fraction(-1),), (Fraction(1),)}
    assert [idx.norm_sq for idx in strat.indices] == [Fraction(0), Fraction(1), Fraction(1)]

    right = TorusWeights(rank=1, weights=((1,), (2,)))
    strat2 = stratification_indices(right, ZERO1)
    assert {idx.beta for idx in strat2.indices} == {(Fraction(1),), (Fraction(2),)}

    single = TorusWeights(rank=1, weights=((0,),))
    strat3 = stratification_indices(single, ZERO1)
    assert [idx.beta for idx in strat3.indices] == [(Fraction(0),)]


def test_stratification_respects_subset_cap():
    big = TorusWeights(rank=1, weights=tuple((i,) for i in range(9)))
    with pytest.raises(EnumerationBoundExceeded):
        stratification_indices(big, ZERO1, subset_cap=8)


def test_stratum_of_examples():
    sym = TorusWeights(rank=1, weights=((-1,), (0,), (1,)))
    assert stratum_of(sym, ZERO1, point(1, 0, 0)).beta == (Fraction(-1),)
    assert stratum_of(sym, ZERO1, point(1, 0, 1)).beta == (Fraction(0),)
    right = TorusWeights(rank=1, weights=((1,), (2,)))
    assert stratum_of(right, ZERO1, point(1, 1)).beta == (Fraction(1),)


def test_stratum_zero_iff_not_unstable():
    rng = random.Random(11)
    for _ in range(80):
        rank = rng.randint(1, 2)
        count = rng.randint(1, 6)
        tw = TorusWeights(
            rank=rank,
            weights=tuple(tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(count)),
        )
        twist = tuple(Fraction(rng.randint(-1, 1)) for _ in range(rank))
        coords = [Fraction(rng.randint(-2, 2)) for _ in range(count)]
        if all(c == 0 for c in coords):
            coords[-1] = Fraction(1)
        x = ProjectivePoint(coords)
        unstable = torus_verdict(tw, twist, x).status == Status.UNSTABLE
        assert stratum_of(tw, twist, x).is_zero() == (not unstable)


def test_stratum_quotient_data_examples():
    sym = TorusWeights(rank=1, weights=((-1,), (0,), (1,)))
    idx = StratumIndex.from_beta(vec([1]))
    data = stratum_quotient_data(sym, ZERO1, idx)
    assert data.z_indices == (2,)
    assert data.below_indices == (0, 1)  # pairings -1, 0 < |beta|^2 = 1
    assert data.above_indices == ()

    right = TorusWeights(rank=1, weights=((1,), (2,)))
    idx1 = StratumIndex.from_beta(vec([1]))
    data1 = stratum_quotient_data(right, ZERO1, idx1)
    assert data1.z_indices == (0,)
    assert data1.below_indices == ()
    assert data1.above_indices == (1,)  # pairing 2 > |beta|^2 = 1
    # adapted twist sits strictly inside the next pairing gap
    assert Fraction(1) < data1.adapted_twist[0] < Fraction(2)


def test_stratum_quotient_defining_condition():
    rng = random.Random(23)
    for _ in range(30):
        rank = rng.randint(1, 2)
        count = rng.randint(2, 6)
        tw = TorusWeights(
            rank=rank,
            weights=tuple(tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(count)),
        )
        twist = zero_vec(rank)
        strat = stratification_indices(tw, twist)
        for idx in strat.indices:
            if idx.is_zero():
                continue
            data = stratum_quotient_data(tw, twist, idx)
            for i in data.z_indices:
                pairing = sum(b * Fraction(w) for b, w in zip(idx.beta, tw.weights[i]))
                assert pairing == idx.norm_sq


def test_stratum_quotient_rejects_unknown_index():
    with pytest.raises(UnknownIndex):
        stratum_quotient_data(LINE, ZERO1, StratumIndex.from_beta(vec([7])))
    with pytest.raises(UnknownIndex):
        zero = StratumIndex.from_beta(vec([0]))
        stratum_quotient_data(LINE, ZERO1, zero)


def test_adapted_retwist_invariance_rank_one():
    # stable sets agree for any two characters inside the same window
    weights = TorusWeights(rank=1, weights=((-3,), (-1,), (1,), (3,)))
    panel = [
        point(1, 1, 1, 1),
        point(1, 0, 0, 0),
        point(0, 1, 1, 0),
        point(1, 0, 0, 1),
        point(0, 0, 1, 1),
    ]
    for lo, hi in [(Fraction(-3), Fraction(-1)), (Fraction(-1), Fraction(1))]:
        chi_a = lo + (hi - lo) / 3
        chi_b = lo + (hi - lo) * 2 / 3
        table_a = [torus_verdict(weights, (chi_a,), x).status == Status.STABLE for x in panel]
        table_b = [torus_verdict(weights, (chi_b,), x).status == Status.STABLE for x in panel]
        assert table_a == table_b


def test_stratification_matches_per_subset_oracle_and_closure():
    rng = random.Random(7)
    for _ in range(25):
        rank = rng.randint(1, 2)
        count = rng.randint(1, 8)
        weights = tuple(tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(count))
        tw = TorusWeights(rank=rank, weights=weights)
        strat = stratification_indices(tw, zero_vec(rank))
        support_norm = {}
        for idx, supports in strat.assignments:
            for support in supports:
                support_norm[support] = idx.norm_sq
                pts = [vec(weights[i]) for i in support]
                assert certify_closest_point(pts, idx.beta)
        # every sub-support of an admissible support lands on a stratum
        # at least as far from the origin
        for support, nsq in support_norm.items():
            for size in range(1, len(support)):
                for sub in combinations(support, size):
                    assert support_norm[sub] >= nsq


FOURTEEN_RANK_TWO = (
    (3, 0), (0, 2), (-2, 1), (-1, -3), (2, -2), (1, 4), (-4, 0),
    (0, -1), (5, 2), (-3, 3), (2, 1), (-1, 5), (4, -3), (1, 1),
)
# sha256 of the canonical text of this stratification, recorded with the
# per-support closest-point enumeration.
FOURTEEN_RANK_TWO_DIGEST = "f3b0982932e1804013f05ccc89ed1f69f44ee77643e59e0510cda49697fa69ff"


def test_stratification_partitions_fourteen_rank_two_weights():
    weights = [vec(w) for w in FOURTEEN_RANK_TWO]
    strat = stratification_indices(TorusWeights(rank=2, weights=FOURTEEN_RANK_TWO), zero_vec(2))
    supports = [s for _, group in strat.assignments for s in group]
    assert len(supports) == len(set(supports)) == 2 ** len(weights) - 1
    for _, group in strat.assignments:
        assert list(group) == sorted(group, key=lambda s: (len(s), s))
    norms = [idx.norm_sq for idx in strat.indices]
    assert norms == sorted(norms)
    rng = random.Random(14)
    for idx, group in strat.assignments:
        for support in rng.sample(group, min(3, len(group))):
            assert reference_closest_point([weights[i] for i in support]) == idx.beta
    text = "\n".join(
        f"{' '.join(map(str, idx.beta))};{idx.norm_sq};{group}" for idx, group in strat.assignments
    )
    assert hashlib.sha256(text.encode()).hexdigest() == FOURTEEN_RANK_TWO_DIGEST


_small_fraction = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def _torus_with_candidates(draw):
    """A small torus, a twist, and candidate indices, some of them bogus."""
    rank = draw(st.integers(1, 3))
    count = draw(st.integers(1, 7))
    weights = tuple(
        tuple(draw(st.integers(-3, 3)) for _ in range(rank)) for _ in range(count)
    )
    twist = draw(st.one_of(st.just(zero_vec(rank)), st.tuples(*[_small_fraction] * rank)))
    twisted = [vec_sub(vec(w), twist) for w in weights]
    candidates = [vec([0] * rank), vec([1] * (rank + 1))]
    for _ in range(draw(st.integers(1, 4))):
        subset = draw(st.sets(st.integers(0, count - 1), min_size=1))
        beta = closest_point_to_origin([twisted[i] for i in sorted(subset)])
        candidates.append(beta)
        shift = draw(st.tuples(*[_small_fraction] * rank))
        candidates.append(vec_add(beta, shift))
    candidates.append(draw(st.tuples(*[_small_fraction] * rank)))
    indices = [StratumIndex.from_beta(b) for b in candidates]
    beta = candidates[2]
    indices.append(StratumIndex(beta=beta, norm_sq=norm_sq(beta) + 1))
    return TorusWeights(rank=rank, weights=weights), twist, indices


@settings(max_examples=60, deadline=None)
@given(_torus_with_candidates())
def test_stratum_quotient_data_matches_enumeration_oracle(case):
    """Level-set index test against the full 2^N-subset enumeration."""
    tw, twist, candidates = case
    twisted = [vec_sub(vec(w), twist) for w in tw.weights]
    oracle = [StratumIndex(beta, nsq) for beta, nsq, _ in reference_stratification(twisted)]
    for idx in candidates:
        if idx not in oracle or idx.is_zero():
            with pytest.raises(UnknownIndex):
                stratum_quotient_data(tw, twist, idx)
            continue
        data = stratum_quotient_data(tw, twist, idx)
        pairings = [dot(idx.beta, w) for w in twisted]
        nsq = idx.norm_sq
        assert data.z_indices == tuple(i for i, p in enumerate(pairings) if p == nsq)
        assert data.above_indices == tuple(i for i, p in enumerate(pairings) if p > nsq)
        assert data.below_indices == tuple(i for i, p in enumerate(pairings) if p < nsq)
        above = sorted(p for p in pairings if p > nsq)
        delta = (above[0] - nsq) / (2 * nsq) if above else Fraction(0)
        assert data.delta == delta
        assert data.adapted_twist == tuple((1 + delta) * b for b in idx.beta)


@st.composite
def _weights_with_twist(draw, coordinate=_small_fraction):
    """Up to 8 weights of rank 1-3 drawn with replacement, and a twist,
    zero or with coordinates drawn from `coordinate`."""
    rank = draw(st.integers(1, 3))
    count = draw(st.integers(1, 8))
    pool = [tuple(draw(st.integers(-3, 3)) for _ in range(rank)) for _ in range(draw(st.integers(1, count)))]
    repeats = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(count - len(pool))]
    weights = tuple(draw(st.permutations(pool + repeats)))
    twist = draw(st.one_of(st.just(zero_vec(rank)), st.tuples(*[coordinate] * rank)))
    return TorusWeights(rank=rank, weights=weights), twist


@settings(max_examples=100, deadline=None)
@given(_weights_with_twist())
def test_stratification_matches_per_support_enumeration(case):
    """The subset table against one closest-point enumeration per subset."""
    tw, twist = case
    twisted = [vec_sub(vec(w), twist) for w in tw.weights]
    strat = stratification_indices(tw, twist)
    got = [(idx.beta, idx.norm_sq, supports) for idx, supports in strat.assignments]
    assert got == reference_stratification(twisted)
    distinct = list(dict.fromkeys(twisted))
    d = lcm(*(t.denominator for t in twist))
    table = closest_points_by_subset([tuple(int(x * d) for x in p) for p in distinct])
    assert sorted(table) == list(range(1, 2 ** len(distinct)))
    for mask, (v, q) in table.items():
        expected = reference_closest_point([p for i, p in enumerate(distinct) if mask >> i & 1])
        beta = tuple(Fraction(x, q * d) for x in v)
        assert beta == expected and Fraction(sum(x * x for x in v), (q * d) ** 2) == norm_sq(expected)


# Twist coordinates with denominators 1, 2, 3 or 6.
_mixed_fraction = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 6]))


@settings(max_examples=60, deadline=None)
@given(_weights_with_twist(_mixed_fraction))
def test_integer_stratification_matches_fraction_references(case):
    """The table over the scaled weights P_i = D w_i - D t against the
    Fraction table over the twisted weights, and the stratification against
    one Fraction closest-point enumeration per support."""
    tw, twist = case
    twisted = [vec_sub(vec(w), twist) for w in tw.weights]
    strat = stratification_indices(tw, twist)
    got = [(idx.beta, idx.norm_sq, supports) for idx, supports in strat.assignments]
    assert got == reference_stratification(twisted)
    d = lcm(*(t.denominator for t in twist))
    assert strat.weights == tuple(tuple(int(x * d) for x in w) for w in twisted)
    for (idx, _), (v, q) in zip(strat.assignments, strat.closest):
        assert tuple(Fraction(x, q * d) for x in v) == idx.beta
    reference = reference_closest_points_by_subset(list(dict.fromkeys(twisted)))
    table = closest_points_by_subset(list(dict.fromkeys(strat.weights)))
    assert sorted(table) == sorted(reference)
    for mask, (v, q) in table.items():
        beta, nsq = reference[mask]
        assert tuple(Fraction(x, q * d) for x in v) == beta
        assert Fraction(sum(x * x for x in v), (q * d) ** 2) == nsq


def _fractions(values):
    return tuple(Fraction(x) for x in values)


@settings(max_examples=40, deadline=None)
@given(_weights_with_twist(_mixed_fraction))
def test_printed_quotient_rows_match_the_rechecked_quotient_data(case):
    """`strata` takes each quotient row from the table without a second
    proof; `stratum_quotient_data` re-proves the index by its level set."""
    tw, twist = case
    doc = {
        "bounds": {"bidegree_cap": 16, "max_degree": 12, "product_m": 0, "subset_cap": 16},
        "grading": None,
        "label": "mixed",
        "n": tw.n,
        "points": [],
        "torus": {"rank": tw.rank, "weights": [list(w) for w in tw.weights]},
        "unipotent": None,
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        code, out = run(["strata", "--action", str(path), "--chi=" + ",".join(map(str, twist))])
    assert code == 0
    payload = json.loads(out)
    nonzero = [idx for idx in stratification_indices(tw, twist).indices if not idx.is_zero()]
    assert [_fractions(row["beta"]) for row in payload["quotients"]] == [idx.beta for idx in nonzero]
    for row, idx in zip(payload["quotients"], nonzero):
        data = stratum_quotient_data(tw, twist, idx)
        assert row["z_indices"] == list(data.z_indices)
        assert row["above_indices"] == list(data.above_indices)
        assert row["below_indices"] == list(data.below_indices)
        assert _fractions(row["adapted_twist"]) == data.adapted_twist
        assert Fraction(row["delta"]) == data.delta
