"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import random
import time
from fractions import Fraction
from functools import wraps
from itertools import combinations

from oracles import certify_closest_point, matrix_rank, oracle_hull_position
from stabloci.actions import ProjectivePoint, TorusWeights
from stabloci.cli import EXIT_OK, run
from stabloci.corpus import builtin_documents, render_corpus
from stabloci.graded import (
    ConditionVerdict,
    adapted_window,
    blowup_centre,
    check_condition_cstar,
    hat_stable_minplus,
    m_lower_bound,
    q_hat_stable,
)
from stabloci.invariants import (
    invariant_nonvanishing_verdict,
    monomials_of_degree,
    points_at_infinity_classifier,
    product_sl2_invariants,
    restriction_to_slice,
    sl2_invariants_binary_form,
    sl2_weight_counting_dimension,
    unipotent_invariants,
)
from stabloci.linalg import vec, zero_vec
from stabloci.poly import MultiPoly
from stabloci.torus import (
    Status,
    stratification_indices,
    stratum_of,
    torus_verdict,
)
from stabloci.actions import jordan_embed_ga, parse_document, serialize_document
import dataclasses
from stabloci.actions import GradingData


def criterion(number: int, name: str, budget_s: float):
    def decorate(fn):
        @wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                detail = fn()
            except BaseException:
                print(f"ACCEPTANCE {number} {name}: FAIL")
                raise
            elapsed = time.perf_counter() - start
            print(f"ACCEPTANCE {number} {name}: PASS ({detail}; {elapsed:.2f}s)")
            assert elapsed < budget_s, f"budget {budget_s}s exceeded: {elapsed:.2f}s"

        return wrapper

    return decorate


@criterion(1, "convex-hull oracle equivalence", 10.0)
def test_criterion_1_hull_oracle_equivalence():
    rng = random.Random(20260809)
    status_of = {
        "interior": Status.STABLE,
        "boundary": Status.STRICTLY_SEMISTABLE,
        "outside": Status.UNSTABLE,
    }
    disagreements = 0
    for _ in range(1000):
        rank = rng.randint(1, 3)
        count = rng.randint(1, 6)
        weights = tuple(
            tuple(rng.randint(-4, 4) for _ in range(rank)) for _ in range(count)
        )
        tw = TorusWeights(rank=rank, weights=weights)
        twist = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(rank))
        coords = [Fraction(rng.randint(-2, 2)) for _ in range(count)]
        if all(c == 0 for c in coords):
            coords[rng.randrange(count)] = Fraction(1)
        x = ProjectivePoint(coords)
        verdict = torus_verdict(tw, twist, x)
        shifted = [
            tuple(Fraction(w) - t for w, t in zip(weights[i], twist))
            for i in x.support()
        ]
        expected = status_of[oracle_hull_position(shifted).value]
        if verdict.status != expected:
            disagreements += 1
    assert disagreements == 0
    return "1000 instances, 0 disagreements"


def _cubic_from_roots(inf_mult: int, finite_roots) -> ProjectivePoint:
    """Binary cubic with the fixed point as a root of the given multiplicity
    and the listed finite roots (with repetition)."""
    s = MultiPoly(2, {(1, 0): 1})
    form = MultiPoly(2, {(0, 0): 1})
    for _ in range(inf_mult):
        form = form.mul(s)
    for alpha in finite_roots:
        form = form.mul(MultiPoly(2, {(1, 0): alpha, (0, 1): 1}))
    coords = [Fraction(0)] * 4
    for (es, et), c in form.terms.items():
        coords[et] = c
    return ProjectivePoint(coords)


@criterion(2, "cubic infinity classifier agrees with invariant detection", 5.0)
def test_criterion_2_cubics_infinity_vs_invariants():
    action = jordan_embed_ga([3])
    spaces = [unipotent_invariants(action.unipotent, d) for d in range(1, 5)]
    panel = []
    for roots in [(1, 2, 3), (1, 2, -1), (2, 3, 5), (-1, 1, 7)]:
        panel.append(_cubic_from_roots(0, roots))
    for roots in [(1, 1, 2), (3, 3, -1), (5, 5, 2)]:
        panel.append(_cubic_from_roots(0, roots))
    for roots in [(1, 1, 1), (-2, -2, -2)]:
        panel.append(_cubic_from_roots(0, roots))
    for roots in [(1, 2), (3, -4), (1, 1), (5, 5)]:
        panel.append(_cubic_from_roots(1, roots))
    for roots in [(1,), (7,), (-3,)]:
        panel.append(_cubic_from_roots(2, roots))
    panel.append(_cubic_from_roots(3, []))
    for roots in [(0, 1, 2), (0, 0, 4), (0,)]:
        panel.append(_cubic_from_roots(3 - len(roots), roots))
    assert len(panel) >= 20
    mismatches = []
    for x in panel:
        classifier = points_at_infinity_classifier(3, x)
        predicted = classifier.multiplicity_at_infinity <= 1
        detected = invariant_nonvanishing_verdict(spaces, x).found
        if predicted != detected:
            mismatches.append((x, classifier))
    assert not mismatches, mismatches
    return f"{len(panel)} cubics, classifier == invariant detection"


@criterion(3, "restriction isomorphism witness spans the cubic invariants", 60.0)
def test_criterion_3_restriction_spans():
    n = 3
    action = jordan_embed_ga([n])
    for d in range(1, 5):
        target = unipotent_invariants(action.unipotent, d).dim
        monos = monomials_of_degree(n + 1, d)
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        spanned_at = None
        for a in range(0, 3 * d + 1):
            space = product_sl2_invariants(n, a, d)
            restricted = restriction_to_slice(space, n)
            for p in restricted.basis:
                row = [Fraction(0)] * len(monos)
                for exp, c in p.terms.items():
                    row[index[exp]] = c
                rows.append(row)
            if matrix_rank(rows) == target:
                spanned_at = a
                break
        assert spanned_at is not None, f"degree {d} not spanned up to a = {3 * d}"
    return "degrees 1..4 spanned exactly"


@criterion(4, "reductive invariant dimensions match the counting oracle", 30.0)
def test_criterion_4_sl2_dimension_oracle():
    quartic = [sl2_invariants_binary_form(4, d).dim for d in (1, 2, 3)]
    assert quartic == [0, 1, 1]
    checked = 0
    for n in range(1, 5):
        for d in range(1, 7):
            assert (
                sl2_invariants_binary_form(n, d).dim
                == sl2_weight_counting_dimension(n, d)
            ), (n, d)
            checked += 1
    return f"{checked} (n,d) pairs, quartic table (0,1,1)"


@criterion(5, "classification independent of the adapted character", 5.0)
def test_criterion_5_adapted_twist_invariance():
    actions_checked = 0
    for name, doc in builtin_documents():
        g = doc.action.grading
        if g is None or g.is_trivial():
            continue
        window = adapted_window(GradingData(gm_weights=g.gm_weights))
        chi_a = window.lo + (window.hi - window.lo) / 4
        chi_b = window.lo + (window.hi - window.lo) * 3 / 4
        tables = []
        for chi in (chi_a, chi_b):
            grading = GradingData(gm_weights=g.gm_weights, character_twist=chi)
            action = dataclasses.replace(doc.action, grading=grading)
            tables.append(
                [hat_stable_minplus(action, p, seed=7).status for _, p in doc.points]
            )
        assert tables[0] == tables[1], name
        actions_checked += 1
    assert actions_checked >= 5
    return f"{actions_checked} graded corpus actions, identical tables"


@criterion(6, "trivial extension reproduces plain verdicts", 5.0)
def test_criterion_6_trivial_extension():
    for name, doc in builtin_documents():
        if doc.action.grading is not None or doc.action.unipotent is not None:
            continue
        rank = doc.action.torus.rank
        for q in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            m = m_lower_bound(doc.action, q)
            for _, x in doc.points:
                plain = torus_verdict(doc.action.torus, zero_vec(rank), x).status
                assert q_hat_stable(doc.action, q, m, x).status == plain, (name, q)
        for q in (Fraction(-1), Fraction(2)):
            m = m_lower_bound(doc.action, q)
            for _, x in doc.points:
                assert q_hat_stable(doc.action, q, m, x).status == Status.UNSTABLE
    return "plain torus panels reproduced for q in (0,1), empty outside [0,1]"


@criterion(7, "stratification matches brute force with the closure property", 60.0)
def test_criterion_7_stratification_axioms():
    rng = random.Random(41)
    weight_sets = []
    for lo_hi in [(-2, 2), (-3, 3)]:
        for count in (1, 2, 3):
            for _ in range(3):
                weight_sets.append(
                    (1, tuple((rng.randint(*lo_hi),) for _ in range(count)))
                )
    for _ in range(24):
        rank = rng.randint(1, 2)
        count = rng.randint(1, 8)
        weight_sets.append(
            (rank, tuple(tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(count)))
        )
    supports_checked = 0
    for rank, weights in weight_sets:
        tw = TorusWeights(rank=rank, weights=weights)
        twist = zero_vec(rank)
        strat = stratification_indices(tw, twist)
        support_norm = {}
        for idx, supports in strat.assignments:
            for support in supports:
                support_norm[support] = idx.norm_sq
                pts = [vec(weights[i]) for i in support]
                assert certify_closest_point(pts, idx.beta), (weights, support)
                supports_checked += 1
        # zero stratum exactly on the not-unstable points
        for support in support_norm:
            coords = [Fraction(1 if i in support else 0) for i in range(len(weights))]
            x = ProjectivePoint(coords)
            unstable = torus_verdict(tw, twist, x).status == Status.UNSTABLE
            assert stratum_of(tw, twist, x).is_zero() == (not unstable)
        # combinatorial closure: sub-supports never land strictly closer
        for support, nsq in support_norm.items():
            for size in range(1, len(support)):
                for sub in combinations(support, size):
                    assert support_norm[sub] >= nsq
    return f"{len(weight_sets)} weight sets, {supports_checked} supports certified, 0 violations"


@criterion(8, "conditions and blow-up centre on the cubic action", 5.0)
def test_criterion_8_conditions_and_centre():
    action = jordan_embed_ga([3], chi=Fraction(-2))
    report = check_condition_cstar(action)
    assert report.verdict == ConditionVerdict.HOLDS and report.exact
    centre = blowup_centre(action)
    assert centre.equations
    fixed_points = [
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(-5), Fraction(0), Fraction(0), Fraction(0)),
    ]
    for z in fixed_points:
        assert all(eq.evaluate(z) == 0 for eq in centre.equations)
    rng = random.Random(13)
    generic = tuple(Fraction(rng.randint(1, 50)) for _ in range(4))
    assert any(eq.evaluate(generic) != 0 for eq in centre.equations)
    return "condition holds exactly; centre equations separate fixed from generic"


@criterion(9, "determinism and document round-trips", 5.0)
def test_criterion_9_determinism_roundtrip():
    from pathlib import Path

    corpus_dir = Path(__file__).resolve().parent.parent / "corpus"
    jobs = [
        ["graded", "--action", str(corpus_dir / "jordan_3.json"), "--chi", "-2", "--seed", "11"],
        ["strata", "--action", str(corpus_dir / "torus_rank2.json"), "--seed", "11"],
        ["stability", "--action", str(corpus_dir / "torus_line.json")],
        ["invariants", "--sl2", "3", "--max-degree", "4"],
    ]
    for argv in jobs:
        first_code, first_out = run(argv)
        second_code, second_out = run(argv)
        assert first_code == EXIT_OK
        assert (first_code, first_out) == (second_code, second_out)
        payload = json.loads(first_out)
        assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == first_out
    for name, doc in builtin_documents():
        text = serialize_document(doc)
        assert serialize_document(parse_document(text)) == text, name
    for name, text in render_corpus():
        committed = (corpus_dir / name).read_text()
        assert committed == text, name
    return "byte-identical reruns; corpus round-trips bit-exactly"
