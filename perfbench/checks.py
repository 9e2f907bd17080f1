"""Output checks, run after the timed loop.

Every check here is independent of stabloci: it recomputes what it
needs from the job's generated inputs with its own arithmetic.  A check
returns a list of problems; an empty list means the output is accepted.
Goldens are compared key by key: every key of a golden must be present
with an equal value, and extra keys in the output are allowed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

from workloads import Job

STATUSES = ("stable", "strictly-semistable", "unstable")


def golden_diff(golden, actual, path: str = "$") -> str | None:
    """First place where `actual` fails to contain `golden`, or None."""
    if isinstance(golden, dict):
        if not isinstance(actual, dict):
            return f"{path}: expected an object"
        for key, value in golden.items():
            if key not in actual:
                return f"{path}.{key}: missing"
            problem = golden_diff(value, actual[key], f"{path}.{key}")
            if problem:
                return problem
        return None
    if isinstance(golden, list):
        if not isinstance(actual, list) or len(actual) != len(golden):
            return f"{path}: expected a list of {len(golden)}"
        for i, (g, a) in enumerate(zip(golden, actual)):
            problem = golden_diff(g, a, f"{path}[{i}]")
            if problem:
                return problem
        return None
    if golden != actual or type(golden) is not type(actual):
        return f"{path}: expected {golden!r}, got {actual!r}"
    return None


def _support(coords) -> list[int]:
    return [i for i, c in enumerate(coords) if c != 0]


def _twisted(weights, twist):
    return [tuple(Fraction(w) - t for w, t in zip(wv, twist)) for wv in weights]


def _frs(xs) -> list[Fraction]:
    return [Fraction(x) for x in xs]


# -- strata -----------------------------------------------------------------


def check_strata(job: Job, out: dict) -> list[str]:
    weights, twist = job.expect["weights"], job.expect["twist"]
    count = len(weights)
    problems = []
    if _frs(out["chi"]) != list(twist):
        problems.append("chi differs from the requested twist")
    seen = []
    norms = []
    supports_of = {}
    for idx in out["indices"]:
        beta = tuple(_frs(idx["beta"]))
        norm = Fraction(idx["norm_sq"])
        if norm != sum(b * b for b in beta):
            problems.append(f"norm_sq of {idx['beta']} is not |beta|^2")
        norms.append(norm)
        supports_of[beta] = {tuple(s) for s in idx["supports"]}
        seen.extend(tuple(s) for s in idx["supports"])
    if norms != sorted(norms):
        problems.append("indices are not sorted by norm_sq")
    every = {s for size in range(1, count + 1) for s in combinations(range(count), size)}
    if len(seen) != len(every) or set(seen) != every:
        problems.append("supports do not partition the nonempty subsets")
    panel = dict(job.expect["points"])
    if [r["point"] for r in out["rows"]] != list(panel):
        problems.append("rows do not follow the point panel")
    for row in out["rows"]:
        beta = tuple(_frs(row["beta"]))
        if tuple(_support(panel.get(row["point"], ()))) not in supports_of.get(beta, ()):
            problems.append(f"point {row['point']} is not in the stratum it was assigned")
    tw = _twisted(weights, twist)
    for beta, supports in supports_of.items():
        # the closest point b of conv(S) satisfies <b, w> >= |b|^2 on S, with
        # equality somewhere: the face it lies on
        pairing = [sum((b * w for b, w in zip(beta, wv)), Fraction(0)) for wv in tw]
        nsq = sum(b * b for b in beta)
        if any(min(pairing[i] for i in support) != nsq for support in supports):
            problems.append(f"{list(map(str, beta))} is not the closest point of all its supports")
    nonzero = [b for b in supports_of if any(b)]
    if sorted(tuple(_frs(q["beta"])) for q in out["quotients"]) != sorted(nonzero):
        problems.append("quotients do not cover the nonzero indices")
    for q in out["quotients"]:
        beta = _frs(q["beta"])
        nsq = sum(b * b for b in beta)
        pairing = [sum((b * w for b, w in zip(beta, wv)), Fraction(0)) for wv in tw]
        expected = (
            [i for i, p in enumerate(pairing) if p == nsq],
            [i for i, p in enumerate(pairing) if p > nsq],
            [i for i, p in enumerate(pairing) if p < nsq],
        )
        if (q["z_indices"], q["above_indices"], q["below_indices"]) != expected:
            problems.append(f"pairing split of {q['beta']} is wrong")
    return problems


# -- invariants ---------------------------------------------------------------


def _multiset_counts(weights, degree: int) -> dict[int, int]:
    """Number of degree-d monomials of each total weight."""
    table = [dict() for _ in range(degree + 1)]
    table[0][0] = 1
    for w in weights:
        # unbounded multiplicity of this coordinate: process degrees upwards
        for d in range(1, degree + 1):
            for total, n in table[d - 1].items():
                key = total + w
                table[d][key] = table[d].get(key, 0) + n
    return table[degree]


def sl2_dimension(n: int, d: int) -> int:
    """Cayley-Sylvester: weight-0 minus weight-2 multiplicity in S^d(S^n)."""
    counts = _multiset_counts([n - 2 * j for j in range(n + 1)], d)
    return counts.get(0, 0) - counts.get(2, 0)


def ga_dimension(weights, d: int) -> int:
    """Kernel of a Jordan-form Ga generator on degree d: weight 0 plus weight 1."""
    counts = _multiset_counts(weights, d)
    return counts.get(0, 0) + counts.get(1, 0)


def check_sl2(job: Job, out: dict) -> list[str]:
    n, d = job.expect["n"], job.expect["d"]
    rows = out["dimensions"]
    problems = []
    if [r["degree"] for r in rows] != list(range(1, d + 1)):
        problems.append("degrees are not 1..max_degree")
    for r in rows:
        expected = sl2_dimension(n, r["degree"])
        if r["dim"] != expected or r["oracle"] != expected:
            problems.append(f"degree {r['degree']}: dim {r['dim']}, oracle {r['oracle']}, Cayley-Sylvester {expected}")
    return problems


def check_ga(job: Job, out: dict) -> list[str]:
    d = job.expect["d"]
    problems = []
    rows = out["dimensions"]
    if out["max_degree"] != d or [r["degree"] for r in rows] != list(range(1, d + 1)):
        problems.append("degrees are not 1..max_degree")
    for r in rows:
        if not 0 <= r["from_products"] <= r["dim"] or r["new_generators"] != r["dim"] - r["from_products"]:
            problems.append(f"degree {r['degree']}: generator count does not add up")
        if job.expect["jordan"] and r["dim"] != ga_dimension(job.expect["weights"], r["degree"]):
            problems.append(f"degree {r['degree']}: dim {r['dim']} differs from the weight count")
    if len(out["rows"]) != job.expect["panel"]:
        problems.append("rows do not follow the point panel")
    for r in out["rows"]:
        # the search stops at the first nonvanishing degree, which is then its bound
        expected = (r["bound"], r["bound"]) if r["nonvanishing"] else (None, d)
        if (r["witness_degree"], r["bound"]) != expected or not 1 <= r["bound"] <= d:
            problems.append(f"point {r['point']}: inconsistent nonvanishing row")
    return problems


# -- verdicts -----------------------------------------------------------------


def _seed_of(job: Job) -> int:
    return int(next(a for a in job.argv if a.startswith("--seed=")).split("=")[1])


def _heuristic_rows_carry_seed(job: Job, rows) -> list[str]:
    seed = _seed_of(job) if job.kind != "stability" else 0
    return [f"heuristic row {r['point']} lacks its seed" for r in rows if r["heuristic"] and r.get("seed") != seed]


def check_stability(job: Job, out: dict) -> list[str]:
    weights, twist = job.expect["weights"], job.expect["twist"]
    tw = _twisted(weights, twist)
    panel = job.expect["points"]
    problems = _heuristic_rows_carry_seed(job, out["rows"])
    if [r["point"] for r in out["rows"]] != [name for name, _ in panel]:
        return problems + ["rows do not follow the point panel"]
    for row, (name, coords) in zip(out["rows"], panel):
        support = _support(coords)
        if row["support"] != support or row["status"] not in STATUSES:
            problems.append(f"point {name}: bad support or status")
            continue
        if len(twist) == 1:
            values = [tw[i][0] for i in support]
            lo, hi = min(values), max(values)
            expected = "stable" if lo < 0 < hi else "strictly-semistable" if lo <= 0 <= hi else "unstable"
            if row["status"] != expected:
                problems.append(f"point {name}: {row['status']}, sign test says {expected}")
    return problems


def check_chamber(job: Job, out: dict) -> list[str]:
    values = sorted({Fraction(w) - job.expect["chi"] for w in job.expect["weights"]})
    lo, hi = values[:2]
    problems = []
    if (Fraction(out["chamber"]["lo"]), Fraction(out["chamber"]["hi"])) != (lo, hi):
        problems.append("lowest chamber differs from the twisted weights")
    if out["contains_zero_interior"] is not True:
        problems.append("midpoint twist is not reported as adapted")
    if _frs(out["omega"]) != values:
        problems.append("omega is not the sorted twisted weights")
    window = out["window"]
    if (Fraction(window["lo"]), Fraction(window["hi"]), Fraction(window["well_adapted"])) != (lo, hi, (lo + hi) / 2):
        problems.append("adapted window differs from the chamber")
    return problems


def _translate_rows(out):
    return [r for r in out["rows"] if r["point"].startswith("t")]


def check_graded(job: Job, out: dict) -> list[str]:
    problems = _heuristic_rows_carry_seed(job, out["rows"])
    seed = _seed_of(job)
    for key, cond in out["conditions"].items():
        if not cond["exact"] and cond["seed"] != seed:
            problems.append(f"sampled condition {key} lacks its seed")
    if [r["point"] for r in out["rows"]] != [name for name, _ in job.expect["points"]]:
        return problems + ["rows do not follow the point panel"]
    for r in out["rows"]:
        if r["in_x0_min"] is not True:
            problems.append(f"point {r['point']} should flow to the minimal locus")
    for r in _translate_rows(out):
        # a translate of a minimal-locus point lies in the sweep: it is
        # unstable, and only a heuristic sweep may miss that
        if r["status"] != "unstable" and not (r["heuristic"] and job.expect["generators"] > 1):
            problems.append(f"translate {r['point']} reported {r['status']}")
    return problems


def check_hatstable(job: Job, out: dict) -> list[str]:
    problems = _heuristic_rows_carry_seed(job, out["rows"])
    q = Fraction(next(a for a in job.argv if a.startswith("--q=")).split("=")[1])
    if [r["point"] for r in out["rows"]] != [name for name, _ in job.expect["points"]]:
        return problems + ["rows do not follow the point panel"]
    # with the computed line power, q = 1 constrains exactly the coordinates
    # above the minimal weight (translates are killed there), while q in
    # [0, 1) constrains a minimal coordinate, which no translate loses
    expected = "unstable" if q == 1 else "stable"
    for r in _translate_rows(out):
        if r["status"] != expected:
            problems.append(f"translate {r['point']} at q={q}: {r['status']}, expected {expected}")
    return problems


CHECKS = {
    "strata": check_strata,
    "sl2": check_sl2,
    "ga": check_ga,
    "stability": check_stability,
    "chamber": check_chamber,
    "graded": check_graded,
    "hatstable": check_hatstable,
}


def check_job(job: Job, code: int, output: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}: {output.strip()[:200]}"]
    try:
        out = json.loads(output)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    try:
        return CHECKS[job.kind](job, out)
    except (KeyError, TypeError, ValueError, StopIteration) as exc:
        return [f"malformed output: {exc!r}"]
