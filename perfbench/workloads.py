"""Seeded job lists for the three benchmark workloads.

Everything here is standard library only and never imports stabloci:
the program under test sees nothing but the documents and argv built
here.  A workload is an endless sequence of passes; pass `i` of seed
`s` is generated from its own `random.Random`, so the same seed always
gives the same jobs, and every pass has the same skeleton (the same
number of jobs of each kind and size) so that any whole number of
passes is a balanced mix.

Inputs left out on purpose, because at this commit a single such job
takes from half a minute to hours (or hangs), far longer than a run:

* `strata` on tori with 10 or more weights, and at the documented
  `subset_cap` of 16;
* `graded --action jordan_1 --chi 0` on a point near 1e14, which hangs
  in `rational_roots`.

Whoever fixes one of these adds it here as a workload of its own.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_SEED = 0
WORKLOADS = ("strata", "invariants", "verdicts")


@dataclass(frozen=True)
class Job:
    """One CLI call.  `argv` names files by their key in `files`."""

    id: str
    kind: str
    argv: tuple[str, ...]
    files: tuple[tuple[str, str], ...] = ()
    expect: dict = field(default_factory=dict, compare=False, hash=False)

    def resolved_argv(self, workdir: str) -> list[str]:
        names = {name for name, _ in self.files}
        return [f"{workdir}/{a}" if a in names else a for a in self.argv]


# -- rationals and documents ---------------------------------------------


def fr(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _document(label, torus_weights, grading=None, generators=(), adjoint=(), points=(), max_degree=12):
    """An action document; a grading gets twist 0 (jobs pass theirs with --chi)."""
    rank = len(torus_weights[0])
    doc = {
        "label": label,
        "n": len(torus_weights) - 1,
        "torus": {"rank": rank, "weights": [list(w) for w in torus_weights]},
        "grading": None,
        "unipotent": None,
        "points": [{"name": name, "coords": [fr(c) for c in coords]} for name, coords in points],
        "bounds": {"max_degree": max_degree, "product_m": 0, "subset_cap": 16, "bidegree_cap": 16},
    }
    if grading is not None:
        doc["grading"] = {"gm_weights": list(grading), "chi": "0"}
    if generators:
        doc["unipotent"] = {
            "generators": [[[fr(x) for x in row] for row in g] for g in generators],
            "adjoint_weights": list(adjoint),
        }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _panel_file(points) -> str:
    return json.dumps([{"name": name, "coords": [fr(c) for c in coords]} for name, coords in points]) + "\n"


# -- graded actions --------------------------------------------------------


@dataclass(frozen=True)
class GradedAction:
    label: str
    weights: tuple[int, ...]
    generators: tuple[tuple[tuple[Fraction, ...], ...], ...]
    adjoint: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.weights)

    def min_indices(self) -> tuple[int, ...]:
        low = min(self.weights)
        return tuple(i for i, w in enumerate(self.weights) if w == low)

    def adapted_chi(self) -> Fraction:
        """Midpoint of the lowest chamber of the grading."""
        lo, hi = sorted(set(self.weights))[:2]
        return Fraction(lo + hi, 2)

    def document(self, max_degree=12) -> str:
        return _document(
            self.label,
            [(w,) for w in self.weights],
            grading=self.weights,
            generators=self.generators,
            adjoint=self.adjoint,
            max_degree=max_degree,
        )


def _zero(size):
    return [[Fraction(0)] * size for _ in range(size)]


def jordan(blocks) -> GradedAction:
    """Additive group on a sum of symmetric powers (one Jordan block each)."""
    weights = []
    for k in blocks:
        weights.extend(k - 2 * j for j in range(k + 1))
    rows = _zero(len(weights))
    offset = 0
    for k in blocks:
        for j in range(1, k + 1):
            rows[offset + j - 1][offset + j] = Fraction(j)
        offset += k + 1
    label = "ga_jordan_" + "_".join(str(k) for k in blocks)
    return GradedAction(label, tuple(weights), (tuple(map(tuple, rows)),), (2,))


def jet(k) -> GradedAction:
    """Reparametrisation jets of order k (k - 1 generators)."""
    gens = []
    for m in range(1, k):
        rows = _zero(k)
        for j in range(1, k - m + 1):
            rows[j + m - 1][j - 1] = Fraction(j)
        gens.append(tuple(map(tuple, rows)))
    return GradedAction(f"jet_group_{k}", tuple(range(1, k + 1)), tuple(gens), tuple(range(1, k)))


def aut_p112() -> GradedAction:
    gens = []
    for i in range(3):
        rows = _zero(4)
        rows[i][3] = Fraction(1)
        gens.append(tuple(map(tuple, rows)))
    return GradedAction("aut_p112", (2, 2, 2, 0), tuple(gens), (2, 2, 2))


def graded_action(spec) -> GradedAction:
    kind, arg = spec
    if kind == "jordan":
        return jordan(arg)
    if kind == "jet":
        return jet(arg)
    return aut_p112()


def _mat_vec(m, v):
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m]


def _exp_apply(gen, s, v):
    """exp(s N) v for a nilpotent N."""
    out = list(v)
    term = list(v)
    for i in range(1, len(v) + 1):
        term = [s * x / i for x in _mat_vec(gen, term)]
        if not any(term):
            break
        out = [a + b for a, b in zip(out, term)]
    return out


def _translate(action: GradedAction, params, v):
    """exp(s_1 N_1) ... exp(s_u N_u) v, the CLI's coordinates of the second kind."""
    for gen, s in reversed(list(zip(action.generators, params))):
        v = _exp_apply(gen, s, v)
    return v


def _small_nonzero(rng, bound=3) -> int:
    return rng.choice([x for x in range(-bound, bound + 1) if x])


def _small_rational(rng) -> Fraction:
    return Fraction(_small_nonzero(rng), rng.choice((1, 2)))


def graded_panel(rng, action: GradedAction, size: int):
    """Half generic points, half group translates of minimal-locus points."""
    points = []
    low = action.min_indices()
    for i in range(size // 2):
        points.append((f"g{i}", [Fraction(_small_nonzero(rng)) for _ in range(action.size)]))
    for i in range(size - size // 2):
        z = [Fraction(_small_nonzero(rng)) if j in low else Fraction(0) for j in range(action.size)]
        params = [_small_rational(rng) for _ in action.generators]
        points.append((f"t{i}", _translate(action, params, z)))
    return points


# -- tori ------------------------------------------------------------------


def torus_weights(rng, rank: int, count: int, distinct: int):
    """`count` weights with |w| <= 3 drawn from `distinct` distinct vectors."""
    pool = set()
    while len(pool) < distinct:
        pool.add(tuple(rng.randint(-3, 3) for _ in range(rank)))
    pool = sorted(pool)
    rng.shuffle(pool)
    weights = pool + [rng.choice(pool) for _ in range(count - distinct)]
    rng.shuffle(weights)
    return weights


def torus_twist(rng, rank: int, zero: bool):
    if zero:
        return [Fraction(0)] * rank
    return [Fraction(rng.randint(-2, 2), rng.choice((2, 3))) for _ in range(rank)]


def torus_panel(rng, count: int, size: int, prefix="p"):
    """Points whose support sizes run evenly from 1 to `count`."""
    points = []
    for i in range(size):
        k = 1 + round((count - 1) * i / max(size - 1, 1))
        support = rng.sample(range(count), k)
        points.append(
            (f"{prefix}{i}", [Fraction(_small_nonzero(rng)) if j in support else Fraction(0) for j in range(count)])
        )
    return points


def _chi_flag(twist) -> str:
    return "--chi=" + ",".join(fr(t) for t in twist)


# -- workloads -------------------------------------------------------------

# (rank, weight count, distinct weight vectors, jobs per pass)
STRATA_CELLS = (
    (1, 5, 5, 8), (1, 6, 5, 8), (1, 7, 5, 8), (1, 8, 6, 8),
    (2, 5, 5, 5), (2, 6, 5, 5), (2, 7, 5, 3), (2, 8, 5, 2),
    (3, 5, 5, 3), (3, 6, 5, 2),
)
STRATA_PANEL = 6


def strata_pass(seed: int, index: int) -> list[Job]:
    rng = random.Random(f"strata:{seed}:{index}")
    jobs = []
    for rank, count, distinct, reps in STRATA_CELLS:
        for r in range(reps):
            weights = torus_weights(rng, rank, count, distinct)
            twist = torus_twist(rng, rank, zero=(r % 2 == 0))
            points = torus_panel(rng, count, STRATA_PANEL)
            doc = _document(f"torus_r{rank}_n{count}", weights, points=points)
            name = f"s{index}_{len(jobs)}.json"
            jobs.append(
                Job(
                    id=f"strata/{index}/{len(jobs)}",
                    kind="strata",
                    argv=("strata", "--action", name, _chi_flag(twist)),
                    files=((name, doc),),
                    expect={"weights": weights, "twist": twist, "points": points},
                )
            )
    rng.shuffle(jobs)
    return jobs


# (form degree n, table degree d, jobs per pass) for `invariants --sl2`;
# with the Jordan tables below, int_kernel and the wide rref of
# generator_degree_report each take over a quarter of the traced self time
SL2_TABLES = (
    (5, 6, 1), (5, 7, 1), (5, 8, 1), (6, 6, 1), (6, 7, 1), (6, 8, 2),
    (7, 6, 1), (7, 7, 1), (8, 6, 2),
)
# (action, table degree, jobs per pass) for `invariants --action`
GA_TABLES = (
    (("jordan", (2,)), 6, 2), (("jordan", (2,)), 8, 2),
    (("jordan", (3,)), 6, 2), (("jordan", (3,)), 7, 2), (("jordan", (3,)), 8, 2),
    (("jordan", (4,)), 6, 1),
    (("jordan", (1, 1)), 6, 2), (("jordan", (1, 1)), 7, 2), (("jordan", (1, 2)), 6, 1),
    (("jordan", (1, 1, 1)), 6, 1),
    (("jet", 3), 6, 2), (("jet", 3), 7, 2), (("jet", 3), 8, 2),
    (("jet", 4), 6, 2), (("jet", 4), 7, 2), (("jet", 4), 8, 1),
    (("jet", 5), 6, 1), (("jet", 5), 7, 1),
)
INVARIANTS_PANEL = 4


def invariants_pass(seed: int, index: int) -> list[Job]:
    rng = random.Random(f"invariants:{seed}:{index}")
    jobs = []
    for n, d, reps in SL2_TABLES:
        for _ in range(reps):
            jobs.append(
                Job(
                    id=f"invariants/{index}/{len(jobs)}",
                    kind="sl2",
                    argv=("invariants", "--sl2", str(n), "--max-degree", str(d)),
                    expect={"n": n, "d": d},
                )
            )
    for spec, d, reps in GA_TABLES:
        for _ in range(reps):
            kind, arg = spec
            if kind == "jordan":
                arg = list(arg)
                rng.shuffle(arg)
            action = graded_action((kind, arg))
            name = f"i{index}_{len(jobs)}.json"
            panel = f"i{index}_{len(jobs)}_points.json"
            points = torus_panel(rng, action.size, INVARIANTS_PANEL, prefix="q")
            jobs.append(
                Job(
                    id=f"invariants/{index}/{len(jobs)}",
                    kind="ga",
                    argv=("invariants", "--action", name, "--max-degree", str(d), "--points", panel),
                    files=((name, action.document(max_degree=d)), (panel, _panel_file(points))),
                    expect={"weights": action.weights, "jordan": spec[0] == "jordan", "d": d, "panel": len(points)},
                )
            )
    rng.shuffle(jobs)
    return jobs


# graded actions of the verdicts workload, and how many graded / hatstable
# jobs each gets per pass (hatstable only with at most one generator)
VERDICT_ACTIONS = (
    (("jordan", (1,)), 2, 1), (("jordan", (3,)), 2, 2), (("jordan", (1, 1)), 2, 1),
    (("jordan", (2,)), 1, 1), (("jordan", (4,)), 1, 1), (("jordan", (1, 2)), 1, 1),
    (("jordan", (2, 2)), 1, 1), (("jet", 2), 1, 1), (("jet", 3), 2, 0), (("jet", 4), 1, 0),
    (("p112", None), 2, 0),
)
# (rank, weight count, distinct weight vectors, jobs per pass) for `stability`
STABILITY_CELLS = (
    (1, 8, 6, 4), (2, 10, 10, 3), (2, 12, 12, 3), (2, 14, 14, 3),
    (3, 10, 10, 2), (3, 12, 12, 2), (3, 14, 14, 2),
)
VERDICT_PANEL = 20
HAT_Q = (Fraction(0), Fraction(1, 2), Fraction(1))


def verdicts_pass(seed: int, index: int) -> list[Job]:
    rng = random.Random(f"verdicts:{seed}:{index}")
    jobs = []

    def add(kind, argv, files, expect):
        jobs.append(Job(id=f"verdicts/{index}/{len(jobs)}", kind=kind, argv=tuple(argv), files=tuple(files), expect=expect))

    for a, (spec, n_graded, n_hat) in enumerate(VERDICT_ACTIONS):
        action = graded_action(spec)
        doc_name = f"v{index}_a{a}.json"
        doc = (doc_name, action.document())
        chi = "--chi=" + fr(action.adapted_chi())
        expect = {"weights": action.weights, "generators": len(action.generators), "chi": action.adapted_chi()}
        add("chamber", ("chamber", "--action", doc_name, chi), (doc,), expect)
        for kind, reps in (("graded", n_graded), ("hatstable", n_hat)):
            for _ in range(reps):
                panel = f"v{index}_{len(jobs)}_points.json"
                points = graded_panel(rng, action, VERDICT_PANEL)
                seed_flag = f"--seed={rng.randint(0, 999)}"
                argv = [kind, "--action", doc_name, chi, "--points", panel, seed_flag]
                if kind == "hatstable":
                    argv.append("--q=" + fr(rng.choice(HAT_Q)))
                add(kind, argv, (doc, (panel, _panel_file(points))), dict(expect, points=points))
    for rank, count, distinct, reps in STABILITY_CELLS:
        for r in range(reps):
            weights = torus_weights(rng, rank, count, distinct)
            twist = torus_twist(rng, rank, zero=(r % 2 == 0))
            points = torus_panel(rng, count, VERDICT_PANEL)
            name = f"v{index}_{len(jobs)}.json"
            panel = f"v{index}_{len(jobs)}_points.json"
            add(
                "stability",
                ("stability", "--action", name, _chi_flag(twist), "--points", panel),
                ((name, _document(f"torus_r{rank}_n{count}", weights)), (panel, _panel_file(points))),
                {"weights": weights, "twist": twist, "points": points},
            )
    rng.shuffle(jobs)
    return jobs


PASSES = {"strata": strata_pass, "invariants": invariants_pass, "verdicts": verdicts_pass}


def build_pass(workload: str, seed: int, index: int) -> list[Job]:
    return PASSES[workload](seed, index)


def describe(workload: str) -> dict:
    """Input dimensions of one pass, for the result record."""
    if workload == "strata":
        return {"cells": ["rank", "weights", "distinct_weights", "jobs"], "strata": STRATA_CELLS,
                "panel": STRATA_PANEL, "weight_bound": 3, "twists": "zero and nonzero, alternating"}
    if workload == "invariants":
        return {"sl2": ["form_degree", "table_degree", "jobs"], "sl2_tables": SL2_TABLES,
                "ga": ["action", "table_degree", "jobs"], "ga_tables": GA_TABLES, "panel": INVARIANTS_PANEL}
    return {"graded": ["action", "graded_jobs", "hatstable_jobs"], "graded_actions": VERDICT_ACTIONS,
            "stability": ["rank", "weights", "distinct_weights", "jobs"], "stability_cells": STABILITY_CELLS,
            "panel": VERDICT_PANEL, "sweep_point_share": 0.5, "hat_q": [fr(q) for q in HAT_Q]}

