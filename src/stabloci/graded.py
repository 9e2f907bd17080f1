"""Graded-unipotent stability: weight ladders, orbit sweeps, conditions.

For an action graded by a circle with character twist, the twisted
coordinate weights ladder up from their minimum.  The fixed locus of
minimal weight is a coordinate subspace; points flowing into it form an
open set preserved by the unipotent group (each generator strictly
raises the twisted weight).  Stability for the extended group is then
"flows to the minimal fixed locus, but cannot be translated into it":
the translate exp(sN)x of a point along a one-parameter unipotent
direction has polynomial coordinates in the group parameter, the finite
series sum_k s^k/k! N^k x applied to the vector through the nonzero
entries of N, so membership in the sweep of the fixed locus is exactly
solvability of a finite polynomial system; for one-dimensional groups a
univariate gcd computation.

Stabiliser dimensions are exact kernel computations on one span matrix
[x | N_1 x ... N_u x]: as x != 0, the kernel of (lambda, c) ->
lambda x + sum c_j N_j x projects isomorphically onto the stabiliser
{c : (sum c_j N_j) x in span(x)}.  At a point its kernel is the
stabiliser; with entries linear forms in x its rank over the function
field gives the generic dimension; its 2x2 minors against x cut out the
blow-up centre of one generator.  On the minimal fixed locus lambda = 0
(the generators raise weights, so "fixes the point projectively" means
"kills the vector"), which makes the two semistability-equals-stability
conditions exactly decidable for one generator, or for fixed loci of
coordinate dimension at most two; larger cases fall back to seeded
exact-per-sample checks and say so.

Both tests build their polynomials and rows over integers.  A nonzero
global factor multiplies every coordinate polynomial, or every row of a
linear system, by one constant, so it leaves every zero, gcd degree,
rational root and kernel, and with them every witness, unchanged.  The
translate series run on x times the lcm of its denominators and on each
generator N times the lcm L of its own, as K! L^K sum_k s^k/k! N^k,
K + 1 the size; their product is divided out once, at the end, which
keeps the gcd and root finding on small coefficients.  The span matrix
at a point takes the point's primitive integer vector and one common
lcm for all generators, since a factor per generator would rescale that
generator's coordinate of the kernel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import ceil, factorial, lcm
from typing import Iterator, Sequence

from .actions import GradingData, ProjectivePoint, UnipotentData, WeightedAction
from .errors import (
    DimensionMismatch,
    MTooSmall,
    NotAdapted,
    TrivialAction,
    UnsupportedUnipotentDimension,
)
from .linalg import IntEntries, RatMatrix, Vector, int_kernel, primitive_int_vec, rref_kernel, solve, zero_vec
from .poly import (
    Exponent,
    MultiPoly,
    distinct_root_count,
    poly_gcd_univariate,
    rational_roots,
    univariate_coeffs,
)
from .torus import StabilityVerdict, Status, torus_verdict

# seeded points a sampled minimal-locus check draws besides the coordinate points
LOCUS_SAMPLES = 12
# seeded grid points a multivariate sweep tries when elimination is undecided
GRID_SAMPLES = 200


@dataclass(frozen=True)
class AdaptedWindow:
    """Open character window in which a twist is adapted.

    `well_adapted_hi` is the default choice just above the lower end;
    any character strictly inside the window yields the same loci, so
    the midpoint is used.
    """

    lo: Fraction
    hi: Fraction
    well_adapted_hi: Fraction


@dataclass(frozen=True)
class SweepCertificate:
    in_sweep: bool
    witness: str = ""
    witness_params: Vector | None = None
    heuristic: bool = False


@dataclass(frozen=True)
class StabDimReport:
    point: ProjectivePoint
    dim: int
    kernel_basis: tuple[Vector, ...]


class ConditionVerdict(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    PROBABLY_HOLDS = "probably-holds"


@dataclass(frozen=True)
class ConditionReport:
    verdict: ConditionVerdict
    exact: bool
    witness: ProjectivePoint | None = None
    detail: str = ""
    seed: int | None = None
    samples: int = 0


@dataclass(frozen=True)
class BlowupCentre:
    """Determinantal description of the maximal-stabiliser locus.

    `equations` cut out the locus where the single generator fixes the
    point projectively (2x2 minors of the generator image against the
    point); `max_stab_dim_x0min` is the exact maximum of the stabiliser
    dimension over the open set flowing to the minimal fixed locus, and
    `meets_x0min` says whether the cut-out locus intersects that set.
    No blow-up is performed.
    """

    max_stab_dim_x0min: int
    equations: tuple[MultiPoly, ...]
    meets_x0min: bool


# -- weight ladders -----------------------------------------------------


def adapted_window(g: GradingData) -> AdaptedWindow:
    if g.is_trivial():
        raise TrivialAction("a single grading weight has no adapted window")
    lo, hi = g.chamber()
    return AdaptedWindow(lo=lo, hi=hi, well_adapted_hi=lo + (hi - lo) / 2)


def in_Z_min(g: GradingData, x: ProjectivePoint) -> bool:
    """Supported only on coordinates of minimal twisted weight."""
    if len(x.coords) != len(g.gm_weights):
        raise DimensionMismatch("point dimension differs from grading")
    lowest = set(g.min_weight_indices())
    return all(i in lowest for i in x.support())


def in_X0_min(g: GradingData, x: ProjectivePoint) -> bool:
    """The circle flow sends x into the minimal fixed locus."""
    if len(x.coords) != len(g.gm_weights):
        raise DimensionMismatch("point dimension differs from grading")
    tw = g.twisted_weights()
    return min(tw[i] for i in x.support()) == g.omega()[0]


# -- unipotent translates ------------------------------------------------


def _exp_series(
    entries: IntEntries, scale: int, var_index: int, coords: list[dict[Exponent, int]]
) -> list[dict[Exponent, int]]:
    """K! L^K exp(s N) on K + 1 integer polynomial coordinates, s the
    variable `var_index`, L = `scale` and L N with the given `entries`:
    the sum of K!/k! L^(K-k) s^k (L N)^k coords, each term L N times the
    previous one, shifted by s, until it vanishes."""
    top = len(coords) - 1
    weights = [factorial(top) // factorial(k) * scale ** (top - k) for k in range(top + 1)]
    total = [{e: weights[0] * v for e, v in p.items()} for p in coords]
    term = coords
    for k in range(1, top + 1):
        step: list[dict[Exponent, int]] = [{} for _ in term]
        for i, j, c in entries:
            out = step[i]
            for exp, v in term[j].items():
                key = exp[:var_index] + (exp[var_index] + 1,) + exp[var_index + 1 :]
                out[key] = out.get(key, 0) + c * v
        term = step
        if not any(term):
            break
        for acc, p in zip(total, term):
            for e, v in p.items():
                acc[e] = acc.get(e, 0) + weights[k] * v
    return total


def translate_coordinate_polys(
    u: UnipotentData, x: ProjectivePoint
) -> list[MultiPoly]:
    """Coordinates of exp(s_1 N_1)...exp(s_u N_u) x, polynomial in the s_j.

    The product of one-parameter subgroups parametrises the whole group
    when the generators span its Lie algebra (coordinates of the second
    kind), which is the data model's standing assumption.  The factors
    act right to left, each as its exponential series on the vector.
    """
    dim, top = u.dim, len(x.coords) - 1
    denom = lcm(*(c.denominator for c in x.coords))
    coords = [{(0,) * dim: c.numerator * (denom // c.denominator)} if c else {} for c in x.coords]
    for j in range(dim - 1, -1, -1):
        scale, entries = u.integer_generators[j]
        coords = _exp_series(entries, scale, j, coords)
        denom *= factorial(top) * scale**top
    return [MultiPoly(dim, {e: Fraction(v, denom) for e, v in p.items() if v}) for p in coords]


# -- vanishing systems ---------------------------------------------------


def _solve_affine_linear(conds: list[MultiPoly], num_vars: int) -> Vector | None:
    rows = []
    rhs = []
    for c in conds:
        row = [Fraction(0)] * num_vars
        const = Fraction(0)
        for exp, coeff in c.terms.items():
            degree = sum(exp)
            if degree == 0:
                const = coeff
            else:
                row[exp.index(1)] = coeff
        rows.append(row)
        rhs.append(-const)
    return solve(RatMatrix(rows), rhs)


def _all_roots_rational(f: MultiPoly, roots: Sequence[Fraction]) -> bool:
    """Are the distinct rational roots of univariate f all its roots?

    f has deg f - deg gcd(f, f') distinct roots over the algebraic closure.
    """
    return len(roots) == distinct_root_count(univariate_coeffs(f))


def _solve_vanishing(conds: list[MultiPoly], num_vars: int) -> tuple[str, Vector | None]:
    """Decide solvability of conds = 0 over the rationals where possible.

    Returns ("yes", witness), ("no", None) for exact decisions, or
    ("unknown", None) when neither elimination path applies.  A "yes"
    is always backed by an explicit rational witness; "no" is exact.
    Each level fixes one variable at a root, so it recurses at most num_vars deep.
    """
    live = [c for c in conds if not c.is_zero()]
    if not live:
        return "yes", zero_vec(num_vars)
    if any(c.is_constant() for c in live):
        return "no", None
    if all(c.total_degree() <= 1 for c in live):
        sol = _solve_affine_linear(live, num_vars)
        return ("yes", sol) if sol is not None else ("no", None)
    decided_no = False
    for cond in sorted(live, key=lambda c: (c.total_degree(), len(c.terms))):
        used = cond.variables_used()
        if len(used) != 1:
            continue
        var = used.pop()
        f = cond.restrict_vars([var])
        roots = rational_roots(univariate_coeffs(f))
        saw_unknown = False
        for root in roots:
            substituted = [c.substitute_constants({var: root}) for c in live]
            outcome, witness = _solve_vanishing(substituted, num_vars)
            if outcome == "yes":
                assert witness is not None
                full = list(witness)
                full[var] = root
                return "yes", tuple(full)
            if outcome == "unknown":
                saw_unknown = True
        if not saw_unknown and _all_roots_rational(f, roots):
            # every root of this condition is rational and every branch
            # failed exactly, so the whole system is unsolvable
            decided_no = True
            break
    return ("no", None) if decided_no else ("unknown", None)


def _grid_search(conds: list[MultiPoly], num_vars: int, seed: int) -> Vector | None:
    rng = random.Random(seed)
    for _ in range(GRID_SAMPLES):
        point = tuple(
            Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(num_vars)
        )
        if all(c.evaluate(point) == 0 for c in conds):
            return point
    return None


def _gcd_root(polys: list[MultiPoly]) -> tuple[int, Fraction | None]:
    """Degree of the gcd of univariate polynomials (0 when it is constant)
    and its least rational root, or None when it has none."""
    gcd_poly = poly_gcd_univariate(polys)
    if gcd_poly.is_constant():
        return 0, None
    roots = rational_roots(univariate_coeffs(gcd_poly))
    return gcd_poly.total_degree(), roots[0] if roots else None


def _exists_common_vanishing(
    conds: list[MultiPoly], num_vars: int, seed: int
) -> SweepCertificate:
    """Solvability of a polynomial system over the algebraic closure.

    Univariate systems are decided exactly by gcd; multivariate systems
    go through rational elimination and, failing that, a seeded grid:
    a negative answer from the grid alone is flagged heuristic.
    """
    live = [c for c in conds if not c.is_zero()]
    if not live:
        return SweepCertificate(in_sweep=True, witness="identically zero system")
    if num_vars <= 1:
        if any(c.is_constant() for c in live):
            return SweepCertificate(in_sweep=False, witness="a nonzero constant condition")
        degree, root = _gcd_root(live)
        if not degree:
            return SweepCertificate(in_sweep=False, witness="coprime coordinate polynomials")
        return SweepCertificate(
            in_sweep=True,
            witness=f"gcd of coordinate polynomials has degree {degree}",
            witness_params=None if root is None else (root,),
        )
    outcome, witness = _solve_vanishing(live, num_vars)
    if outcome == "yes":
        return SweepCertificate(in_sweep=True, witness="rational witness", witness_params=witness)
    if outcome == "no":
        return SweepCertificate(in_sweep=False, witness="no solution (exact elimination)")
    point = _grid_search(live, num_vars, seed)
    if point is not None:
        return SweepCertificate(in_sweep=True, witness="rational witness", witness_params=point)
    return SweepCertificate(
        in_sweep=False,
        witness="no witness found on the sampled grid",
        heuristic=True,
    )


# -- sweeps --------------------------------------------------------------


def _sweep_certificates(
    u: UnipotentData | None, x: ProjectivePoint, seed: int, *target_sets: Sequence[int]
) -> Iterator[SweepCertificate]:
    """For each target set: can some group translate of x kill every
    coordinate in it?  The translate is built at most once."""
    coords = None
    for targets in target_sets:
        if not targets:
            yield SweepCertificate(in_sweep=True, witness="no coordinates constrained")
        elif u is None or u.dim == 0:
            vanish = all(x.coords[i] == 0 for i in targets)
            yield SweepCertificate(
                in_sweep=vanish,
                witness="trivial group: point itself" if vanish else "trivial group: a constrained coordinate is nonzero",
            )
        else:
            coords = coords or translate_coordinate_polys(u, x)
            yield _exists_common_vanishing([coords[i] for i in targets], u.dim, seed)


def u_sweep_membership(
    u: UnipotentData, g: GradingData, x: ProjectivePoint, seed: int = 0
) -> SweepCertificate:
    """Membership of x in the one-parameter sweep of the minimal locus."""
    if u.dim != 1:
        raise UnsupportedUnipotentDimension(
            f"exact sweep requires one generator, got {u.dim}"
        )
    lowest = set(g.min_weight_indices())
    above = [i for i in range(len(g.gm_weights)) if i not in lowest]
    return next(_sweep_certificates(u, x, seed, above))


def _require_grading(action: WeightedAction) -> GradingData:
    if action.grading is None:
        raise NotAdapted("action carries no grading data")
    return action.grading


def _require_adapted(g: GradingData) -> None:
    if not g.is_adapted():
        raise NotAdapted("character twist is not adapted: 0 is not interior to the lowest bounded chamber")


def _require_trivial_unipotent(action: WeightedAction) -> None:
    if action.unipotent_dim() > 0:
        raise UnsupportedUnipotentDimension("a trivial grading forces a trivial unipotent group")


def hat_stable_minplus(
    action: WeightedAction, x: ProjectivePoint, seed: int = 0
) -> StabilityVerdict:
    """Stability for the graded extension, by flow plus sweep.

    Stable exactly when the point flows to the minimal fixed locus and
    no group translate lies in it.  Requires an adapted twist; with
    more than one generator a negative sweep answer may be heuristic
    and the verdict says so.
    """
    g = _require_grading(action)
    if g.is_trivial():
        # a trivial circle forces a trivial unipotent group; plain torus
        # stability is the whole story then
        _require_trivial_unipotent(action)
        return torus_verdict(action.torus, zero_vec(action.torus.rank), x)
    _require_adapted(g)
    support = x.support()
    if not in_X0_min(g, x):
        return StabilityVerdict(
            status=Status.UNSTABLE,
            support=support,
            detail="does not flow to the minimal fixed locus",
        )
    lowest = set(g.min_weight_indices())
    above = [i for i in range(len(g.gm_weights)) if i not in lowest]
    cert = next(_sweep_certificates(action.unipotent, x, seed, above))
    if cert.in_sweep:
        return StabilityVerdict(
            status=Status.UNSTABLE,
            support=support,
            detail=f"translates into the minimal fixed locus ({cert.witness})",
            heuristic=cert.heuristic,
            seed=seed if cert.heuristic else None,
        )
    return StabilityVerdict(
        status=Status.STABLE,
        support=support,
        detail="flows to the minimal locus; complement of the sweep",
        heuristic=cert.heuristic,
        seed=seed if cert.heuristic else None,
    )


# -- stabiliser dimensions ------------------------------------------------


def stab_dim_u(u: UnipotentData, x: ProjectivePoint) -> StabDimReport:
    """Dimension of the Lie-algebra stabiliser of the point: the c with
    (sum c_j N_j) x in span(x).

    The kernel of (lambda, c) -> lambda x + sum c_j N_j x projects onto
    the stabiliser isomorphically, as x != 0, so this takes the kernel
    of the n + 1 rows (x_i, (N_1 x)_i, ..., (N_u x)_i) and drops lambda.
    The x column always holds a pivot; generator column j is free exactly
    when N_j x lies in span(x, N_1 x, ..., N_(j-1) x), which is when
    N_j x ^ x lies in the span of the N_i x ^ x before it, so the basis
    is the one of the pair rows (N_j x)_i x_k - (N_j x)_k x_i, vector for
    vector.
    """
    if u.dim == 0:
        return StabDimReport(point=x, dim=0, kernel_basis=())
    if u.generators[0].rows != len(x.coords):
        raise DimensionMismatch("point dimension differs from the generators")
    p = primitive_int_vec(x.coords)
    common = lcm(*(scale for scale, _ in u.integer_generators))
    images = []
    for scale, entries in u.integer_generators:
        image = [0] * len(p)
        for i, j, c in entries:
            image[i] += c * p[j]
        images.append([(common // scale) * v for v in image])
    rows = [{col: v for col, v in enumerate(row) if v} for row in zip(p, *images)]
    kernel = int_kernel(rows, u.dim + 1)
    return StabDimReport(point=x, dim=len(kernel), kernel_basis=tuple(v[1:] for v in kernel))


def _poly_matrix_rank(rows: Sequence[Sequence[MultiPoly]]) -> int:
    """Rank over the rational function field, by fraction-free elimination."""
    rows = [list(r) for r in rows if any(not e.is_zero() for e in r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        pivot = None
        best = None
        for i in range(rank, len(rows)):
            e = rows[i][c]
            if not e.is_zero():
                size = (e.total_degree(), len(e.terms))
                if best is None or size < best:
                    best, pivot = size, i
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][c]
        for i in range(rank + 1, len(rows)):
            if not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [p.mul(a).sub(f.mul(b)) for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def generic_stab_dim(u: UnipotentData, n: int) -> int:
    """Minimum stabiliser dimension over the whole space, exactly.

    The stabiliser at x is the kernel of the span matrix
    [x | N_1 x ... N_u x] with lambda dropped (see `stab_dim_u`), so its
    dimension is u + 1 minus the rank.  That rank over the function field
    is the generic rank, attained off a proper closed subset, so the
    minimal stabiliser dimension is u + 1 minus it.
    """
    if u.dim == 0:
        return 0
    if u.generators[0].rows != n + 1:
        raise DimensionMismatch("coordinate count differs from the generators")
    return u.dim + 1 - _poly_matrix_rank(_span_matrix(u.generators, range(n + 1)))


def _span_matrix(generators: Sequence[RatMatrix], columns: Sequence[int]) -> list[list[MultiPoly]]:
    """The rows (x_i, (N_1 x)_i, ..., (N_u x)_i) of [x | N_1 x ... N_u x]
    for x supported on `columns`, as linear forms in x's entries there."""
    num_vars = len(columns)
    units = [tuple(int(i == k) for i in range(num_vars)) for k in range(num_vars)]
    where = {j: k for k, j in enumerate(columns)}
    return [
        [MultiPoly(num_vars, {units[where[i]]: 1} if i in where else None)]
        + [MultiPoly(num_vars, {units[k]: g.entries[i][j] for k, j in enumerate(columns)}) for g in generators]
        for i in range(generators[0].rows)
    ]


# -- semistability-equals-stability conditions ----------------------------


def _point_on_block(block: Sequence[int], block_coords: Sequence[Fraction], n: int) -> ProjectivePoint:
    coords = [Fraction(0)] * (n + 1)
    for b, c in zip(block, block_coords):
        coords[b] = Fraction(c)
    return ProjectivePoint(coords)


def _binary_forms_common_zero(
    forms: list[MultiPoly],
) -> tuple[bool, Vector | None, str]:
    """Common projective zero of binary forms (2 variables), exactly.

    Returns (exists, rational witness or None, detail).  Existence over
    the algebraic closure is gcd nonconstancy; a rational witness is
    reported when the gcd has a rational root or the zero is at [0:1].
    """
    live = [f for f in forms if not f.is_zero()]
    if not live:
        return True, (Fraction(1), Fraction(0)), "all forms vanish identically"
    if all(f.substitute_constants({0: Fraction(0), 1: Fraction(1)}).is_zero() for f in live):
        return True, (Fraction(0), Fraction(1)), "common zero at [0:1]"
    dehom = [f.substitute_constants({0: Fraction(1)}).restrict_vars([1]) for f in live]
    degree, root = _gcd_root(dehom)
    if not degree:
        return False, None, "coprime dehomogenisations"
    if root is not None:
        return True, (Fraction(1), root), "rational common zero"
    return True, None, f"gcd of degree {degree} (irrational zero)"


def _sample_block_points(block: Sequence[int], n: int, seed: int) -> list[ProjectivePoint]:
    rng = random.Random(seed)
    points = [_point_on_block(block, [Fraction(1 if i == k else 0) for i in range(len(block))], n) for k in range(len(block))]
    for _ in range(LOCUS_SAMPLES):
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in block]
        if any(c != 0 for c in coords):
            points.append(_point_on_block(block, coords, n))
    return points


def _minimal_locus_report(
    u: UnipotentData,
    block: Sequence[int],
    n: int,
    target_dim: int,
    details: dict[str, tuple[str, str]],
    seed: int,
) -> ConditionReport:
    """Does every point of the minimal locus have stabiliser dimension `target_dim`?

    On the locus the generators raise the twisted weight, so a Lie
    combination fixing a point projectively kills it outright and the
    stabiliser at z is the kernel of c -> sum_j c_j N_j z, a matrix
    linear in z.  The first branch named in `details` (in its order)
    that applies decides:

      * "generator": one generator (the target is then 0), its kernel
        on the block;
      * "single": a one-coordinate locus, its only point;
      * "minors": a two-coordinate locus, common zeros of the minors of
        size u.dim - target_dim;
      * "sampled": seeded points of the locus, exact per sample.

    `details` maps each branch to its (holds, fails) detail templates,
    which may use {dim} (stabiliser dimension at the witness) and
    {detail} (how the minors were decided).
    """
    applies = {
        "generator": u.dim == 1,
        "single": len(block) == 1,
        "minors": len(block) == 2,
        "sampled": True,
    }
    branch = next(b for b in details if applies[b])
    fields: dict = {}
    witness = None
    if branch == "generator":
        kernel = rref_kernel(RatMatrix([[row[b] for b in block] for row in u.generators[0].entries]))
        holds = not kernel
        if kernel:
            witness = _point_on_block(block, kernel[0], n)
    elif branch == "single":
        z = _point_on_block(block, [Fraction(1)], n)
        fields["dim"] = stab_dim_u(u, z).dim
        holds = fields["dim"] == target_dim
        if not holds:
            witness = z
    elif branch == "minors":
        rows = [row[1:] for row in _span_matrix(u.generators, block)]
        minors = _poly_minors(rows, u.dim - target_dim)
        exists, witness_coords, fields["detail"] = _binary_forms_common_zero(minors)
        holds = not exists
        if witness_coords:
            witness = _point_on_block(block, witness_coords, n)
    else:
        holds = True
        for z in _sample_block_points(block, n, seed):
            dim_z = stab_dim_u(u, z).dim
            if dim_z != target_dim:
                holds, witness, fields["dim"] = False, z, dim_z
                break
    sampled = branch == "sampled"
    if holds:
        verdict = ConditionVerdict.PROBABLY_HOLDS if sampled else ConditionVerdict.HOLDS
    else:
        verdict = ConditionVerdict.FAILS
    return ConditionReport(
        verdict,
        exact=not (sampled and holds),
        witness=witness,
        detail=details[branch][0 if holds else 1].format(**fields),
        seed=seed if sampled else None,
        samples=LOCUS_SAMPLES if sampled else 0,
    )


def check_condition_cstar(action: WeightedAction, seed: int = 0) -> ConditionReport:
    """Trivial unipotent stabilisers on the minimal fixed locus.

    On that locus the generators raise the twisted weight, so a Lie
    combination fixing a point projectively must kill it outright; the
    condition is the everywhere-injectivity of a matrix with entries
    linear in the locus coordinates.  Exact for one generator or a
    locus of coordinate dimension <= 2; sampled (exact per sample)
    otherwise.
    """
    g = _require_grading(action)
    u = action.unipotent
    if u is None or u.dim == 0:
        return ConditionReport(ConditionVerdict.HOLDS, exact=True, detail="trivial unipotent group")
    details = {
        "generator": ("generator injective on the minimal locus", "the generator kills a minimal-locus vector"),
        "single": ("full rank at the single minimal coordinate", "a Lie combination kills the minimal coordinate point"),
        "minors": ("minor gcd is constant", "rank drops on the minimal locus: {detail}"),
        "sampled": (
            "no stabiliser found at sampled minimal-locus points",
            "sampled minimal-locus point with nontrivial stabiliser",
        ),
    }
    return _minimal_locus_report(u, g.min_weight_indices(), action.n, 0, details, seed)


def _poly_minors(rows: Sequence[Sequence[MultiPoly]], size: int) -> list[MultiPoly]:
    """All size x size minors of a polynomial matrix."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    minors = []
    for row_idx in combinations(range(nrows), size):
        for col_idx in combinations(range(ncols), size):
            minors.append(_poly_det([[rows[i][j] for j in col_idx] for i in row_idx]))
    return minors


def _poly_det(m: list[list[MultiPoly]]) -> MultiPoly:
    size = len(m)
    if size == 1:
        return m[0][0]
    num_vars = m[0][0].num_vars
    det = MultiPoly(num_vars)
    for j in range(size):
        if m[0][j].is_zero():
            continue
        sub = [[m[i][k] for k in range(size) if k != j] for i in range(1, size)]
        term = m[0][j].mul(_poly_det(sub))
        det = det.sub(term) if j % 2 else det.add(term)
    return det


def check_condition_cstar_tilde(action: WeightedAction, seed: int = 0) -> ConditionReport:
    """Minimal-locus stabiliser dimensions all equal the generic minimum.

    The generic minimum is exact (function-field rank of the span
    condition); on the minimal locus the stabiliser is a kernel of a
    matrix linear in the locus coordinates, so constancy is exact for
    one generator or locus coordinate dimension <= 2, sampled
    otherwise.
    """
    g = _require_grading(action)
    u = action.unipotent
    if u is None or u.dim == 0:
        return ConditionReport(ConditionVerdict.HOLDS, exact=True, detail="trivial unipotent group")
    d_min = generic_stab_dim(u, action.n)
    p = f"generic stabiliser dimension {d_min}"
    if d_min == u.dim:
        return ConditionReport(
            ConditionVerdict.HOLDS, exact=True,
            detail=f"{p}; every stabiliser has the full dimension",
        )
    details = {
        "single": (f"{p}; matched at the single minimal coordinate", f"{p} but the minimal coordinate point has dimension {{dim}}"),
        "generator": (f"{p}; generator injective on the minimal locus", f"{p} but a minimal-locus vector is killed"),
        "minors": (f"{p}; rank constant on the minimal locus", f"{p} but the rank drops on the minimal locus: {{detail}}"),
        "sampled": (f"{p}; matched at all sampled minimal-locus points", f"{p} but a sampled point has dimension {{dim}}"),
    }
    return _minimal_locus_report(u, g.min_weight_indices(), action.n, d_min, details, seed)


# -- blow-up centre -------------------------------------------------------


def blowup_centre(action: WeightedAction) -> BlowupCentre:
    """Equations of the locus where the generator stabiliser jumps.

    For one generator the jump locus is the projective fixed locus
    (kernel of the nilpotent generator), cut out by the 2x2 minors of
    the generator image against the point.  Only the centre description
    is computed; no blow-up is performed.
    """
    g = _require_grading(action)
    u = action.unipotent
    if u is None or u.dim == 0:
        return BlowupCentre(max_stab_dim_x0min=0, equations=(), meets_x0min=False)
    if u.dim != 1:
        raise UnsupportedUnipotentDimension(
            f"exact centre identification requires one generator, got {u.dim}"
        )
    gen = u.generators[0]
    rows = [(image, x) for x, image in _span_matrix(u.generators, range(gen.rows))]
    equations = [minor for minor in _poly_minors(rows, 2) if not minor.is_zero()]
    kernel = rref_kernel(gen)
    lowest = set(g.min_weight_indices())
    meets = any(any(v[i] != 0 for i in lowest) for v in kernel)
    return BlowupCentre(
        max_stab_dim_x0min=1 if meets or not equations else 0,
        equations=tuple(equations),
        meets_x0min=meets,
    )


# -- hat construction ------------------------------------------------------


def m_lower_bound(action: WeightedAction, q: Fraction) -> int:
    """Smallest admissible twist power of the auxiliary line factor.

    Large enough that the line-factor weight range dominates the
    twisted coordinate weights (their spread, and their absolute size
    for the trivially-graded case with a nonzero common weight), and
    clearing the denominator of q so the twisted product weights stay
    comparable to integers.  Verdicts are stable under m -> m+1 above
    this bound.
    """
    q = Fraction(q)
    g = action.grading
    if g is None:
        scale = 0
    else:
        lo, hi = g.omega()[0], g.omega()[-1]
        scale = ceil(max(hi - lo, -lo, hi))
    return 2 * (scale + 1) * q.denominator


def q_hat_stable(action: WeightedAction, q: Fraction, m: int, x: ProjectivePoint, seed: int = 0) -> StabilityVerdict:
    """Stability of (x, [1:1]) on the product with the twisted line.

    The auxiliary line contributes weights 0..m shifted by -q*m; at the
    point [1:1] every line weight is supported.  With a trivial grading
    the unipotent part must be trivial and the verdict is the plain
    torus verdict intersected with the line-factor interval test (the
    interval contains 0 strictly iff 0 < q < 1).  With a nontrivial
    grading the circle test at every unipotent translate reduces to two
    sweep queries against the weight thresholds q*m and q*m - m.

    Known fault: with a nontrivial grading and 0 < q < 1, every nonzero
    point is reported stable.  For m >= `m_lower_bound`, q*m exceeds and
    q*m - m undercuts every twisted weight, so both sweeps target every
    coordinate and no translate of a nonzero point clears them.
    """
    q = Fraction(q)
    g = action.grading
    trivial = g is None or g.is_trivial()
    m0 = m_lower_bound(action, q)
    if m < m0:
        raise MTooSmall(f"m={m} is below the lower bound {m0}")
    if trivial:
        _require_trivial_unipotent(action)
        base = g.omega()[0] if g is not None else Fraction(0)
        lo = base - q * m
        hi = base + m - q * m
        if lo < 0 < hi:
            line_status = Status.STABLE
        elif lo <= 0 <= hi:
            line_status = Status.STRICTLY_SEMISTABLE
        else:
            line_status = Status.UNSTABLE
        tv = torus_verdict(action.torus, zero_vec(action.torus.rank), x)
        order = {Status.UNSTABLE: 0, Status.STRICTLY_SEMISTABLE: 1, Status.STABLE: 2}
        status = tv.status if order[tv.status] <= order[line_status] else line_status
        return StabilityVerdict(
            status=status,
            support=tv.support,
            hull_position=tv.hull_position,
            detail=f"torus {tv.status.value}, line factor {line_status.value}",
        )
    if action.unipotent_dim() > 1:
        raise UnsupportedUnipotentDimension(
            f"hat test requires at most one generator, got {action.unipotent_dim()}"
        )
    _require_adapted(g)
    tw = g.twisted_weights()
    low = [i for i, w in enumerate(tw) if w < q * m]
    high = [i for i, w in enumerate(tw) if w > q * m - m]
    kill_low, kill_high = _sweep_certificates(action.unipotent, x, seed, low, high)
    heuristic = kill_low.heuristic or kill_high.heuristic
    if kill_low.in_sweep or kill_high.in_sweep:
        # a positive sweep always carries an exact certificate
        side = "below" if kill_low.in_sweep else "above"
        return StabilityVerdict(
            status=Status.UNSTABLE,
            support=x.support(),
            detail=f"a translate loses every weight {side} the line threshold",
        )
    return StabilityVerdict(
        status=Status.STABLE,
        support=x.support(),
        detail="every translate keeps weights on both sides of the line threshold",
        heuristic=heuristic,
        seed=seed if heuristic else None,
    )
