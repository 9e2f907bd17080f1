"""Torus stability, bounded chambers, limits, unstable stratification.

A point is (semi)stable for a diagonal torus action exactly when the
convex hull of its supported, character-twisted weights contains the
origin (in its interior).  The unstable strata are indexed by the
closest points to the origin of the hulls of weight subsets; a point
belongs to the stratum of the closest point of its own supported hull.
The stratification reads every support's closest point from one table
over the subsets of the distinct twisted weights
(`hull.closest_points_by_subset`): a subset's closest point is the
least-norm closest point of its one-smaller subsets, unless the subset
has at most rank + 1 weights and the point lies in the relative
interior of its hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .actions import GradingData, ProjectivePoint, TorusWeights
from .errors import DimensionMismatch, EnumerationBoundExceeded, UnknownIndex
from .hull import (
    HullPosition,
    closest_point_to_origin,
    closest_points_by_subset,
    hull_origin_position,
)
from .linalg import Vector, dot, norm_sq, vec


class Status(Enum):
    STABLE = "stable"
    STRICTLY_SEMISTABLE = "strictly-semistable"
    UNSTABLE = "unstable"


_POSITION_TO_STATUS = {
    HullPosition.INTERIOR: Status.STABLE,
    HullPosition.BOUNDARY: Status.STRICTLY_SEMISTABLE,
    HullPosition.OUTSIDE: Status.UNSTABLE,
}


@dataclass(frozen=True)
class StabilityVerdict:
    status: Status
    support: tuple[int, ...]
    hull_position: HullPosition | None = None
    detail: str = ""
    heuristic: bool = False
    seed: int | None = None


@dataclass(frozen=True)
class Chamber:
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("chamber endpoints out of order")


@dataclass(frozen=True)
class StratumIndex:
    beta: Vector
    norm_sq: Fraction

    @staticmethod
    def from_beta(beta: Sequence[Fraction]) -> "StratumIndex":
        b = vec(beta)
        return StratumIndex(beta=b, norm_sq=norm_sq(b))

    def is_zero(self) -> bool:
        return self.norm_sq == 0


@dataclass(frozen=True)
class Stratification:
    """Indices sorted by increasing |beta|^2, with admissible supports."""

    assignments: tuple[tuple[StratumIndex, tuple[tuple[int, ...], ...]], ...]

    @property
    def indices(self) -> tuple[StratumIndex, ...]:
        return tuple(idx for idx, _ in self.assignments)


def _twisted_weights(a: TorusWeights, twist: Sequence[Fraction]) -> list[Vector]:
    tw = vec(twist)
    if len(tw) != a.rank:
        raise DimensionMismatch("twist vector length differs from torus rank")
    return [tuple(Fraction(w) - t for w, t in zip(wv, tw)) for wv in a.weights]


def _support(a: TorusWeights, x: ProjectivePoint) -> tuple[int, ...]:
    if len(x.coords) != a.n + 1:
        raise DimensionMismatch("point dimension differs from the action")
    return x.support()


def torus_verdict(
    a: TorusWeights, twist: Sequence[Fraction], x: ProjectivePoint
) -> StabilityVerdict:
    """Hull criterion on the supported twisted weights."""
    support = _support(a, x)
    weights = _twisted_weights(a, twist)
    position = hull_origin_position([weights[i] for i in support])
    return StabilityVerdict(
        status=_POSITION_TO_STATUS[position],
        support=support,
        hull_position=position,
        detail="origin vs hull of supported twisted weights",
    )


def lowest_bounded_chamber(g: GradingData) -> Chamber:
    """[lowest weight, next distinct weight] of the twisted grading.

    When the grading acts trivially the chamber degenerates to a single
    point, which counts as its own interior.
    """
    values = sorted(set(g.twisted_weights()))
    if len(values) == 1:
        return Chamber(lo=values[0], hi=values[0])
    return Chamber(lo=values[0], hi=values[1])


def chamber_contains_zero_interior(c: Chamber) -> bool:
    if c.lo == c.hi:
        return c.lo == 0
    return c.lo < 0 < c.hi


def limit_point(
    a: TorusWeights, lam: Sequence[int], x: ProjectivePoint
) -> ProjectivePoint:
    """Limit of the one-parameter flow: keep minimal-pairing coordinates."""
    support = _support(a, x)
    if len(lam) != a.rank:
        raise DimensionMismatch("one-parameter subgroup length differs from rank")
    lam_v = vec(lam)
    pairings = {i: dot(lam_v, vec(a.weights[i])) for i in support}
    lowest = min(pairings.values())
    coords = [
        x.coords[i] if i in support and pairings[i] == lowest else Fraction(0)
        for i in range(a.n + 1)
    ]
    return ProjectivePoint(coords)


def _check_subset_cap(a: TorusWeights, subset_cap: int) -> int:
    count = a.n + 1
    if count > subset_cap:
        raise EnumerationBoundExceeded(
            f"{count} weights exceed the subset enumeration cap {subset_cap}"
        )
    return count


def stratification_indices(
    a: TorusWeights, twist: Sequence[Fraction], subset_cap: int = 16
) -> Stratification:
    """All stratum indices with their admissible coordinate supports."""
    count = _check_subset_cap(a, subset_cap)
    weights = _twisted_weights(a, twist)
    distinct = list(dict.fromkeys(weights))
    bits = [1 << distinct.index(w) for w in weights]
    table = closest_points_by_subset(distinct)
    by_beta: dict[Vector, list[tuple[int, ...]]] = {}
    indices = list(range(count))
    for size in range(1, count + 1):
        for support in combinations(indices, size):
            mask = 0
            for i in support:
                mask |= bits[i]
            by_beta.setdefault(table[mask][0], []).append(support)
    strata = sorted(by_beta, key=lambda b: (norm_sq(b), b))
    return Stratification(
        assignments=tuple(
            (StratumIndex.from_beta(beta), tuple(by_beta[beta])) for beta in strata
        )
    )


def stratum_of(
    a: TorusWeights, twist: Sequence[Fraction], x: ProjectivePoint
) -> StratumIndex:
    support = _support(a, x)
    weights = _twisted_weights(a, twist)
    beta = closest_point_to_origin([weights[i] for i in support])
    return StratumIndex.from_beta(beta)


@dataclass(frozen=True)
class StratumQuotientData:
    """Per-stratum quotient data.

    `z_indices` are the coordinates pairing with beta exactly to
    |beta|^2 (the fixed-locus support); a coordinate support is
    admissible for the retraction locus when it avoids `below_indices`
    and meets `z_indices`.  `adapted_twist` nudges beta into the next
    pairing gap so the twisted linearisation on the retraction locus is
    adapted instead of borderline adapted.
    """

    index: StratumIndex
    z_indices: tuple[int, ...]
    above_indices: tuple[int, ...]
    below_indices: tuple[int, ...]
    adapted_twist: Vector
    delta: Fraction

    def admits_support(self, support: Sequence[int]) -> bool:
        s = set(support)
        if not s or s & set(self.below_indices):
            return False
        return bool(s & set(self.z_indices))


def stratum_quotient_data(
    a: TorusWeights,
    twist: Sequence[Fraction],
    beta: StratumIndex,
    subset_cap: int = 16,
) -> StratumQuotientData:
    _check_subset_cap(a, subset_cap)
    weights = _twisted_weights(a, twist)
    if beta.is_zero():
        raise UnknownIndex("the zero stratum has no twisted quotient data")
    nsq = beta.norm_sq
    if len(beta.beta) != a.rank or nsq != norm_sq(beta.beta):
        raise UnknownIndex(f"{beta} is not a stratum index of this action")
    pairings = [dot(beta.beta, w) for w in weights]
    z_indices = tuple(i for i, p in enumerate(pairings) if p == nsq)
    # Level-set characterisation of the indices (Kirwan 1984, Ness 1984):
    # beta != 0 is the closest point of some weight subset exactly when it
    # is the closest point to 0 of conv{w : <beta, w> = |beta|^2}.
    if not z_indices or closest_point_to_origin([weights[i] for i in z_indices]) != beta.beta:
        raise UnknownIndex(f"{beta} is not a stratum index of this action")
    above = tuple(i for i, p in enumerate(pairings) if p > nsq)
    below = tuple(i for i, p in enumerate(pairings) if p < nsq)
    delta = (min((pairings[i] for i in above), default=nsq) - nsq) / (2 * nsq)
    adapted = tuple((1 + delta) * b for b in beta.beta)
    return StratumQuotientData(
        index=beta,
        z_indices=z_indices,
        above_indices=above,
        below_indices=below,
        adapted_twist=adapted,
        delta=delta,
    )
