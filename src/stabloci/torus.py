"""Torus stability, limits, unstable stratification.

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

Every path scales the twisted weights to integers once per call: with D
the lcm of the twist's denominators, P_i = D w_i - D t.  A positive
scale moves neither the polar cone nor the origin's position, so the
verdicts take the P_i as they are.  Closest points scale by D and
squared norms by D^2: the table's entry v / q over the P_i is the index
beta = v / (qD), and <beta, w_i - t> compares with |beta|^2 as
<v, P_i> q with |v|^2, which gives the quotient data.  An index the
table proved needs no second proof: beta != 0 is the closest point of
some weight subset exactly when it is the closest point to 0 of the hull
of its level set {w : <beta, w> = |beta|^2} (Kirwan 1984, Ness 1984).
Only `stratum_quotient_data`, for an index of unknown origin, runs that
check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Sequence

from .actions import ProjectivePoint, TorusWeights
from .errors import DimensionMismatch, EnumerationBoundExceeded, UnknownIndex
from .hull import (
    HullPosition,
    closest_point_to_origin,
    closest_points_by_subset,
    hull_origin_position,
)
from .linalg import Vector, dot, int_dot, norm_sq, vec


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
    """Indices sorted by increasing |beta|^2, with admissible supports, the
    scaled weights P_i and each index's proven closest point v / q = D beta."""

    assignments: tuple[tuple[StratumIndex, tuple[tuple[int, ...], ...]], ...]
    weights: tuple[tuple[int, ...], ...]
    closest: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def indices(self) -> tuple[StratumIndex, ...]:
        return tuple(idx for idx, _ in self.assignments)

    def quotient_data(self) -> list[StratumQuotientData]:
        """Quotient data of every nonzero index, from the proven closest points."""
        return [
            _quotient_data(idx, v, q, self.weights)
            for (idx, _), (v, q) in zip(self.assignments, self.closest)
            if not idx.is_zero()
        ]


def _scaled_weights(a: TorusWeights, twist: Sequence[Fraction]) -> tuple[list[tuple[int, ...]], int]:
    """The twisted weights as integer vectors P_i = D w_i - D t, and D, the
    lcm of the twist's denominators."""
    tw = vec(twist)
    if len(tw) != a.rank:
        raise DimensionMismatch("twist vector length differs from torus rank")
    d = lcm(*(t.denominator for t in tw))
    shift = [t.numerator * (d // t.denominator) for t in tw]
    return [tuple(d * w - s for w, s in zip(wv, shift)) for wv in a.weights], d


def _support(a: TorusWeights, x: ProjectivePoint) -> tuple[int, ...]:
    if len(x.coords) != a.n + 1:
        raise DimensionMismatch("point dimension differs from the action")
    return x.support()


def torus_verdict(
    a: TorusWeights, twist: Sequence[Fraction], x: ProjectivePoint
) -> StabilityVerdict:
    """Hull criterion on the supported twisted weights."""
    support = _support(a, x)
    weights, _ = _scaled_weights(a, twist)
    position = hull_origin_position([weights[i] for i in support])
    return StabilityVerdict(
        status=_POSITION_TO_STATUS[position],
        support=support,
        hull_position=position,
        detail="origin vs hull of supported twisted weights",
    )


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
    weights, d = _scaled_weights(a, twist)
    distinct = list(dict.fromkeys(weights))
    bits = [1 << distinct.index(w) for w in weights]
    table = closest_points_by_subset(distinct)
    by_entry: dict[tuple[tuple[int, ...], int], list[tuple[int, ...]]] = {}
    indices = list(range(count))
    for size in range(1, count + 1):
        for support in combinations(indices, size):
            mask = 0
            for i in support:
                mask |= bits[i]
            by_entry.setdefault(table[mask], []).append(support)
    indexed = []
    for v, q in by_entry:
        scale = q * d
        idx = StratumIndex(tuple(Fraction(x, scale) for x in v), Fraction(int_dot(v, v), scale * scale))
        indexed.append((idx, (v, q)))
    indexed.sort(key=lambda pair: (pair[0].norm_sq, pair[0].beta))
    return Stratification(
        assignments=tuple((idx, tuple(by_entry[entry])) for idx, entry in indexed),
        weights=tuple(weights),
        closest=tuple(entry for _, entry in indexed),
    )


def stratum_of(
    a: TorusWeights, twist: Sequence[Fraction], x: ProjectivePoint
) -> StratumIndex:
    support = _support(a, x)
    weights, d = _scaled_weights(a, twist)
    beta = closest_point_to_origin([weights[i] for i in support])
    return StratumIndex.from_beta(b / d for b in beta)


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


def stratum_quotient_data(
    a: TorusWeights,
    twist: Sequence[Fraction],
    beta: StratumIndex,
    subset_cap: int = 16,
) -> StratumQuotientData:
    _check_subset_cap(a, subset_cap)
    weights, d = _scaled_weights(a, twist)
    if beta.is_zero():
        raise UnknownIndex("the zero stratum has no twisted quotient data")
    if len(beta.beta) != a.rank or beta.norm_sq != norm_sq(beta.beta):
        raise UnknownIndex(f"{beta} is not a stratum index of this action")
    scaled = tuple(b * d for b in beta.beta)
    q = lcm(*(x.denominator for x in scaled))
    data = _quotient_data(beta, [x.numerator * (q // x.denominator) for x in scaled], q, weights)
    # Level-set characterisation of the indices (Kirwan 1984, Ness 1984):
    # beta != 0 is the closest point of some weight subset exactly when it
    # is the closest point to 0 of conv{w : <beta, w> = |beta|^2}.
    if not data.z_indices or closest_point_to_origin([weights[i] for i in data.z_indices]) != scaled:
        raise UnknownIndex(f"{beta} is not a stratum index of this action")
    return data


def _quotient_data(index: StratumIndex, v: Sequence[int], q: int, weights: Sequence[Sequence[int]]) -> StratumQuotientData:
    """Quotient data of the index beta = v / (qD) over the scaled weights
    P_i, from the integer pairings <v, P_i> q against |v|^2."""
    nv = int_dot(v, v)
    pairings = [int_dot(v, p) * q for p in weights]
    above = tuple(i for i, p in enumerate(pairings) if p > nv)
    delta = Fraction(min((pairings[i] for i in above), default=nv) - nv, 2 * nv)
    return StratumQuotientData(
        index=index,
        z_indices=tuple(i for i, p in enumerate(pairings) if p == nv),
        above_indices=above,
        below_indices=tuple(i for i, p in enumerate(pairings) if p < nv),
        adapted_twist=tuple((1 + delta) * b for b in index.beta),
        delta=delta,
    )
