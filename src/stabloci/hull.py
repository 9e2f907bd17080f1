"""Exact convex geometry for small rational point sets.

Everything is decided exactly by enumerating subsets of the input
points, weight sets of a couple of dozen points in rank <= 3 at most.
There is no floating-point fallback.

Position of the origin: one enumeration of the extreme rays of the
polar cone C = {c : <c, p> >= 0 for every point p}, in integers only.
Scaling a point by a positive number changes neither C nor the origin's
position, so each point is replaced by its primitive integer vector,
which also merges p with 2p.  Coordinates of the points' row space
(rank r) keep membership and relative interiority: at full rank the
vectors themselves, at lower rank their products with any integer
basis of the row space (the rows of its integer echelon form), as
p -> Bp is injective on the row space.  There C is pointed: the cone
over its extreme rays, each orthogonal to an (r-1)-subset that pairs
with one sign on every point.  The ray of a subset is its generalised
cross product, the signed (r-1)-minors from a fraction-free Bareiss
determinant, which vanish exactly when the subset has rank below r - 1;
at r = 1 the empty subset gives the ray (1).  No ray means the origin is
interior in R^r, so interior only at full rank.  By Gordan's theorem
the origin is outside iff some c pairs strictly positively with every
point, i.e. iff C is full-dimensional and no point is zero.  A positive
combination of the oriented extreme rays of a full-dimensional pointed
cone lies in its interior, so their sum is such a c exactly when one
exists, whatever positive integer scale each ray carries.  Every other
case is Boundary.

Closest points to the origin: one enumeration, `_small_subsets`, with two
readers.  The minimiser over conv(S) lies in the relative interior of
the hull of some affinely independent subset T of at most dim + 1
points, and it is the closest point of T.  The enumeration takes every
subset of at most dim + 1 points, from small to large: a one-smaller
subset's closest point c is kept when the missing point p passes the
variational inequality <c, p> >= |c|^2, and otherwise the subset is
independent and its closest point is the projection of the origin onto
its affine span.  The projection is integral by Cramer's rule: with
d_j = t_j - t0 and G their Gram matrix, G mu = (-<d_j, t0>) gives
mu_j = det G_j / det G (Bareiss determinants), det G > 0 exactly when T
is independent, the barycentric conditions read det G_j >= 0 and
sum det G_j <= det G, and the projection is v / q,
v = det G t0 + sum det G_j d_j over q = det G.  At c = v / q the
variational inequality reads <v, p> q >= |v|^2.

`closest_point_to_origin` takes the least-norm entry, scaling rational
points by the common denominator D of their coordinates first (the
closest point scales by D, its squared norm by D^2).
`closest_points_by_subset` ranks the entries by norm and extends them to
every larger subset by the least-norm recurrence, so each small
projection is solved once for all subsets.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Sequence

from .linalg import Vector, int_det, int_dot, int_echelon, primitive_int_vec


class HullPosition(Enum):
    OUTSIDE = "outside"
    BOUNDARY = "boundary"
    INTERIOR = "interior"


def _check_points(points: Sequence[Vector]) -> int:
    if not points:
        raise ValueError("empty point set")
    dim = len(points[0])
    if dim < 1 or any(len(p) != dim for p in points):
        raise ValueError("points must share a positive dimension")
    return dim


def origin_in_hull(points: Sequence[Vector]) -> bool:
    return hull_origin_position(points) is not HullPosition.OUTSIDE


def hull_origin_position(points: Sequence[Vector]) -> HullPosition:
    """Classify the origin against the convex hull of the points."""
    dim = _check_points(points)
    prim = dict.fromkeys(map(primitive_int_vec, points))
    q = [p for p in prim if any(p)]
    has_zero = len(q) < len(prim)
    basis = list(int_echelon({j: x for j, x in enumerate(p) if x} for p in q).values())
    r = len(basis)
    if r == 0:
        return HullPosition.BOUNDARY
    if r < dim:
        q = [tuple(sum(x * p[j] for j, x in b.items()) for b in basis) for p in q]
    ray_sum = [0] * r
    for subset in combinations(q, r - 1):
        c = _cross(subset, r)
        if not any(c):  # the subset has rank below r - 1
            continue
        sign = 0  # the first nonzero pairing; a mixed sign ends the ray
        for x in q:
            v = int_dot(c, x)
            if v * sign < 0:
                break
            sign = sign or v
        else:
            ray_sum = [a + b if sign > 0 else a - b for a, b in zip(ray_sum, c)]
    if not any(ray_sum):
        return HullPosition.INTERIOR if r == dim else HullPosition.BOUNDARY
    if not has_zero and all(int_dot(ray_sum, x) > 0 for x in q):
        return HullPosition.OUTSIDE
    return HullPosition.BOUNDARY


def _cross(subset: Sequence[Sequence[int]], r: int) -> list[int]:
    """Generalised cross product of r - 1 integer vectors in Z^r: the signed
    (r-1)-minors, so <c, x> = det[x; subset].  It is orthogonal to every
    vector of the subset, and zero exactly when they are dependent."""
    minors = [int_det([row[:j] + row[j + 1 :] for row in subset]) for j in range(r)]
    return [-m if j & 1 else m for j, m in enumerate(minors)]


def _project_origin(subset: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int] | None:
    """Projection v / q of 0 onto the affine span of integer points, q > 0
    and gcd(v, q) = 1, if the points are affinely independent and it lies
    in their hull; None otherwise."""
    t0 = subset[0]
    diffs = [[a - b for a, b in zip(p, t0)] for p in subset[1:]]
    gram = [[int_dot(a, b) for b in diffs] for a in diffs]
    rhs = [-int_dot(d, t0) for d in diffs]
    det = int_det(gram)
    if det == 0:
        return None
    nums = [int_det([row[:j] + [r] + row[j + 1 :] for row, r in zip(gram, rhs)]) for j in range(len(diffs))]
    if any(m < 0 for m in nums) or sum(nums) > det:
        return None
    v = [det * x + sum(m * d[i] for m, d in zip(nums, diffs)) for i, x in enumerate(t0)]
    g = gcd(det, *v)
    return tuple(x // g for x in v), det // g


def _small_subsets(points: Sequence[Sequence[int]], dim: int) -> dict[int, tuple[tuple[int, ...], int, int]]:
    """Closest point v / q to 0 with |v|^2 for every subset of at most
    dim + 1 distinct integer points, keyed by bitmask, level by level: the
    entry of a one-smaller subset that passes the variational inequality
    at its missing point, else the projection onto the affine span."""
    bits = [1 << i for i in range(len(points))]
    small = {b: (tuple(p), 1, int_dot(p, p)) for b, p in zip(bits, points)}
    for size in range(2, min(len(points), dim + 1) + 1):
        for subset in combinations(range(len(points)), size):
            mask = sum(bits[i] for i in subset)
            for i in subset:
                entry = small[mask ^ bits[i]]
                v, q, n = entry
                if int_dot(v, points[i]) * q >= n:
                    break
            else:
                proj = _project_origin([points[i] for i in subset])
                assert proj is not None, "the closest point is interior to an independent subset"
                entry = (*proj, int_dot(proj[0], proj[0]))
            small[mask] = entry
    return small


def closest_point_to_origin(points: Sequence[Vector]) -> Vector:
    """The unique point of conv(points) of minimal Euclidean norm: the
    least-norm closest point of the subsets of at most dim + 1 points."""
    dim = _check_points(points)
    denom = lcm(*(x.denominator for p in points for x in p))
    pts = list(dict.fromkeys(tuple(x.numerator * (denom // x.denominator) for x in p) for p in points))
    v, q, _ = min(_small_subsets(pts, dim).values(), key=lambda e: Fraction(e[2], e[1] * e[1]))
    return tuple(Fraction(x, q * denom) for x in v)


def closest_points_by_subset(points: Sequence[Sequence[int]]) -> dict[int, tuple[tuple[int, ...], int]]:
    """Closest point v / q to 0 for every nonempty subset of integer points.

    The points must be distinct; a subset is the bitmask of its indices,
    and each entry is (v, q) with v an integer vector, q > 0 and
    gcd(v, q) = 1, one shared tuple per distinct point.  The closest
    point c of S lies in the relative interior of conv(T) for some
    affinely independent T of at most dim + 1 points.  When T != S, T
    misses some p and c is the closest point of S - p; since each of
    those lies in conv(S) and the minimiser is unique, c is the
    least-norm one.  So every c is the closest point of a subset of at
    most dim + 1 points, which `_small_subsets` lists.  Ranked by norm,
    they feed the least-norm recurrence over the larger subsets, which
    then compares ranks only, visiting the set bits of each mask one at
    a time.
    """
    dim = _check_points(points)
    if len(set(points)) != len(points):
        raise ValueError("points must be distinct")
    small = _small_subsets(points, dim)
    ranked = sorted(set(small.values()), key=lambda e: (Fraction(e[2], e[1] * e[1]), e[0]))
    rank = {entry: r for r, entry in enumerate(ranked)}
    table: dict[int, int] = {}
    for mask in range(1, 1 << len(points)):
        entry = small.get(mask)
        if entry:
            table[mask] = rank[entry]
            continue
        best, rest = len(ranked), mask
        while rest:
            b = rest & -rest
            r = table[mask ^ b]
            if r < best:
                best = r
            rest ^= b
        table[mask] = best
    closest = [(v, q) for v, q, _ in ranked]
    return {mask: closest[r] for mask, r in table.items()}
