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
basis of the row space (the reduced echelon rows made primitive), as
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

Closest point to the origin: the minimiser lies in the relative
interior of the hull of some affinely independent subset, so projecting
the origin onto every affine span (one solution of the normal equations
serves a dependent subset too) and keeping the candidates with
nonnegative barycentric coordinates finds it exactly.  For every subset
of a point set at once, the closest point of S is either that of a
one-smaller subset or the projection onto the span of S, which only a
set of at most dim + 1 points can need; one table built from small
subsets to large solves each small projection once.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .linalg import (
    RatMatrix,
    Vector,
    dot,
    int_det,
    norm_sq,
    primitive_int_vec,
    rref,
    solve,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vec,
)


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
    basis = rref(q)[0]
    r = len(basis)
    if r == 0:
        return HullPosition.BOUNDARY
    if r < dim:
        basis = [primitive_int_vec(b) for b in basis]
        q = [tuple(_idot(b, p) for b in basis) for p in q]
    ray_sum = [0] * r
    for subset in combinations(q, r - 1):
        c = _cross(subset, r)
        if not any(c):  # the subset has rank below r - 1
            continue
        sign = 0  # the first nonzero pairing; a mixed sign ends the ray
        for x in q:
            v = _idot(c, x)
            if v * sign < 0:
                break
            sign = sign or v
        else:
            ray_sum = [a + b if sign > 0 else a - b for a, b in zip(ray_sum, c)]
    if not any(ray_sum):
        return HullPosition.INTERIOR if r == dim else HullPosition.BOUNDARY
    if not has_zero and all(_idot(ray_sum, x) > 0 for x in q):
        return HullPosition.OUTSIDE
    return HullPosition.BOUNDARY


def _idot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def _cross(subset: Sequence[Sequence[int]], r: int) -> list[int]:
    """Generalised cross product of r - 1 integer vectors in Z^r: the signed
    (r-1)-minors, so <c, x> = det[x; subset].  It is orthogonal to every
    vector of the subset, and zero exactly when they are dependent."""
    minors = [int_det([row[:j] + row[j + 1 :] for row in subset]) for j in range(r)]
    return [-m if j & 1 else m for j, m in enumerate(minors)]


def _project_origin_segment(a: Vector, b: Vector) -> Vector | None:
    d = vec_sub(b, a)
    dd = norm_sq(d)
    if dd == 0:
        return None
    t = -dot(a, d) / dd
    if t < 0 or t > 1:
        return None
    return vec_add(a, vec_scale(t, d))


def _project_origin_affine(subset: Sequence[Vector]) -> Vector | None:
    """Projection of 0 onto the affine span, if it lies in conv(subset)."""
    k = len(subset)
    if k == 1:
        return subset[0]
    if k == 2:
        return _project_origin_segment(subset[0], subset[1])
    t0 = subset[0]
    diffs = [vec_sub(p, t0) for p in subset[1:]]
    gram = [[dot(a, b) for b in diffs] for a in diffs]
    rhs = [-dot(d, t0) for d in diffs]
    mu = solve(RatMatrix(gram), rhs)
    if mu is None:
        return None
    if any(m < 0 for m in mu) or sum(mu) > 1:
        return None
    p = t0
    for m, d in zip(mu, diffs):
        p = vec_add(p, vec_scale(m, d))
    return p


def closest_point_to_origin(points: Sequence[Vector]) -> Vector:
    """The unique point of conv(points) of minimal Euclidean norm."""
    dim = _check_points(points)
    pts = list(dict.fromkeys(points))
    best: Vector | None = None
    best_norm: Fraction | None = None
    for size in range(1, min(len(pts), dim + 1) + 1):
        for subset in combinations(pts, size):
            cand = _project_origin_affine(subset)
            if cand is None:
                continue
            n = norm_sq(cand)
            if n == 0:
                return zero_vec(dim)
            if best_norm is None or n < best_norm:
                best, best_norm = cand, n
    assert best is not None
    return best


def closest_points_by_subset(points: Sequence[Vector]) -> dict[int, tuple[Vector, Fraction]]:
    """Closest point to 0 and its squared norm for every nonempty subset.

    The points must be distinct; a subset is the bitmask of its indices.
    The closest point c of S lies in the relative interior of conv(T) for
    some affinely independent T of at most dim + 1 points.  When T != S,
    T misses some p and c is the closest point of S - p; since each of
    those lies in conv(S) and the minimiser is unique, c is the
    least-norm one.  So every c is the closest point of a subset of at
    most dim + 1 points.  Those come first, level by level: the closest
    point c' of S - p is that of S exactly when <c', p> >= |c'|^2 (the
    variational inequality at p), and when no p passes, T = S and c is
    the projection of 0 onto the affine span of S.  Ranked by norm, they
    feed the least-norm recurrence over the larger subsets, which then
    compares integers only.
    """
    dim = _check_points(points)
    if len(set(points)) != len(points):
        raise ValueError("points must be distinct")
    bits = [1 << i for i in range(len(points))]
    small = {b: (norm_sq(p), p) for b, p in zip(bits, points)}
    for size in range(2, min(len(points), dim + 1) + 1):
        for subset in combinations(range(len(points)), size):
            mask = sum(bits[i] for i in subset)
            for i in subset:
                n, c = small[mask ^ bits[i]]
                if dot(c, points[i]) >= n:
                    break
            else:
                c = _project_origin_affine([points[i] for i in subset])
                assert c is not None, "the closest point is interior to an independent subset"
                n = norm_sq(c)
            small[mask] = (n, c)
    ranked = sorted(set(small.values()))
    rank = {entry: r for r, entry in enumerate(ranked)}
    table: dict[int, int] = {}
    for mask in range(1, 1 << len(points)):
        entry = small.get(mask)
        table[mask] = rank[entry] if entry else min(table[mask ^ b] for b in bits if mask & b)
    return {mask: (ranked[r][1], ranked[r][0]) for mask, r in table.items()}
