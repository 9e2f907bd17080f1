"""Exact convex geometry for small rational point sets.

Everything is decided by exhaustive enumeration over subsets of the
input points: the inputs are weight sets of at most a couple of dozen
points in rank <= 3, where enumeration is both exact and fast.  There
is no floating-point fallback.

Position of the origin:
  * membership is decided through the closest point below: the origin
    lies in the hull iff the closest point of the hull to it is 0;
  * "interior" means interior relative to the full ambient space, so a
    lower-dimensional hull containing the origin reports Boundary;
  * for full-dimensional hulls, a supporting hyperplane through the
    origin exists iff the polar cone {c : <c,p> >= 0 for all p} is
    nonzero, and that cone (pointed, because the points span) is probed
    through its extreme rays, each of which is the kernel of some
    (r-1)-subset of points of rank r-1.

Closest point to the origin: the minimiser lies in the relative
interior of the convex hull of some affinely independent subset, so
projecting the origin onto every affine span and keeping the candidates
with nonnegative barycentric coordinates finds it exactly.
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
    is_zero_vec,
    matrix_rank,
    norm_sq,
    rref_kernel,
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
    return is_zero_vec(closest_point_to_origin(points))


def _has_supporting_hyperplane(points: Sequence[Vector], dim: int) -> bool:
    """Is there c != 0 with <c, p> >= 0 for every point?  (points span R^dim)"""
    nonzero = [p for p in points if not is_zero_vec(p)]
    if dim == 1:
        return all(p[0] >= 0 for p in nonzero) or all(p[0] <= 0 for p in nonzero)
    for subset in combinations(dict.fromkeys(nonzero), dim - 1):
        kernel = rref_kernel(RatMatrix(subset))
        if len(kernel) != 1:  # the subset has rank below dim - 1
            continue
        c = kernel[0]
        pairings = [dot(c, p) for p in nonzero]
        if all(v >= 0 for v in pairings) or all(v <= 0 for v in pairings):
            return True
    return False


def hull_origin_position(points: Sequence[Vector]) -> HullPosition:
    """Classify the origin against the convex hull of the points."""
    dim = _check_points(points)
    if not origin_in_hull(points):
        return HullPosition.OUTSIDE
    if matrix_rank(points) < dim:
        return HullPosition.BOUNDARY
    if _has_supporting_hyperplane(points, dim):
        return HullPosition.BOUNDARY
    return HullPosition.INTERIOR


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
    if mu is None or matrix_rank(diffs) != len(diffs):
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
