"""Brute-force oracles, independent of the library's computation paths.

The hull oracle decides membership by exhaustively solving "is the
origin a convex combination" over affinely independent subsets, and
interiority by full facet enumeration (H-representation): for a
full-dimensional hull the origin is interior iff every facet hyperplane
has strictly positive offset.  The closest-point oracle certifies
optimality through the variational inequality rather than re-running
any search.  Their linear algebra is a dense Fraction Gauss-Jordan
elimination kept here as the reference for the library's sparse
fraction-free core.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from stabloci.hull import HullPosition
from stabloci.linalg import dot, is_zero_vec, vec_sub


def reference_rref(rows):
    """Dense Gauss-Jordan over Fractions: (nonzero reduced rows, pivot columns)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[: len(pivots)], pivots


def reference_rank(rows):
    return len(reference_rref(rows)[1])


def reference_row_space(rows):
    return [tuple(r) for r in reference_rref(rows)[0]]


def reference_kernel(rows, ncols):
    """Kernel basis, one vector per free column (that column 1, the other
    free columns 0)."""
    reduced, pivots = reference_rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(tuple(v))
    return basis


def reference_solve(rows, rhs, ncols):
    """One solution of rows x = rhs (free columns 0), or None when inconsistent."""
    reduced, pivots = reference_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = reduced[r][ncols]
    return tuple(x)


def oracle_in_hull(points) -> bool:
    dim = len(points[0])
    pts = list(dict.fromkeys(points))
    if any(is_zero_vec(p) for p in pts):
        return True
    for size in range(1, min(len(pts), dim + 1) + 1):
        for subset in combinations(pts, size):
            rows = [[p[i] for p in subset] for i in range(dim)]
            rows.append([Fraction(1)] * len(subset))
            lam = reference_solve(rows, [Fraction(0)] * dim + [Fraction(1)], len(subset))
            if lam is None:
                continue
            diffs = [vec_sub(p, subset[0]) for p in subset[1:]]
            if reference_rank(diffs) != len(diffs):
                continue
            if all(x >= 0 for x in lam):
                return True
    return False


def _facet_hyperplanes(points, dim):
    """All supporting hyperplanes spanned by point subsets (normal, offset),
    oriented so every point satisfies <normal, p> <= offset."""
    facets = []
    for subset in combinations(dict.fromkeys(points), dim):
        base = subset[0]
        diffs = [vec_sub(p, base) for p in subset[1:]]
        if reference_rank(diffs) != dim - 1:
            continue
        kernel = reference_kernel(diffs, dim) if diffs else [
            tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(dim))
        ]
        if len(kernel) != 1:
            continue
        normal = kernel[0]
        offset = dot(normal, base)
        values = [dot(normal, p) for p in points]
        if all(v <= offset for v in values):
            facets.append((normal, offset))
        elif all(v >= offset for v in values):
            facets.append((tuple(-x for x in normal), -offset))
    return facets


def oracle_hull_position(points) -> HullPosition:
    dim = len(points[0])
    member = oracle_in_hull(points)
    if not member:
        return HullPosition.OUTSIDE
    if reference_rank(points) < dim:
        return HullPosition.BOUNDARY
    facets = _facet_hyperplanes(points, dim)
    if any(offset == 0 for _, offset in facets):
        return HullPosition.BOUNDARY
    return HullPosition.INTERIOR


def certify_closest_point(points, candidate) -> bool:
    """Exact optimality certificate: candidate lies in the hull and the
    variational inequality <candidate, p - candidate> >= 0 holds for
    every input point."""
    shifted = [vec_sub(p, candidate) for p in points]
    # candidate in hull  <=>  0 in hull of (points - candidate)
    if not oracle_in_hull(shifted):
        return False
    return all(dot(candidate, s) >= 0 for s in shifted)
