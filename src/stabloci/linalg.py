"""Exact dense linear algebra over the rationals.

Vectors are tuples of Fraction; matrices are immutable row-major tuples
of such tuples wrapped in RatMatrix.  Everything is computed by exact
Gaussian elimination; there is no floating point anywhere in this
package.  Matrix sizes here are tiny (tens of rows), so no effort is
spent on asymptotics beyond an integer fraction-free kernel used by the
invariant-ring computations, where matrices reach a few hundred columns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


def vec(entries: Iterable) -> Vector:
    return tuple(Fraction(e) for e in entries)


def zero_vec(n: int) -> Vector:
    return (Fraction(0),) * n


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def norm_sq(v: Sequence[Fraction]) -> Fraction:
    return dot(v, v)


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c: Fraction, v: Sequence[Fraction]) -> Vector:
    return tuple(c * a for a in v)


def is_zero_vec(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)


class RatMatrix:
    """Immutable matrix of Fractions, row-major."""

    __slots__ = ("entries",)

    def __init__(self, rows: Iterable[Iterable]) -> None:
        entries = tuple(vec(r) for r in rows)
        if entries:
            width = len(entries[0])
            if any(len(r) != width for r in entries):
                raise ValueError("ragged rows")
        object.__setattr__(self, "entries", entries)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(
            [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zero(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix([[Fraction(0)] * cols for _ in range(rows)])

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def sub(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix(vec_sub(a, b) for a, b in zip(self.entries, other.entries))

    def scale(self, c: Fraction) -> "RatMatrix":
        return RatMatrix(vec_scale(Fraction(c), r) for r in self.entries)

    def mul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        cols = [other.col(j) for j in range(other.cols)]
        return RatMatrix([[dot(r, c) for c in cols] for r in self.entries])

    def mul_vec(self, v: Sequence[Fraction]) -> Vector:
        if self.cols != len(v):
            raise ValueError("dimension mismatch in matrix-vector product")
        return tuple(dot(r, v) for r in self.entries)

    def power(self, k: int) -> "RatMatrix":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        result = RatMatrix.identity(self.rows)
        base = self
        while k > 0:
            if k & 1:
                result = result.mul(base)
            base = base.mul(base) if k > 1 else base
            k >>= 1
        return result

    def is_zero(self) -> bool:
        return all(is_zero_vec(r) for r in self.entries)

    def is_nilpotent(self) -> bool:
        """Exact test: N^rows == 0."""
        if self.rows != self.cols:
            return False
        return self.power(self.rows).is_zero()

    def commutator(self, other: "RatMatrix") -> "RatMatrix":
        return self.mul(other).sub(other.mul(self))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RatMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"RatMatrix({[list(map(str, r)) for r in self.entries]})"


def block_diagonal(blocks: Sequence[RatMatrix]) -> RatMatrix:
    """Square blocks placed along the diagonal, zero elsewhere."""
    size = sum(b.rows for b in blocks)
    rows = [[Fraction(0)] * size for _ in range(size)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b.entries):
            rows[offset + i][offset : offset + b.rows] = row
        offset += b.rows
    return RatMatrix(rows)


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rref_kernel(m: RatMatrix) -> list[Vector]:
    """Basis of {v : m v = 0}, one vector per free column."""
    reduced, pivots = rref([list(r) for r in m.entries])
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for f in (c for c in range(m.cols) if c not in pivot_set):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(tuple(v))
    return basis


def solve(m: RatMatrix, rhs: Sequence[Fraction]) -> Vector | None:
    """One exact solution of m x = rhs, or None when inconsistent."""
    aug = [list(r) + [Fraction(b)] for r, b in zip(m.entries, rhs)]
    reduced, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, c in enumerate(pivots):
        x[c] = reduced[r][m.cols]
    return tuple(x)


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    if not rows:
        return 0
    _, pivots = rref([list(r) for r in rows])
    return len(pivots)


def row_space_basis(rows: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """Canonical (reduced echelon) basis of the span of the given rows."""
    if not rows:
        return []
    reduced, pivots = rref([list(r) for r in rows])
    return [tuple(reduced[i]) for i in range(len(pivots))]


def _normalize_int_row(row: list[int]) -> None:
    g = 0
    for x in row:
        g = gcd(g, x)
        if g == 1:
            return
    if g > 1:
        for i, x in enumerate(row):
            row[i] = x // g


def int_kernel(rows: list[list[int]], ncols: int) -> list[Vector]:
    """Kernel basis of an integer matrix, by fraction-free elimination.

    Same answer as rref_kernel but much faster on the few-hundred-column
    matrices produced by the invariant-ring computations: rows stay
    integral (cross-multiplied, gcd-reduced) and only the final
    back-substitution produces Fractions.
    """
    work = [list(r) for r in rows if any(r)]
    pivots: list[tuple[int, int]] = []  # (row index in work, column)
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        best = None
        for i in range(r, len(work)):
            x = work[i][c]
            if x != 0 and (best is None or abs(x) < best):
                best = abs(x)
                pivot_row = i
                if best == 1:
                    break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        p = work[r][c]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                q = work[i][c]
                row_i = work[i]
                row_r = work[r]
                work[i] = [p * a - q * b for a, b in zip(row_i, row_r)]
                _normalize_int_row(work[i])
        pivots.append((r, c))
        pivot_cols.append(c)
        r += 1
        if r == len(work):
            break
    pivot_set = set(pivot_cols)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis: list[Vector] = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row_idx, c in reversed(pivots):
            row = work[row_idx]
            s = sum(Fraction(row[j]) * v[j] for j in range(c + 1, ncols) if row[j])
            v[c] = -s / row[c]
        basis.append(tuple(v))
    return basis
