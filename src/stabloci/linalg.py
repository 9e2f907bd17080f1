"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction; matrices are immutable row-major tuples
of such tuples wrapped in RatMatrix.  Everything is computed by exact
Gaussian elimination; there is no floating point anywhere in this
package.  The hull and grading matrices are tiny (tens of rows) and go
through the dense Fraction `rref`.  The invariant-ring matrices reach
hundreds of rows and columns with a few nonzeros per row; their kernels
and ranks go through one sparse, fraction-free integer echelon core
(`_echelon`, behind `int_kernel` and `int_rank`).
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


def _echelon(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Sparse integer echelon form, keyed by each pivot's leading column.

    Rows are dicts of nonzero column -> int.  Each incoming row is reduced
    against the pivots found so far: r <- a*r - b*p, with a and b the two
    leading entries over their gcd, and the result divided by the gcd of
    its entries, so every entry stays an integer.  When the pivot is
    longer than the row reducing against it, the two swap, which keeps
    the sparser row as pivot and limits fill-in (Markowitz 1957).  A row
    that stays nonzero becomes the pivot of its leading column.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            if len(pivot) > len(row):
                pivots[lead], row, pivot = row, pivot, row
            g = gcd(pivot[lead], row[lead])
            a, b = pivot[lead] // g, row[lead] // g
            out = {c: a * x for c, x in row.items()}
            for c, x in pivot.items():
                y = out.get(c, 0) - b * x
                if y:
                    out[c] = y
                else:
                    del out[c]
            g = 0
            for x in out.values():
                g = gcd(g, x)
                if g == 1:
                    break
            row = {c: x // g for c, x in out.items()} if g > 1 else out
    return pivots


def int_rank(rows: Iterable[dict[int, int]]) -> int:
    """Rank of sparse integer rows (dicts of nonzero column -> int)."""
    return len(_echelon(rows))


def int_kernel(rows: list[list[int]], ncols: int) -> list[Vector]:
    """Kernel basis of an integer matrix, by sparse fraction-free elimination.

    The dense rows are reduced to a sparse integer echelon form; only the
    back-substitution produces Fractions.  The basis is the one
    rref_kernel returns: one vector per free column, with that column 1
    and the other free columns 0.  It is the same because the leading
    columns of any echelon basis are an invariant of the row space, so the
    free columns are those of the reduced form, and a kernel vector is
    determined by its entries on the free columns.
    """
    pivots = _echelon({j: x for j, x in enumerate(r) if x} for r in rows)
    descending = sorted(pivots, reverse=True)
    basis: list[Vector] = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = {f: Fraction(1)}
        for c in descending:
            if c > f:  # every column of this pivot lies beyond f, where v is 0
                continue
            row = pivots[c]
            s = sum(x * v[j] for j, x in row.items() if j in v)
            if s:
                v[c] = -s / row[c]
        dense = [Fraction(0)] * ncols
        for j, x in v.items():
            dense[j] = x
        basis.append(tuple(dense))
    return basis
