"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction; matrices are immutable row-major tuples
of such tuples wrapped in RatMatrix.  Sparse operators are built and read
through one view, the list of nonzero (i, j, value) entries:
`RatMatrix.from_entries`, `RatMatrix.nonzero_entries` and its integer
multiple `integer_entries`.  There is no floating point in this package.

Every elimination goes through one sparse, fraction-free core: rows
are dicts of nonzero column -> int, `int_echelon` brings them to an integer
echelon form (Bareiss 1968; Markowitz 1957), `_reduce` into integer rows
of the reduced echelon form, which is unique, and its readers divide by
the leading entries.  The dense readers take each rational row's
primitive integer multiple first.  `rref` serves, through `solve` and
`row_space_basis`, the graded vanishing systems and the slice
restriction of the invariant tables; `rref_kernel` the graded
minimal-locus and blow-up centre kernels.  The sparse readers take
integer rows as they are: `int_kernel` the graded stabiliser rows and
the derivation rows of `invariants._derivation_rows`, which reach
hundreds of rows and columns with a few nonzeros per row, and
`int_echelon` itself the hull classifier's row space and the product
rows of `invariants.generator_degree_report`, built from each
invariant's primitive integer multiple, whose rank is the number of
pivots.  When the echelon form has a pivot in every
column the kernel is zero, and `int_kernel` returns it without the
back-substitution; most graded blocks of an invariant ring end there.
`certified_rank` trusts a rank mod p only at min(rows, columns), as rank_p <= rank.
The hull classifier and the closest-point table work on integer vectors
(`primitive_int_vec`, `int_dot`) and take small integer determinants by
Bareiss elimination (`int_det`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
IntEntries = list[tuple[int, int, int]]
RANK_PRIME = 32749  # the largest prime below 2^15: a product of two residues fits one 30-bit int digit


def vec(entries: Iterable) -> Vector:
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def zero_vec(n: int) -> Vector:
    return (Fraction(0),) * n


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def norm_sq(v: Sequence[Fraction]) -> Fraction:
    return dot(v, v)


def int_dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def is_zero_vec(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)


def primitive_int_vec(v: Sequence[Fraction]) -> tuple[int, ...]:
    """The primitive integer vector on the ray of v: v times the lcm of its
    denominators, over the gcd of the result; the zero vector stays zero."""
    denom = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (denom // x.denominator) for x in v]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss
    elimination: every division is exact, so entries stay integers."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        p = m[k][k]
        for i in range(k + 1, n):
            a = m[i][k]
            m[i] = [0] * (k + 1) + [(p * x - a * y) // prev for x, y in zip(m[i][k + 1 :], m[k][k + 1 :])]
        prev = p
    return sign * m[-1][-1] if n else 1


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
    def from_entries(size: int, entries: Iterable[tuple[int, int, Fraction | int]]) -> "RatMatrix":
        """The size x size matrix with the given (i, j, value) entries, zero elsewhere."""
        rows = [[0] * size for _ in range(size)]
        for i, j, x in entries:
            rows[i][j] = x
        return RatMatrix(rows)

    def nonzero_entries(self) -> list[tuple[int, int, Fraction]]:
        """(i, j, value) for every nonzero entry, row by row."""
        return [(i, j, x) for i, row in enumerate(self.entries) for j, x in enumerate(row) if x]

    def mul(self, other: "RatMatrix") -> "RatMatrix":
        """The product, summed over the nonzero entries of both factors."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        nonzero = [[(j, b) for j, b in enumerate(r) if b] for r in other.entries]
        rows = []
        for r in self.entries:
            out = [Fraction(0)] * other.cols
            for a, row in zip(r, nonzero):
                if a:
                    for j, b in row:
                        out[j] += a * b
            rows.append(out)
        return RatMatrix(rows)

    def is_zero(self) -> bool:
        return all(is_zero_vec(r) for r in self.entries)

    def is_nilpotent(self) -> bool:
        """Exact test: N^(2^k) == 0 for the least 2^k >= rows, by k squarings."""
        if self.rows != self.cols:
            return False
        power = self
        for _ in range((self.rows - 1).bit_length()):
            power = power.mul(power)
        return power.is_zero()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RatMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"RatMatrix({[list(map(str, r)) for r in self.entries]})"


def integer_entries(m: RatMatrix) -> tuple[int, IntEntries]:
    """The lcm of the denominators of m's nonzero entries, and those
    entries times it."""
    entries = m.nonzero_entries()
    scale = lcm(*(c.denominator for _, _, c in entries))
    return scale, [(i, j, c.numerator * (scale // c.denominator)) for i, j, c in entries]


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    ncols = len(rows[0]) if rows else 0
    reduced = _reduce(int_echelon({j: x for j, x in enumerate(primitive_int_vec(r)) if x} for r in rows))
    pivots = sorted(reduced)
    return [[Fraction(reduced[c].get(j, 0), reduced[c][c]) for j in range(ncols)] for c in pivots], pivots


def rref_kernel(m: RatMatrix) -> list[Vector]:
    """Basis of {v : m v = 0}, one vector per free column: the kernel of
    each row's primitive integer multiple."""
    return int_kernel([{j: x for j, x in enumerate(primitive_int_vec(r)) if x} for r in m.entries], m.cols)


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


def row_space_basis(rows: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """Canonical (reduced echelon) basis of the span of the given rows."""
    return [tuple(r) for r in rref(rows)[0]]


def _eliminate(row: dict[int, int], pivot: dict[int, int], c: int) -> dict[int, int]:
    """a*row - b*pivot, with a and b the column-c entries over their gcd
    so that column c cancels, divided by the gcd of its entries."""
    g = gcd(pivot[c], row[c])
    a, b = pivot[c] // g, row[c] // g
    out = {j: a * x for j, x in row.items()}
    for j, x in pivot.items():
        y = out.get(j, 0) - b * x
        if y:
            out[j] = y
        else:
            del out[j]
    g = 0
    for x in out.values():
        g = gcd(g, x)
        if g == 1:
            break
    return {j: x // g for j, x in out.items()} if g > 1 else out


def int_echelon(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Sparse integer echelon form, keyed by each pivot's leading column.

    Rows are dicts of nonzero column -> int.  Each incoming row is reduced
    against the pivots found so far by `_eliminate`, so every entry stays
    an integer.  When the pivot is longer than the row reducing against
    it, the two swap, which keeps the sparser row as pivot and limits
    fill-in (Markowitz 1957).  A row that stays nonzero becomes the pivot
    of its leading column.
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
            row = _eliminate(row, pivot, lead)
    return pivots


def certified_rank(rows: list[dict[int, int]], ncols: int, p: int = RANK_PRIME) -> int:
    """The exact rank of sparse integer rows: the rank mod the prime p when it reaches
    min(len(rows), ncols), else `int_echelon`'s.  The column order sets the fill-in."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {j: x % p for j, x in row.items() if x % p}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {j: x * inv % p for j, x in row.items()}
                break
            a = row[lead]
            for j, x in pivot.items():
                y = (row.get(j, 0) - a * x) % p
                if y:
                    row[j] = y
                else:
                    del row[j]
    return len(pivots) if len(pivots) == min(len(rows), ncols) else len(int_echelon(rows))


def _reduce(pivots: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """The reduced echelon form of an `int_echelon` result, keyed the same,
    as integer rows: each row over its leading entry is the reduced row.

    Back-substitution from the last leading column to the first: each
    pivot is cleared, fraction-free, in the leading columns of the pivots
    after it, which are already zero in every other leading column.  The
    reduced form is unique, so every reader agrees with a dense Gauss-Jordan.
    """
    done: dict[int, dict[int, int]] = {}
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for c in [c for c in row if c != lead and c in done]:
            row = _eliminate(row, done[c], c)
        done[lead] = row
    return done


def int_kernel(rows: list[dict[int, int]], ncols: int) -> list[Vector]:
    """Kernel basis of sparse integer rows (dicts of column -> nonzero int),
    one vector per free column, from the reduced echelon form."""
    pivots = int_echelon(rows)
    if len(pivots) == ncols:
        return []
    return _kernel_basis(_reduce(pivots), ncols)


def _kernel_basis(reduced: dict[int, dict[int, int]], ncols: int) -> list[Vector]:
    """Kernel of a reduced echelon form keyed by leading column: one vector
    per free column f, with f 1, the other free columns 0, and at each
    leading column minus that row's entry in column f over its leading entry."""
    basis = {f: [Fraction(0)] * ncols for f in range(ncols) if f not in reduced}
    for f, v in basis.items():
        v[f] = Fraction(1)
    for lead, row in reduced.items():
        for j, x in row.items():
            if j in basis:
                basis[j][lead] = Fraction(-x, row[lead])
    return [tuple(v) for v in basis.values()]
