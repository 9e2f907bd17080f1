"""Degree-by-degree invariant rings from derivation kernels.

Group invariants are computed as joint kernels of Lie-algebra
derivations on the finite-dimensional space of polynomials of a fixed
degree: connected groups in characteristic zero have the same
invariants as their Lie algebras, so no averaging operator is needed.

Convention, fixed once: a matrix N acting on the coordinate vector
space induces the derivation  x_i -> -sum_j N[i][j] x_j  on coordinate
functions (the negative transpose action), extended by Leibniz.  It is
applied term by term through the nonzero entries of N: a term c x^e
gains  -e_i N[i][j] c x^(e - u_i + u_j)  for each N[i][j] != 0, u_i
the i-th unit exponent.  That one step, `_leibniz`, serves every image:
`_image_terms` sums it over a polynomial's terms, and the kernel builder
writes it straight into the rows of the kernel matrix.  Each caller
takes the entry list of N once, not once per monomial.

Every table is the joint kernel of raising derivations on blocks of
monomials of one torus weight, and one builder, `_block_basis`, turns
the blocks into a basis tagged with their weights.  A document's Ga
table splits the monomials of a degree by grading weight, or keeps them
as one block without a grading.  The SL(2) table of binary n-forms is
one block, the weight-zero monomials: by Roberts' theorem (1861) it is
the weight-zero block of the Ga table of the Jordan block of size n + 1.
The plane-times-forms table is the weight-zero block of one bidegree.
Degree 0 is no special case: its one monomial is killed by every
derivation.

The kernel rows are integers.  The SL(2) raising and lowering elements
are the integer entry lists of `actions.sl2_entries`; only document
generators, which may be rational, are multiplied by the lcm of their
entries' denominators, once per document (`integer_generators`).  A
nonzero multiple of a derivation has the same kernel, so the joint
kernel, and with it the reduced echelon basis that `linalg.int_kernel`
returns, does not change.
Only the basis itself is rational.  Everything read off it afterwards
runs on each element's primitive integer multiple c p, c a nonzero
rational: the SL(2) lowering check, the products whose rank counts the
generators (scaling a row does not change a rank), and the evaluations
of the nonvanishing test, taken at the point's primitive integer vector
l x, l > 0.  A degree-d invariant is homogeneous, so c p(l x) =
c l^d p(x), which is zero exactly when p(x) is.

The SL(2) blocks are listed directly, by a recursion over the weights
that never enters a branch without a weight-zero completion
(`_monomials_of_weight`), not filtered out of all C(n + d, d) monomials
of degree d.  `sl2_invariant_dimension` takes the rank of the raising rows
in first-seen order with the columns reversed; reversing the monomials
reverses the rows too.

All weight bookkeeping below uses the induced function weights, which
are the negatives of the coordinate weights.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from math import gcd, prod
from operator import add, getitem, mul
from typing import Sequence

from .actions import ProjectivePoint, UnipotentData, sl2_entries
from .errors import DegreeBoundExceeded, DimensionMismatch, ZeroForm
from .linalg import IntEntries, Vector, certified_rank, int_echelon, int_kernel, primitive_int_vec, row_space_basis
from .poly import Exponent, MultiPoly, max_root_multiplicity

Entries = Sequence[tuple[int, int, Fraction | int]]


@dataclass(frozen=True)
class GradedInvariantSpace:
    """Basis of the invariants of one degree, with its defining data."""

    degree: int
    basis: tuple[MultiPoly, ...]
    gm_weights: tuple[Fraction, ...] | None = None
    bidegree: tuple[int, int] | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def integer_basis(self) -> tuple[dict[Exponent, int], ...]:
        """The terms of each basis element's primitive integer multiple,
        computed once per space for the product ranks and evaluations."""
        return tuple(dict(zip(p.terms, primitive_int_vec(tuple(p.terms.values())))) for p in self.basis)


def monomials_of_degree(num_vars: int, degree: int) -> list[Exponent]:
    """All exponent tuples of the given total degree, sorted."""
    out = []
    for combo in combinations_with_replacement(range(num_vars), degree):
        exp = [0] * num_vars
        for i in combo:
            exp[i] += 1
        out.append(tuple(exp))
    return sorted(out)


def _leibniz(entries: Entries, exp: Exponent) -> list[tuple[Exponent, Fraction | int]]:
    """The terms  -e_i N[i][j] x^(exp - u_i + u_j)  of the image of x^exp,
    one per entry (i, j, N[i][j]) with e_i > 0.  Every diagonal entry gives
    x^exp itself, so callers sum the coefficients of repeated exponents."""
    out = []
    for i, j, n in entries:
        e = exp[i]
        if e:
            new = list(exp)
            new[i] = e - 1
            new[j] += 1
            out.append((tuple(new), -e * n))
    return out


def _image_terms(entries: Entries, terms: dict[Exponent, Fraction | int]) -> dict[Exponent, Fraction | int]:
    """The image of a polynomial given by its terms, summed by exponent;
    coefficients that cancel stay in as zeros."""
    out: dict[Exponent, Fraction | int] = {}
    for exp, c in terms.items():
        for key, x in _leibniz(entries, exp):
            out[key] = out.get(key, 0) + x * c
    return out


def _derivation_rows(operators: Sequence[IntEntries], monos: Sequence[Exponent]) -> list[dict[int, int]]:
    """The matrix of derivations on a span of monomials, as sparse rows.

    The derivations come as integer entry lists: one sparse integer row per
    operator and image monomial, first seen first along `monos`, holding its
    coefficients in the span's images; a cancelled coefficient leaves its row.
    """
    rows: dict[tuple[int, Exponent], dict[int, int]] = {}
    for c, mono in enumerate(monos):
        for op_index, entries in enumerate(operators):
            for exp, x in _leibniz(entries, mono):
                row = rows.setdefault((op_index, exp), {})
                y = row.get(c, 0) + x
                if y:
                    row[c] = y
                else:
                    del row[c]
    return list(rows.values())


def _block_basis(
    blocks: dict[int, Sequence[Exponent]],
    operators: Sequence[IntEntries],
    num_vars: int,
    lowering: IntEntries | None = None,
) -> tuple[tuple[MultiPoly, ...], tuple[Fraction, ...]]:
    """The joint kernel of the operators on each block of monomials, keyed
    by function weight w, in increasing w: the basis, and the coordinate
    weight -w of each element.

    With lowering entries the operators are sl2 raising elements and the
    blocks have weight zero.  A weight-zero vector killed by the raising
    derivation is a highest weight vector of weight zero, so it spans a
    trivial summand and the lowering derivation kills it too; every
    kernel vector is checked against it, in integers on its primitive
    integer multiple.  The check is an exact assertion, not a heuristic.
    """
    basis: list[MultiPoly] = []
    weights: list[Fraction] = []
    for w in sorted(blocks):
        monos = blocks[w]
        for v in int_kernel(_derivation_rows(operators, monos), len(monos)):
            if lowering is not None:
                terms = {m: x for m, x in zip(monos, primitive_int_vec(v)) if x}
                if any(_image_terms(lowering, terms).values()):
                    raise AssertionError("weight-0 raising kernel escaped the lowering kernel")
            basis.append(MultiPoly(num_vars, dict(zip(monos, v))))
            weights.append(Fraction(-w))
    return tuple(basis), tuple(weights)


def unipotent_invariants(
    u: UnipotentData,
    degree: int,
    gm_weights: Sequence[int] | None = None,
    degree_cap: int = 12,
) -> GradedInvariantSpace:
    """Joint kernel of the generator derivations in one degree.

    When grading weights are supplied the computation runs per weight
    block (the derivations shift function weights homogeneously) and
    each basis element is tagged with its function weight; without them
    all monomials form one block.
    """
    if degree < 0 or degree > degree_cap:
        raise DegreeBoundExceeded(f"degree {degree} outside [0, {degree_cap}]")
    num_vars = u.generators[0].rows if u.dim else (len(gm_weights) if gm_weights else 0)
    if num_vars == 0:
        raise DimensionMismatch("cannot infer the coordinate count")
    graded = gm_weights is not None
    blocks: dict[int, list[Exponent]] = {}
    for mono in monomials_of_degree(num_vars, degree):
        blocks.setdefault(-sum(map(mul, mono, gm_weights)) if graded else 0, []).append(mono)
    basis, weights = _block_basis(blocks, [entries for _, entries in u.integer_generators], num_vars)
    return GradedInvariantSpace(degree=degree, basis=basis, gm_weights=weights if graded else None)


def _coordinate_weights_sym(n: int) -> list[int]:
    return [n - 2 * j for j in range(n + 1)]


def _monomials_of_weight(weights: Sequence[int], degree: int, target: int) -> list[Exponent]:
    """The exponent tuples of the given total degree and weight
    sum_i e_i w_i = target, sorted, listed without the other monomials.

    A bounded recursion fixes the exponents from the first variable on,
    each in increasing order, and enters a branch only while the weight
    t still owed by the remaining weights W, with r degrees left, lies in
    [r min W, r max W] and differs from r times the first of them by a
    multiple of the gcd of their differences.  When W is an arithmetic
    progression, as every tail of the binary-form or plane weights is,
    exactly those t are sums of r elements of W, so every branch entered
    ends in a listed monomial.
    """
    tails = [weights[j:] for j in range(len(weights))]
    lo, hi = [min(w) for w in tails], [max(w) for w in tails]
    step = [gcd(*(x - w[0] for x in w)) or 1 for w in tails]
    out: list[Exponent] = []

    def place(j: int, prefix: Exponent, r: int, t: int) -> None:
        if not (r * lo[j] <= t <= r * hi[j] and (t - r * weights[j]) % step[j] == 0):
            return
        if j == len(weights) - 1:
            out.append((*prefix, r))
            return
        for e in range(r + 1):
            place(j + 1, (*prefix, e), r - e, t - e * weights[j])

    if weights:
        place(0, (), degree, target)
    return out


def _sl2_weight_zero(n: int, d: int) -> list[Exponent]:
    """The weight-zero monomials of degree d in the coefficients of a binary n-form."""
    if n < 1:
        raise DimensionMismatch("form degree must be >= 1")
    if d < 0:
        raise DegreeBoundExceeded(f"degree {d} is negative")
    return _monomials_of_weight(_coordinate_weights_sym(n), d, 0)


def sl2_invariants_binary_form(
    n: int, d: int, degree_cap: int = 12
) -> GradedInvariantSpace:
    """Invariants of degree d in the coefficients of a binary n-form.

    Kernel of the raising derivation on the torus weight-zero block,
    checked against the lowering derivation.
    """
    if d > degree_cap:
        raise DegreeBoundExceeded(f"degree {d} outside [0, {degree_cap}]")
    raising, lowering = sl2_entries(n)
    block = {0: _sl2_weight_zero(n, d)}
    basis, weights = _block_basis(block, [raising], n + 1, lowering)
    return GradedInvariantSpace(degree=d, basis=basis, gm_weights=weights)


def sl2_invariant_dimension(n: int, d: int) -> int:
    """`sl2_invariants_binary_form(n, d).dim` as a nullity, columns ordered as in the module docstring."""
    monos = _sl2_weight_zero(n, d)
    last = len(monos) - 1
    rows = [{last - c: x for c, x in row.items()} for row in _derivation_rows([sl2_entries(n)[0]], monos)]
    return len(monos) - certified_rank(rows, len(monos))


def _bidegree_weight_zero(n: int, a: int, b: int) -> list[Exponent]:
    """The weight-zero monomials of bidegree (a, b) in z0, z1, z2, w0..wn,
    sorted: z-monomials of weight t paired with form monomials of weight -t."""
    return sorted(
        z + w
        for t in range(-a, a + 1)
        for z in _monomials_of_weight((1, -1, 0), a, t)
        for w in _monomials_of_weight(_coordinate_weights_sym(n), b, -t)
    )


def product_sl2_invariants(
    n: int, a: int, b: int, bidegree_cap: int = 16
) -> GradedInvariantSpace:
    """Invariants of bidegree (a, b) on the plane-times-forms product."""
    if a < 0 or b < 0 or a + b > bidegree_cap:
        raise DegreeBoundExceeded(f"bidegree ({a},{b}) outside the cap {bidegree_cap}")
    # Variables z0, z1, z2, w0..wn: the plane is the defining 2-dimensional
    # representation plus a trivial line z2, which no operator touches.
    plane, form = sl2_entries(1), sl2_entries(n, 3)
    block = {0: _bidegree_weight_zero(n, a, b)}
    basis, weights = _block_basis(block, [plane[0] + form[0]], 3 + n + 1, plane[1] + form[1])
    return GradedInvariantSpace(degree=a + b, basis=basis, gm_weights=weights, bidegree=(a, b))


def restriction_to_slice(space: GradedInvariantSpace, n: int) -> GradedInvariantSpace:
    """Restrict product invariants to the distinguished plane point.

    Substitutes (z0, z1, z2) = (1, 0, 1) and returns an echelon basis of
    the span; every restricted element is verified to be annihilated by
    the one-parameter derivation on the form coefficients, exactly.
    """
    if space.bidegree is None:
        raise DimensionMismatch("expected a product invariant space")
    a, b = space.bidegree
    keep = list(range(3, 3 + n + 1))
    restricted = []
    for p in space.basis:
        q = p.substitute_constants({0: Fraction(1), 1: Fraction(0), 2: Fraction(1)})
        restricted.append(q.restrict_vars(keep))
    monos = monomials_of_degree(n + 1, b)
    echelon = row_space_basis([[q.terms.get(m, Fraction(0)) for m in monos] for q in restricted])
    basis = [MultiPoly(n + 1, dict(zip(monos, v))) for v in echelon]
    raising = sl2_entries(n)[0]
    for q in basis:
        if any(_image_terms(raising, q.terms).values()):
            raise AssertionError("restricted invariant escaped the additive-group kernel")
    return GradedInvariantSpace(degree=b, basis=tuple(basis))


@dataclass(frozen=True)
class NonvanishingReport:
    found: bool
    witness_degree: int | None
    bound: int


def invariant_nonvanishing_verdict(
    spaces: Sequence[GradedInvariantSpace], x: ProjectivePoint
) -> NonvanishingReport:
    """One-sided semistability probe by evaluating computed invariants.

    True certifies a nonvanishing positive-degree invariant; False only
    means none was found up to the examined bound.  The evaluation runs
    in integers: each basis element's primitive integer multiple c p at
    the point's primitive integer vector l x, l > 0.  An invariant of
    degree d is homogeneous, so c p(l x) = c l^d p(x), zero exactly when
    p(x) is.
    """
    point = primitive_int_vec(x.coords)
    bound = 0
    for space in spaces:
        if space.degree < 1:
            continue
        bound = max(bound, space.degree)
        if not space.basis:
            continue
        if len(point) != space.basis[0].num_vars:
            raise ValueError("point dimension does not match num_vars")
        powers = [[c**k for k in range(space.degree + 1)] for c in point]
        for terms in space.integer_basis:
            if sum(c * prod(map(getitem, powers, e)) for e, c in terms.items()):
                return NonvanishingReport(found=True, witness_degree=space.degree, bound=bound)
    return NonvanishingReport(found=False, witness_degree=None, bound=bound)


@dataclass(frozen=True)
class InfinityReport:
    multiplicity_at_infinity: int
    max_multiplicity: int


def points_at_infinity_classifier(n: int, x: ProjectivePoint) -> InfinityReport:
    """Root multiplicities of a binary form given by its coefficients.

    Coordinate j is the coefficient of s^(n-j) t^j; the distinguished
    fixed point of the additive group is [1:0], whose multiplicity as a
    root is the number of trailing zero coefficients.  The largest
    multiplicity anywhere is found by gcd chains, with no root
    extraction.
    """
    if len(x.coords) != n + 1:
        raise DimensionMismatch(f"a binary {n}-form needs {n + 1} coefficients")
    if all(c == 0 for c in x.coords):
        raise ZeroForm("the zero form has no root data")
    top = max(j for j, c in enumerate(x.coords) if c != 0)
    mult_inf = n - top
    finite_max = max_root_multiplicity(x.coords[: top + 1])
    return InfinityReport(
        multiplicity_at_infinity=mult_inf,
        max_multiplicity=max(mult_inf, finite_max),
    )


@dataclass(frozen=True)
class GeneratorDegreeRow:
    degree: int
    dim: int
    from_products: int
    new_generators: int


def generator_degree_report(
    spaces: Sequence[GradedInvariantSpace],
) -> list[GeneratorDegreeRow]:
    """New-generator count per degree, by exact linear algebra.

    A degree-d invariant is new when it lies outside the span of
    products of lower-degree invariants; products of full invariant
    spaces realise every product of algebra elements of lower degrees.
    The products multiply the primitive integer multiples of the basis
    elements, which scales each product row by a nonzero constant and so
    leaves the rank unchanged; the sparse integer core takes that rank.
    Monomials are numbered in order of first appearance, since the rank
    does not depend on the column order.
    """
    by_degree = {s.degree: s for s in spaces if s.degree >= 1}
    report = []
    for d in sorted(by_degree):
        space = by_degree[d]
        if not space.basis:
            report.append(GeneratorDegreeRow(degree=d, dim=0, from_products=0, new_generators=0))
            continue
        index: dict[Exponent, int] = {}
        product_rows = []
        for d1 in range(1, d // 2 + 1):
            d2 = d - d1
            if d1 not in by_degree or d2 not in by_degree:
                continue
            for p in by_degree[d1].integer_basis:
                for q in by_degree[d2].integer_basis:
                    product_rows.append(_product_row(p, q, index))
        product_dim = len(int_echelon(product_rows))
        report.append(
            GeneratorDegreeRow(
                degree=d,
                dim=space.dim,
                from_products=product_dim,
                new_generators=space.dim - product_dim,
            )
        )
    return report


def _product_row(p: dict[Exponent, int], q: dict[Exponent, int], index: dict[Exponent, int]) -> dict[int, int]:
    """The integer product p q as a sparse row over the monomials numbered
    by `index`, which numbers new ones as they appear."""
    row: dict[int, int] = {}
    for e1, a in p.items():
        for e2, b in q.items():
            c = index.setdefault(tuple(map(add, e1, e2)), len(index))
            row[c] = row.get(c, 0) + a * b
    return {c: x for c, x in row.items() if x}


def sl2_weight_counting_dimension(n: int, d: int) -> int:
    """Independent dimension count: weight-0 minus weight-2 multiplicities.

    Multiplicities are computed purely combinatorially from the
    symmetric-power weights, with no linear algebra: ways[k][s] counts
    the multisets of k weights with sum s, built one weight at a time,
    which may then be taken any number of times.
    """
    ways = [Counter() for _ in range(d + 1)]
    ways[0][0] = 1
    for w in _coordinate_weights_sym(n):
        for k in range(1, d + 1):
            for s, count in ways[k - 1].items():
                ways[k][s + w] += count
    return ways[d][0] - ways[d][2]
