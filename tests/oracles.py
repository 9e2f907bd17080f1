"""Brute-force oracles, independent of the library's computation paths.

The hull oracle decides membership by exhaustively solving "is the
origin a convex combination" over affinely independent subsets, and
interiority by full facet enumeration (H-representation): for a
full-dimensional hull the origin is interior iff every facet hyperplane
has strictly positive offset.  The closest-point oracle certifies
optimality through the variational inequality rather than re-running
any search.  The Fraction closest point and subset table are the ones
the library ran before it moved to integer points and Cramer's rule:
the projection onto each affine span solves the normal equations over
Fractions.  The stratification oracle runs that closest-point
enumeration once per coordinate support.  Their linear
algebra is a dense Fraction Gauss-Jordan elimination kept here as the
reference for the library's sparse fraction-free core; the dense matrix
product and commutator are the references for the library's sparse
product and its entrywise grading check.

The operator references build dense matrices entry by entry, as the
library did before it built every operator from a sparse entry list:
the sl2 raising and lowering elements on a symmetric power, and square
blocks placed along a diagonal.

The polynomial references build what the library avoids building: the
matrix exp(sN) with polynomial entries for unipotent translates, the
derivation as images of the coordinate functions times partial
derivatives, its dense matrix on the monomials of one degree, the
kernel rows of a span of monomials read off those images, and root
multiplicities by repeated synthetic division.

The univariate references are the Fraction paths the library ran before
its univariate core went integer: Euclid's algorithm with long division
for the gcd and the gcd chains with the derivative, and rational roots
by the rational-root test over trial-divided candidates.

The invariant-table references are the paths the library ran before it
went integer and listed only what it needs: monomials of a weight
filtered out of every monomial of the degree, the SL(2) weight
multiplicities counted over all combinations of weights, product ranks
from Fraction `MultiPoly.mul` rows, and the nonvanishing test by Fraction
`evaluate` at the point itself.

The graded references are the Fraction paths the library ran before its
verdicts went integer: the stabiliser's span rows from Fraction
matrix-vector products, and the translate as the exponential series
summed with a division by k at each step.  The span minors are the
quadratic pair polynomials the library ranked for the generic stabiliser
and read as blow-up centre equations before both went through the span
matrix [x | N_1 x ... N_u x].  `matrix_rank` reads the rank
off the library's `rref`.

The weight-ladder references are the chamber, sequence and adaptedness
helpers the library kept in its torus and graded modules before
`GradingData` owned the ladder; here they twist the circle weights
themselves instead of reading `twisted_weights`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import gcd

from stabloci.hull import HullPosition
from stabloci.linalg import RatMatrix, dot, is_zero_vec, norm_sq, rref, zero_vec
from stabloci.poly import MultiPoly


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


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


def _project_origin_segment(a, b):
    d = vec_sub(b, a)
    dd = norm_sq(d)
    if dd == 0:
        return None
    t = -dot(a, d) / dd
    if t < 0 or t > 1:
        return None
    return tuple(x + t * y for x, y in zip(a, d))


def _project_origin_affine(subset):
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
    mu = reference_solve(gram, rhs, k - 1)
    if mu is None:
        return None
    if any(m < 0 for m in mu) or sum(mu) > 1:
        return None
    p = t0
    for m, d in zip(mu, diffs):
        p = tuple(x + m * y for x, y in zip(p, d))
    return p


def reference_closest_point(points):
    """The least-norm projection over every subset of at most dim + 1 points."""
    dim = len(points[0])
    pts = list(dict.fromkeys(points))
    best = None
    for size in range(1, min(len(pts), dim + 1) + 1):
        for subset in combinations(pts, size):
            cand = _project_origin_affine(subset)
            if cand is None:
                continue
            n = norm_sq(cand)
            if n == 0:
                return zero_vec(dim)
            if best is None or n < norm_sq(best):
                best = cand
    return best


def reference_closest_points_by_subset(points):
    """{bitmask: (closest point, |closest point|^2)} for every nonempty subset
    of distinct rational points: the subsets of at most dim + 1 points by the
    variational inequality or a projection, the larger ones by the least-norm
    closest point of their one-smaller subsets."""
    dim = len(points[0])
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
                n = norm_sq(c)
            small[mask] = (n, c)
    table = {}
    for mask in range(1, 1 << len(points)):
        table[mask] = small.get(mask) or min(table[mask ^ b] for b in bits if mask & b)
    return {mask: (c, n) for mask, (n, c) in table.items()}


def reference_stratification(weights):
    """(beta, |beta|^2, supports) for every stratum index of the weights.

    One `reference_closest_point` enumeration per distinct set of
    supported weights, supports listed by size then lexicographically
    and indices sorted by (|beta|^2, beta): the stratification as it was
    computed before the closest points came from one subset table.
    """
    memo = {}
    by_beta = {}
    for size in range(1, len(weights) + 1):
        for support in combinations(range(len(weights)), size):
            key = frozenset(weights[i] for i in support)
            if key not in memo:
                memo[key] = reference_closest_point(sorted(key))
            by_beta.setdefault(memo[key], []).append(support)
    return [
        (beta, norm_sq(beta), tuple(by_beta[beta]))
        for beta in sorted(by_beta, key=lambda b: (norm_sq(b), b))
    ]


def reference_matmul(a, b):
    """Dense row-by-column product of two matrices given as lists of rows."""
    return [
        [sum((x * b[k][j] for k, x in enumerate(row)), Fraction(0)) for j in range(len(b[0]))]
        for row in a
    ]


def reference_commutator(a, b):
    """ab - ba for square matrices given as lists of rows."""
    return [
        [x - y for x, y in zip(r, s)]
        for r, s in zip(reference_matmul(a, b), reference_matmul(b, a))
    ]


def reference_sym_raising(k):
    """Dense sl2 raising element on the k-th symmetric power: v_j -> j v_{j-1}."""
    rows = [[Fraction(0)] * (k + 1) for _ in range(k + 1)]
    for j in range(1, k + 1):
        rows[j - 1][j] = Fraction(j)
    return RatMatrix(rows)


def reference_sym_lowering(k):
    """Dense sl2 lowering element on the k-th symmetric power: v_j -> (k - j) v_{j+1}."""
    rows = [[Fraction(0)] * (k + 1) for _ in range(k + 1)]
    for j in range(k):
        rows[j + 1][j] = Fraction(k - j)
    return RatMatrix(rows)


def reference_block_diagonal(blocks):
    """Square blocks placed along the diagonal, zero elsewhere."""
    size = sum(b.rows for b in blocks)
    rows = [[Fraction(0)] * size for _ in range(size)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b.entries):
            rows[offset + i][offset : offset + b.rows] = row
        offset += b.rows
    return RatMatrix(rows)


def _exp_nilpotent_poly(n_matrix, var_index, num_vars):
    """Matrix of exp(s * N) with entries polynomial in variable `var_index`."""
    size = n_matrix.rows
    result = [
        [MultiPoly(num_vars, {(0,) * num_vars: 1} if i == j else None) for j in range(size)]
        for i in range(size)
    ]
    power = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    factorial = 1
    for k in range(1, size):
        power = reference_matmul(power, n_matrix.entries)
        if all(c == 0 for row in power for c in row):
            break
        factorial *= k
        exp = [0] * num_vars
        exp[var_index] = k
        for i in range(size):
            for j in range(size):
                c = power[i][j]
                if c != 0:
                    result[i][j] = result[i][j].add(MultiPoly(num_vars, {tuple(exp): c / factorial}))
    return result


def reference_translate(u, x):
    """Coordinates of exp(s_1 N_1)...exp(s_u N_u) x, by polynomial matrix products."""
    dim = u.dim
    coords = [MultiPoly(dim, {(0,) * dim: c}) for c in x.coords]
    for j in range(dim - 1, -1, -1):
        matrix = _exp_nilpotent_poly(u.generators[j], j, dim)
        out = []
        for row in matrix:
            acc = MultiPoly(dim)
            for entry, c in zip(row, coords):
                acc = acc.add(entry.mul(c))
            out.append(acc)
        coords = out
    return coords


def fraction_series_translate(u, x):
    """Coordinates of exp(s_1 N_1)...exp(s_u N_u) x: each factor sums the
    series sum_k s^k/k! N^k over Fractions, N times the previous term
    times s/k, through the nonzero entries of N."""
    dim = u.dim
    coords = [{(0,) * dim: c} if c else {} for c in x.coords]
    for var in range(dim - 1, -1, -1):
        n_matrix = u.generators[var]
        total = [dict(p) for p in coords]
        term = coords
        for k in range(1, n_matrix.rows):
            step = [{} for _ in term]
            for i, j, c in n_matrix.nonzero_entries():
                out, scale = step[i], c / k
                for exp, v in term[j].items():
                    key = exp[:var] + (exp[var] + 1,) + exp[var + 1 :]
                    out[key] = out.get(key, 0) + scale * v
            term = step
            for acc, p in zip(total, term):
                for e, v in p.items():
                    acc[e] = acc.get(e, 0) + v
        coords = total
    return [MultiPoly(dim, p) for p in coords]


def mat_vec(m, v):
    """The product of a RatMatrix and a vector of Fractions."""
    if m.cols != len(v):
        raise ValueError("dimension mismatch in matrix-vector product")
    return tuple(dot(r, v) for r in m.entries)


def span_condition_rows(generators, coords):
    """Rows of the linear system on c: (sum c_j N_j) x lies in span(x)."""
    images = [mat_vec(g, coords) for g in generators]
    return [
        [im[i] * coords[k] - im[k] * coords[i] for im in images]
        for i, k in combinations(range(len(coords)), 2)
    ]


def reference_span_minors(gen):
    """The 2x2 minors (N x)_i x_k - (N x)_k x_i of (N x | x), one per
    coordinate pair i < k, as quadratic polynomials in the point x."""
    num_vars = gen.rows
    units = [tuple(int(i == k) for i in range(num_vars)) for k in range(num_vars)]
    xs = [MultiPoly(num_vars, {e: 1}) for e in units]
    image = [MultiPoly(num_vars, dict(zip(units, row))) for row in gen.entries]
    return [image[i].mul(xs[k]).sub(image[k].mul(xs[i])) for i, k in combinations(range(num_vars), 2)]


def matrix_rank(rows):
    return len(rref(rows)[1])


def reference_partial(p, index):
    out = {}
    for exp, c in p.terms.items():
        e = exp[index]
        if e:
            new = list(exp)
            new[index] = e - 1
            key = tuple(new)
            out[key] = out.get(key, Fraction(0)) + c * e
    return MultiPoly(p.num_vars, out)


def reference_derivation(n_matrix, p):
    """sum_i D(x_i) * dp/dx_i with D(x_i) = -sum_j N[i][j] x_j."""
    num_vars = p.num_vars
    out = MultiPoly(num_vars)
    for i, row in enumerate(n_matrix.entries):
        image = MultiPoly(num_vars)
        for j, c in enumerate(row):
            image = image.sub(MultiPoly(num_vars, {tuple(int(k == j) for k in range(num_vars)): c}))
        out = out.add(image.mul(reference_partial(p, i)))
    return out


def reference_derivation_on_degree(n_matrix, degree):
    """Dense matrix of the derivation on the degree-d monomials: column c
    holds the `reference_derivation` image of the c-th monomial."""
    monos = reference_monomials(n_matrix.rows, degree)
    images = [reference_derivation(n_matrix, MultiPoly(n_matrix.rows, {m: 1})) for m in monos]
    return RatMatrix([[image.terms.get(e, Fraction(0)) for image in images] for e in monos])


def reference_derivation_rows(operators, monos):
    """The rows of the joint derivation matrix on a span of monomials: one
    per operator and image monomial, holding that monomial's coefficient
    in the `reference_derivation` image of each monomial of the span."""
    rows = []
    for op in operators:
        images = [reference_derivation(op, MultiPoly(op.rows, {m: 1})) for m in monos]
        for exp in sorted({e for image in images for e in image.terms}):
            rows.append([image.terms.get(exp, Fraction(0)) for image in images])
    return rows


def _trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def reference_polydiv(num, den):
    """Quotient and remainder of Fraction coefficient lists, by long division."""
    num = list(num)
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    inv = Fraction(1) / den[-1]
    for i in range(len(num) - len(den), -1, -1):
        f = num[i + len(den) - 1] * inv
        q[i] = f
        if f != 0:
            for j, d in enumerate(den):
                num[i + j] -= f * d
    return q, _trim(num)


def reference_gcd_coeffs(a, b):
    """Monic gcd of Fraction coefficient lists by Euclid's algorithm; [] for two zeros."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        _, r = reference_polydiv(a, b)
        a, b = b, r
    return [c / a[-1] for c in a] if a else a


def reference_derivative(coeffs):
    return _trim([Fraction(i) * c for i, c in enumerate(coeffs)][1:])


def reference_distinct_root_count(coeffs):
    """deg f - deg gcd(f, f'), by the Fraction Euclid."""
    f = _trim(list(coeffs))
    return len(f) - len(reference_gcd_coeffs(f, reference_derivative(f)))


def reference_max_root_multiplicity(coeffs):
    """The length of the chain f, gcd(f, f'), ... down to a constant."""
    g, mult = _trim(list(coeffs)), 0
    while len(g) > 1:
        mult += 1
        g = reference_gcd_coeffs(g, reference_derivative(g))
    return mult


def reference_rational_roots(coeffs):
    """Distinct rational roots, sorted, by the rational-root test: every
    p/q with p dividing the lowest nonzero coefficient and q the leading
    one (both scaled to integers), found by trial division up to their
    square roots, is evaluated."""
    coeffs = _trim([Fraction(c) for c in coeffs])
    roots = []
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
        roots = [Fraction(0)]
    if len(coeffs) <= 1:
        return roots
    denom = 1
    for c in coeffs:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in coeffs]

    def divisors(n):
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.update((d, n // d))
            d += 1
        return sorted(out)

    for p in divisors(abs(ints[0])):
        for q in divisors(abs(ints[-1])):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and sum(c * cand**i for i, c in enumerate(coeffs)) == 0:
                    roots.append(cand)
    return sorted(roots)


def rational_roots_with_multiplicity(coeffs):
    """Rational roots with multiplicities, by repeated synthetic division."""
    out = []
    for root in reference_rational_roots(coeffs):
        work = list(coeffs)
        while work and work[-1] == 0:
            work.pop()
        mult = 0
        while work and sum(c * root**i for i, c in enumerate(work)) == 0:
            quotient = [Fraction(0)] * (len(work) - 1)
            carry = Fraction(0)
            for i in range(len(work) - 1, 0, -1):
                carry = work[i] + carry * root
                quotient[i - 1] = carry
            work = quotient
            while work and work[-1] == 0:
                work.pop()
            mult += 1
        out.append((root, mult))
    return out


def reference_monomials(num_vars, degree):
    """Every exponent tuple of the given total degree, sorted."""
    out = []
    for combo in combinations_with_replacement(range(num_vars), degree):
        exp = [0] * num_vars
        for i in combo:
            exp[i] += 1
        out.append(tuple(exp))
    return sorted(out)


def reference_weight_zero(monos, weights):
    """The monomials of weight zero under the given coordinate weights."""
    return [m for m in monos if not sum(e * w for e, w in zip(m, weights))]


def reference_monomials_of_weight(weights, degree, target):
    """The monomials of the given degree and weight, filtered from all of them."""
    monos = reference_monomials(len(weights), degree)
    return [m for m in monos if sum(e * w for e, w in zip(m, weights)) == target]


def reference_bidegree_weight_zero(n, a, b):
    """Weight-zero monomials of bidegree (a, b) on the plane times binary
    n-forms, filtered from every product of a z- and a w-monomial."""
    monos = sorted(z + w for z in reference_monomials(3, a) for w in reference_monomials(n + 1, b))
    return reference_weight_zero(monos, [1, -1, 0] + [n - 2 * j for j in range(n + 1)])


def reference_weight_counting_dimension(n, d):
    """Weight-0 minus weight-2 multiplicities of degree d on binary n-forms,
    counted over every combination of d weights."""
    weights = [n - 2 * j for j in range(n + 1)]
    sums = [sum(combo) for combo in combinations_with_replacement(weights, d)]
    return sums.count(0) - sums.count(2)


def reference_product_rank(spaces, d):
    """Rank of the products of the lower-degree bases landing in degree d,
    from Fraction `MultiPoly.mul` rows by dense Gauss-Jordan."""
    by_degree = {s.degree: s for s in spaces if s.degree >= 1}
    products = [
        p.mul(q)
        for d1 in range(1, d // 2 + 1)
        if d1 in by_degree and d - d1 in by_degree
        for p in by_degree[d1].basis
        for q in by_degree[d - d1].basis
    ]
    monos = sorted({e for f in products for e in f.terms})
    return reference_rank([[f.terms.get(m, Fraction(0)) for m in monos] for f in products]) if monos else 0


def reference_nonvanishing(spaces, coords):
    """(found, witness degree, bound) by Fraction evaluation at the point."""
    bound = 0
    for space in spaces:
        if space.degree < 1:
            continue
        bound = max(bound, space.degree)
        for p in space.basis:
            if p.evaluate(coords) != 0:
                return True, space.degree, bound
    return False, None, bound


@dataclass(frozen=True)
class Chamber:
    lo: Fraction
    hi: Fraction


def _twisted(g):
    return [Fraction(w) - g.character_twist for w in g.gm_weights]


def omega_sequence(g):
    """Strictly increasing distinct twisted grading weights."""
    return tuple(sorted(set(_twisted(g))))


def lowest_bounded_chamber(g):
    """[lowest weight, next distinct weight]; a single point for a trivial
    grading, which counts as its own interior."""
    values = omega_sequence(g)
    if len(values) == 1:
        return Chamber(lo=values[0], hi=values[0])
    return Chamber(lo=values[0], hi=values[1])


def chamber_contains_zero_interior(c):
    if c.lo == c.hi:
        return c.lo == 0
    return c.lo < 0 < c.hi


def is_adapted(g):
    return chamber_contains_zero_interior(lowest_bounded_chamber(g))


def min_weight_indices(g):
    tw = _twisted(g)
    lowest = min(tw)
    return tuple(i for i, w in enumerate(tw) if w == lowest)
