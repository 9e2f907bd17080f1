"""Sparse multivariate polynomials over the rationals.

A polynomial stores a map from exponent tuples to nonzero Fraction
coefficients; the zero polynomial has an empty map.  This keeps the
high-degree but very sparse spaces showing up in invariant-ring
computations cheap, and makes identity testing exact.

Univariate helpers live here too: membership in a one-parameter orbit
sweep reduces to "do these univariate polynomials have a common root
over the algebraic closure", which is precisely "is their gcd
nonconstant".  They take rational coefficient lists and work on their
primitive integer multiples, which have the same roots: the gcd is a
primitive remainder sequence, rational roots are lifted p-adically from
the square-free part, and root multiplicities come from gcd chains.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Mapping, Sequence

from .ratio import format_fraction

Exponent = tuple[int, ...]


class MultiPoly:
    """Polynomial in `num_vars` variables; immutable after construction."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping[Exponent, Fraction] | None = None):
        cleaned: dict[Exponent, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                c = coeff if type(coeff) is Fraction else Fraction(coeff)
                if c != 0:
                    if len(exp) != num_vars:
                        raise ValueError("exponent length does not match num_vars")
                    cleaned[tuple(exp)] = c
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", cleaned)

    # -- ring operations ----------------------------------------------

    def add(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, Fraction(0)) + c
        return MultiPoly(self.num_vars, out)

    def sub(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, Fraction(0)) - c
        return MultiPoly(self.num_vars, out)

    def mul(self, other: "MultiPoly") -> "MultiPoly":
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.num_vars, out)

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(x == 0 for x in e) for e in self.terms)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        return sorted(self.terms.items())

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.num_vars:
            raise ValueError("point dimension does not match num_vars")
        total = Fraction(0)
        for exp, c in self.terms.items():
            v = c
            for x, e in zip(point, exp):
                if e:
                    v *= Fraction(x) ** e
            total += v
        return total

    def substitute_constants(self, values: Mapping[int, Fraction]) -> "MultiPoly":
        """Replace the given variables by constants (same num_vars)."""
        out: dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            v = c
            new = list(exp)
            for i, val in values.items():
                e = exp[i]
                if e:
                    v *= Fraction(val) ** e
                new[i] = 0
            if v != 0:
                key = tuple(new)
                out[key] = out.get(key, Fraction(0)) + v
        return MultiPoly(self.num_vars, out)

    def restrict_vars(self, keep: Sequence[int]) -> "MultiPoly":
        """Project onto a subset of variables; others must not occur."""
        out: dict[Exponent, Fraction] = {}
        keep = list(keep)
        keep_set = set(keep)
        for exp, c in self.terms.items():
            if any(e and i not in keep_set for i, e in enumerate(exp)):
                raise ValueError("polynomial involves a dropped variable")
            out[tuple(exp[i] for i in keep)] = c
        return MultiPoly(len(keep), out)

    def variables_used(self) -> set[int]:
        used: set[int] = set()
        for exp in self.terms:
            used.update(i for i, e in enumerate(exp) if e)
        return used

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.num_vars, tuple(self.sorted_terms())))

    def __repr__(self) -> str:
        return f"MultiPoly({self.num_vars}, {dict(self.sorted_terms())!r})"

    def format(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            factors = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exp) if e]
            if not factors:
                parts.append(format_fraction(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(format_fraction(c) + "*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")


# -- univariate utilities ---------------------------------------------


def univariate_coeffs(p: MultiPoly) -> list[Fraction]:
    """Dense coefficient list [c0, c1, ...] of a univariate polynomial."""
    if p.num_vars != 1:
        raise ValueError("not univariate")
    if p.is_zero():
        return []
    deg = max(e[0] for e in p.terms)
    out = [Fraction(0)] * (deg + 1)
    for (e,), c in p.terms.items():
        out[e] = c
    return out


def _primitive(f: list[int]) -> list[int]:
    """f over its content, with a positive leading coefficient."""
    c = gcd(*f) if f[-1] > 0 else -gcd(*f)
    return [x // c for x in f]


def _int_coeffs(coeffs: Sequence[Fraction]) -> list[int]:
    """The primitive integer multiple of a rational coefficient list; [] for zero."""
    d = lcm(*(c.denominator for c in coeffs))
    f = [c.numerator * (d // c.denominator) for c in coeffs]
    while f and not f[-1]:
        f.pop()
    return _primitive(f) if f else []


def _derivative(f: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(f)][1:]


def _residue(f: list[int], x: int, m: int) -> int:
    """f(x) mod m, by Horner's rule."""
    v = 0
    for c in reversed(f):
        v = (v * x + c) % m
    return v


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of integer coefficient lists, [] when both are zero,
    by the primitive remainder sequence (Collins 1967): each remainder is
    a nonzero integer multiple of the Euclidean one, over its content."""
    while b:
        r = a
        while len(r) >= len(b):  # r <- (lc b / g) r - (lc r / g) x^k b, g their gcd
            g = gcd(r[-1], b[-1])
            s, t, k = b[-1] // g, r[-1] // g, len(r) - len(b)
            r = [s * x for x in r]
            for j, y in enumerate(b):
                r[k + j] -= t * y
            while r and not r[-1]:
                r.pop()
        a, b = b, _primitive(r) if r else []
    return _primitive(a) if a else []


def _square_free(coeffs: Sequence[Fraction]) -> list[int]:
    """f / gcd(f, f') for a nonzero rational list f, divided exactly in
    Z[x]: a primitive polynomial with each distinct root of f once."""
    f = _int_coeffs(coeffs)
    if not f:
        raise ValueError("zero polynomial has every root")
    h = _int_gcd(f, _derivative(f))
    q = [0] * (len(f) - len(h) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = c = f[i + len(h) - 1] // h[-1]
        for j, y in enumerate(h):
            f[i + j] -= c * y
    return q


def poly_gcd_univariate(ps: Iterable[MultiPoly]) -> MultiPoly:
    """Monic gcd; the gcd of no polynomials (or of zeros) is zero."""
    acc: list[int] = []
    for p in ps:
        acc = _int_gcd(acc, _int_coeffs(univariate_coeffs(p)))
        if len(acc) == 1:  # reached 1: gcd cannot shrink further
            break
    return MultiPoly(1, {(i,): Fraction(c, acc[-1]) for i, c in enumerate(acc) if c})


def distinct_root_count(coeffs: Sequence[Fraction]) -> int:
    """deg f - deg gcd(f, f'), the number of distinct roots over the algebraic closure."""
    return len(_square_free(coeffs)) - 1


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots, each listed once, in increasing order, by
    p-adic lifting (Loos 1983).  For g the square-free part, of degree n
    and leading coefficient a, the integer roots of the monic
    G(y) = a^(n-1) g(y/a) are a times the rational roots of g, and
    |y| <= 1 + max|G_i|.  Newton's step lifts each root of G mod p, for a
    prime p not dividing a where all are simple, to the only root above
    it mod p^k > 2 (1 + max|G_i|), whose symmetric residue is checked.
    """
    g = _square_free(coeffs)
    n, a = len(g) - 1, g[-1]
    big = [c * a ** (n - 1 - i) for i, c in enumerate(g[:-1])] + [1]
    slope, p = _derivative(big), 1
    while True:  # the odd primes in turn; finitely many divide a or the discriminant
        p += 2
        if a % p and all(p % d for d in range(3, isqrt(p) + 1, 2)):
            roots = [r for r in range(p) if not _residue(big, r, p)]
            if all(_residue(slope, r, p) for r in roots):
                break
    m, bound = p, 2 * (1 + max(map(abs, big)))
    while m <= bound:
        m *= m
        roots = [(r - _residue(big, r, m) * pow(_residue(slope, r, m), -1, m)) % m for r in roots]
    ys = sorted(r - m if 2 * r > m else r for r in roots)
    return [Fraction(y, a) for y in ys if not sum(c * y**i for i, c in enumerate(big))]


def max_root_multiplicity(coeffs: Sequence[Fraction]) -> int:
    """Largest multiplicity among the (algebraic) roots, via gcd chains.

    No root extraction is done: a polynomial has a root of multiplicity
    >= k exactly when its (k-1)-fold gcd-with-derivative chain is still
    nonconstant.
    """
    g = _int_coeffs(coeffs)
    if not g:
        raise ValueError("zero polynomial")
    mult = 0
    while len(g) > 1:
        mult += 1
        g = _int_gcd(g, _derivative(g))
    return mult
