"""Sparse multivariate polynomials over the rationals.

A polynomial stores a map from exponent tuples to nonzero Fraction
coefficients; the zero polynomial has an empty map.  This keeps the
high-degree but very sparse spaces showing up in invariant-ring
computations cheap, and makes identity testing exact.

Univariate helpers (coefficient lists, Euclidean gcd, rational roots,
gcd chains for multiplicity detection) live here too: membership in a
one-parameter orbit sweep reduces to "do these univariate polynomials
have a common root over the algebraic closure", which is precisely
"is their gcd nonconstant".
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

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

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(num_vars: int) -> "MultiPoly":
        return MultiPoly(num_vars, {})

    @staticmethod
    def const(num_vars: int, value) -> "MultiPoly":
        return MultiPoly(num_vars, {(0,) * num_vars: Fraction(value)})

    @staticmethod
    def variable(num_vars: int, index: int) -> "MultiPoly":
        exp = [0] * num_vars
        exp[index] = 1
        return MultiPoly(num_vars, {tuple(exp): Fraction(1)})

    @staticmethod
    def monomial(num_vars: int, exp: Exponent, coeff=1) -> "MultiPoly":
        return MultiPoly(num_vars, {tuple(exp): Fraction(coeff)})

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

    def scale(self, c) -> "MultiPoly":
        c = Fraction(c)
        return MultiPoly(self.num_vars, {e: c * v for e, v in self.terms.items()})

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
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
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


def from_univariate_coeffs(coeffs: Sequence[Fraction]) -> MultiPoly:
    return MultiPoly(1, {(i,): Fraction(c) for i, c in enumerate(coeffs) if c != 0})


def _trim(coeffs: list[Fraction]) -> list[Fraction]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _polydiv(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
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


def _gcd_coeffs(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        _, r = _polydiv(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def poly_gcd_univariate(ps: Iterable[MultiPoly]) -> MultiPoly:
    """Monic gcd; the gcd of no polynomials (or of zeros) is zero."""
    acc: list[Fraction] = []
    for p in ps:
        acc = _gcd_coeffs(acc, univariate_coeffs(p))
        if len(acc) == 1:  # reached 1: gcd cannot shrink further
            break
    return from_univariate_coeffs(acc)


def univariate_derivative(coeffs: Sequence[Fraction]) -> list[Fraction]:
    return _trim([Fraction(i) * c for i, c in enumerate(coeffs)][1:])


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots (each listed once), by the rational-root test."""
    coeffs = _trim(list(coeffs))
    if not coeffs:
        raise ValueError("zero polynomial has every root")
    roots: list[Fraction] = []
    shift = 0
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
        shift = 1
    if shift:
        roots.append(Fraction(0))
    if len(coeffs) <= 1:
        return roots
    denom_lcm = 1
    for c in coeffs:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in coeffs]
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(n: int) -> list[int]:
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                out.append(n // d)
            d += 1
        return sorted(set(out))

    for p in divisors(a0):
        for q in divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                if sum(c * cand**i for i, c in enumerate(coeffs)) == 0:
                    roots.append(cand)
    return sorted(roots)


def max_root_multiplicity(coeffs: Sequence[Fraction]) -> int:
    """Largest multiplicity among the (algebraic) roots, via gcd chains.

    No root extraction is done: a polynomial has a root of multiplicity
    >= k exactly when its (k-1)-fold gcd-with-derivative chain is still
    nonconstant.
    """
    g = _trim(list(coeffs))
    if not g:
        raise ValueError("zero polynomial")
    mult = 0
    while len(g) > 1:
        mult += 1
        g = _gcd_coeffs(g, univariate_derivative(g))
    return mult
