"""Linear action data model, document format, and built-in actions.

An action on P^n is recorded in coordinates diagonalising the grading
one-parameter subgroup: integer torus weights per coordinate, an
optional grading (integer weights plus a rational character twist), and
optional nilpotent unipotent generators with strictly positive adjoint
weights.  Inputs not in diagonal form are rejected, never diagonalised.

Document format (JSON): top-level keys `label`, `n`, `torus`,
`grading`, `unipotent`, `points`, `bounds`; all rationals as "p/q"
strings; serialisation is canonical so parse(serialize(d)) == d holds
bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    GradingCommutationFailure,
    MalformedDocument,
    NonPositiveGradingWeight,
    NotNilpotent,
)
from .linalg import IntEntries, RatMatrix, Vector, integer_entries, vec
from .ratio import format_fraction, parse_fraction


@dataclass(frozen=True)
class TorusWeights:
    """Diagonal weights of a rank-r torus on the n+1 coordinates."""

    rank: int
    weights: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise DimensionMismatch("torus rank must be >= 1")
        if not self.weights:
            raise DimensionMismatch("need at least one coordinate weight")
        if any(len(w) != self.rank for w in self.weights):
            raise DimensionMismatch("weight vector length differs from rank")

    @property
    def n(self) -> int:
        return len(self.weights) - 1


@dataclass(frozen=True)
class GradingData:
    """Grading circle weights per coordinate plus a character twist.

    `gm_weights` is kept in coordinate order.  The twisted weights and
    their ladder omega, the distinct twisted weights in increasing order,
    are built once.  The lowest bounded chamber is [omega_0, omega_1], a
    single point when the grading is trivial; the twist is adapted when 0
    is interior to it, a single point counting as its own interior.  The
    minimal fixed locus Z_min is spanned by the coordinates of weight
    omega_0.
    """

    gm_weights: tuple[int, ...]
    character_twist: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "gm_weights", tuple(int(w) for w in self.gm_weights))
        chi = Fraction(self.character_twist)
        object.__setattr__(self, "character_twist", chi)
        twisted = tuple(w - chi for w in self.gm_weights)
        object.__setattr__(self, "_twisted", twisted)
        object.__setattr__(self, "_omega", tuple(sorted(set(twisted))))

    def twisted_weights(self) -> tuple[Fraction, ...]:
        return self._twisted

    def omega(self) -> tuple[Fraction, ...]:
        return self._omega

    def is_trivial(self) -> bool:
        return len(self._omega) <= 1

    def chamber(self) -> tuple[Fraction, Fraction]:
        om = self._omega
        return om[0], om[1] if len(om) > 1 else om[0]

    def is_adapted(self) -> bool:
        lo, hi = self.chamber()
        return lo == hi == 0 or lo < 0 < hi

    def min_weight_indices(self) -> tuple[int, ...]:
        lowest = self._omega[0]
        return tuple(i for i, w in enumerate(self._twisted) if w == lowest)


@dataclass(frozen=True)
class UnipotentData:
    """Nilpotent generators of Lie(U) with their adjoint grading weights."""

    generators: tuple[RatMatrix, ...]
    grading_weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.generators) != len(self.grading_weights):
            raise DimensionMismatch("one adjoint weight per generator required")
        for w in self.grading_weights:
            if w <= 0:
                raise NonPositiveGradingWeight(f"adjoint weight {w} is not positive")
        for g in self.generators:
            if g.rows != g.cols:
                raise DimensionMismatch("generator is not square")
            if not g.is_nilpotent():
                raise NotNilpotent("generator has a nonzero eigenvalue")

    @property
    def dim(self) -> int:
        return len(self.generators)

    @cached_property
    def integer_generators(self) -> tuple[tuple[int, IntEntries], ...]:
        """Each generator's `integer_entries`, read once."""
        return tuple(integer_entries(g) for g in self.generators)


class ProjectivePoint:
    """Homogeneous rational coordinates; equality is up to global scale."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable) -> None:
        c = vec(coords)
        if not c or all(x == 0 for x in c):
            raise MalformedDocument("projective point needs a nonzero coordinate")
        object.__setattr__(self, "coords", c)

    @property
    def n(self) -> int:
        return len(self.coords) - 1

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.coords) if x != 0)

    def normalized(self) -> Vector:
        lead = next(x for x in self.coords if x != 0)
        return tuple(x / lead for x in self.coords)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProjectivePoint) and self.normalized() == other.normalized()

    def __hash__(self) -> int:
        return hash(self.normalized())

    def __repr__(self) -> str:
        return "[" + ":".join(format_fraction(x) for x in self.coords) + "]"


@dataclass(frozen=True)
class WeightedAction:
    """A linearised action: torus weights, optional grading, optional U."""

    torus: TorusWeights
    grading: GradingData | None = None
    unipotent: UnipotentData | None = None
    label: str = ""

    def __post_init__(self) -> None:
        n = self.torus.n
        if self.grading is not None and len(self.grading.gm_weights) != n + 1:
            raise DimensionMismatch("grading weight count differs from n+1")
        if self.unipotent is not None:
            for g in self.unipotent.generators:
                if g.rows != n + 1:
                    raise DimensionMismatch("generator size differs from n+1")
            if self.grading is not None:
                # [diag(d), N] has entries (d_i - d_j) N_ij, so it is w N
                # exactly when d_i - d_j = w wherever N_ij is nonzero.
                d = self.grading.gm_weights
                for g, w in zip(self.unipotent.generators, self.unipotent.grading_weights):
                    if any(d[i] - d[j] != w for i, j, _ in g.nonzero_entries()):
                        raise GradingCommutationFailure(
                            f"[diag(grading), N] != {w} N for a generator"
                        )

    @property
    def n(self) -> int:
        return self.torus.n

    def unipotent_dim(self) -> int:
        return self.unipotent.dim if self.unipotent is not None else 0


@dataclass(frozen=True)
class Bounds:
    max_degree: int = 12
    product_m: int = 0  # 0 means "use the computed lower bound"
    subset_cap: int = 16
    bidegree_cap: int = 16

    def __post_init__(self) -> None:
        if self.max_degree < 0 or self.subset_cap < 1 or self.bidegree_cap < 1 or self.product_m < 0:
            raise MalformedDocument("bounds must be positive")


@dataclass(frozen=True)
class ActionDocument:
    action: WeightedAction
    points: tuple[tuple[str, ProjectivePoint], ...] = ()
    bounds: Bounds = field(default_factory=Bounds)


# -- parsing / serialisation ------------------------------------------


def _require(mapping: dict, key: str, kind: type, where: str):
    if key not in mapping:
        raise MalformedDocument(f"missing key {key!r} in {where}")
    value = mapping[key]
    if kind is int and isinstance(value, bool):
        raise MalformedDocument(f"key {key!r} in {where} must be an integer")
    if not isinstance(value, kind):
        raise MalformedDocument(f"key {key!r} in {where} has wrong type")
    return value


def parse_point_entry(praw) -> tuple[str, list[Fraction]]:
    """Name and coordinates of one {"name": ..., "coords": [...]} entry."""
    if not isinstance(praw, dict):
        raise MalformedDocument("point entries must be objects")
    name = _require(praw, "name", str, "point")
    return name, [parse_fraction(x) for x in _require(praw, "coords", list, "point")]


def parse_document(text: str) -> ActionDocument:
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the interpreter's digit limit
        raise MalformedDocument(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MalformedDocument("not valid JSON: nested too deeply") from exc
    if not isinstance(raw, dict):
        raise MalformedDocument("document top level must be an object")

    label = _require(raw, "label", str, "document")
    n = _require(raw, "n", int, "document")
    torus_raw = _require(raw, "torus", dict, "document")
    rank = _require(torus_raw, "rank", int, "torus")
    weights_raw = _require(torus_raw, "weights", list, "torus")
    weights = []
    for w in weights_raw:
        if not isinstance(w, list) or not all(isinstance(x, int) and not isinstance(x, bool) for x in w):
            raise MalformedDocument("torus weights must be lists of integers")
        weights.append(tuple(w))
    torus = TorusWeights(rank=rank, weights=tuple(weights))
    if torus.n != n:
        raise DimensionMismatch(f"document says n={n} but torus lists {torus.n + 1} weights")

    grading = None
    if raw.get("grading") is not None:
        graw = _require(raw, "grading", dict, "document")
        gm = _require(graw, "gm_weights", list, "grading")
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in gm):
            raise MalformedDocument("gm_weights must be integers")
        chi = parse_fraction(_require(graw, "chi", str, "grading"))
        grading = GradingData(gm_weights=tuple(gm), character_twist=chi)

    unipotent = None
    if raw.get("unipotent") is not None:
        uraw = _require(raw, "unipotent", dict, "document")
        gens_raw = _require(uraw, "generators", list, "unipotent")
        adj = _require(uraw, "adjoint_weights", list, "unipotent")
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in adj):
            raise MalformedDocument("adjoint_weights must be integers")
        gens = []
        for g in gens_raw:
            if not isinstance(g, list):
                raise MalformedDocument("generator must be a matrix (list of rows)")
            rows = []
            for row in g:
                if not isinstance(row, list):
                    raise MalformedDocument("generator row must be a list")
                rows.append([parse_fraction(x) for x in row])
            if len({len(row) for row in rows}) > 1:
                raise MalformedDocument("generator rows differ in length")
            gens.append(RatMatrix(rows))
        unipotent = UnipotentData(generators=tuple(gens), grading_weights=tuple(adj))

    action = WeightedAction(torus=torus, grading=grading, unipotent=unipotent, label=label)

    points: list[tuple[str, ProjectivePoint]] = []
    points_raw = raw.get("points")
    if points_raw is not None and not isinstance(points_raw, list):
        raise MalformedDocument("key 'points' in document must be a list")
    for praw in points_raw or []:
        name, coords = parse_point_entry(praw)
        if len(coords) != n + 1:
            raise DimensionMismatch(f"point {name!r} has {len(coords)} coordinates, expected {n + 1}")
        points.append((name, ProjectivePoint(coords)))

    bounds = Bounds()
    if raw.get("bounds") is not None:
        braw = _require(raw, "bounds", dict, "document")
        keys = [f.name for f in fields(Bounds) if f.name in braw]
        bounds = Bounds(**{key: _require(braw, key, int, "bounds") for key in keys})

    return ActionDocument(action=action, points=tuple(points), bounds=bounds)


def document_to_dict(doc: ActionDocument) -> dict:
    action = doc.action
    out: dict = {
        "label": action.label,
        "n": action.n,
        "torus": {
            "rank": action.torus.rank,
            "weights": [list(w) for w in action.torus.weights],
        },
        "grading": None,
        "unipotent": None,
        "points": [
            {"name": name, "coords": [format_fraction(x) for x in p.coords]}
            for name, p in doc.points
        ],
        "bounds": asdict(doc.bounds),
    }
    if action.grading is not None:
        out["grading"] = {
            "gm_weights": list(action.grading.gm_weights),
            "chi": format_fraction(action.grading.character_twist),
        }
    if action.unipotent is not None:
        out["unipotent"] = {
            "generators": [
                [[format_fraction(x) for x in row] for row in g.entries]
                for g in action.unipotent.generators
            ],
            "adjoint_weights": list(action.unipotent.grading_weights),
        }
    return out


def serialize_document(doc: ActionDocument) -> str:
    return dump_json(document_to_dict(doc)) + "\n"


def dump_json(obj) -> str:
    """The text of `json.dumps(obj, sort_keys=True, indent=2)`, in one pass.

    Takes str-keyed dicts, lists, tuples (written as lists), strings,
    ints, booleans and None, the types every report and document is built
    from; anything else, floats included, raises TypeError.  Before
    Python 3.13 the stdlib writes indented JSON through a pure-Python
    generator encoder (its C encoder runs only without `indent`); this is
    one recursive function appending to one list, with strings escaped by
    the C `encode_basestring_ascii`.
    """
    chunks: list[str] = []
    _write_json(obj, "\n", chunks.append)
    return "".join(chunks)


def _write_json(obj, newline: str, emit) -> None:
    """Emit the chunks of `obj`; `newline` is the line break and indent at its depth."""
    if isinstance(obj, str):
        emit(encode_basestring_ascii(obj))
    elif obj is None:
        emit("null")
    elif obj is True:
        emit("true")
    elif obj is False:
        emit("false")
    elif isinstance(obj, int):
        emit(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            emit(sep)
            sep = "," + inner
            _write_json(item, inner, emit)
        emit(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            emit(sep)
            sep = "," + inner
            emit(encode_basestring_ascii(key))
            emit(": ")
            _write_json(obj[key], inner, emit)
        emit(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# -- built-in actions --------------------------------------------------


def sl2_entries(k: int, offset: int = 0) -> tuple[IntEntries, IntEntries]:
    """Nonzero entries of the sl2 raising and lowering elements on the k-th
    symmetric power, on the coordinates offset..offset + k.

    Basis v_0..v_k with v_j = e1^(k-j) e2^j; the raising element sends v_j
    to j v_{j-1}, the lowering element sends v_j to (k - j) v_{j+1}.
    """
    raising = [(offset + j - 1, offset + j, j) for j in range(1, k + 1)]
    lowering = [(offset + j + 1, offset + j, k - j) for j in range(k)]
    return raising, lowering


def jordan_embed_ga(block_sizes: Sequence[int], chi: Fraction = Fraction(0)) -> WeightedAction:
    """Additive-group action on P^n from Jordan blocks of sizes k_i + 1.

    The coordinate space splits as a direct sum of symmetric powers of
    the defining 2-dimensional representation; each block of size k+1
    carries weights (k, k-2, ..., -k) and the raising operator, and the
    adjoint grading weight of the generator is 2.
    """
    blocks = [int(k) for k in block_sizes]
    if not blocks or any(k < 1 for k in blocks):
        raise DimensionMismatch("block sizes must be positive")
    weights: list[tuple[int, ...]] = []
    raising: IntEntries = []
    for k in blocks:
        raising += sl2_entries(k, len(weights))[0]
        weights.extend((k - 2 * j,) for j in range(k + 1))
    generator = RatMatrix.from_entries(len(weights), raising)
    label = "ga_jordan_" + "_".join(str(k) for k in blocks)
    return WeightedAction(
        torus=TorusWeights(rank=1, weights=tuple(weights)),
        grading=GradingData(gm_weights=tuple(w[0] for w in weights), character_twist=chi),
        unipotent=UnipotentData(generators=(generator,), grading_weights=(2,)),
        label=label,
    )


def aut_p112_example(chi: Fraction = Fraction(0)) -> WeightedAction:
    """Unipotent part of the automorphisms of the (1,1,2) weighted plane.

    Acting on the span of (x^2, xy, y^2, z): three commuting generators
    send z to z plus a quadric, graded by the central circle of GL(2)
    with coordinate weights (2, 2, 2, 0) and adjoint weights (2, 2, 2).
    """
    gens = [RatMatrix.from_entries(4, [(i, 3, 1)]) for i in range(3)]
    return WeightedAction(
        torus=TorusWeights(rank=1, weights=((2,), (2,), (2,), (0,))),
        grading=GradingData(gm_weights=(2, 2, 2, 0), character_twist=chi),
        unipotent=UnipotentData(generators=tuple(gens), grading_weights=(2, 2, 2)),
        label="aut_p112",
    )


def jet_group_example(k: int, chi: Fraction = Fraction(0)) -> WeightedAction:
    """Reparametrisation jets of order k acting on jet coefficients.

    The group of truncated power series a1 t + ... + ak t^k acts on the
    coefficient space of jets by composition.  On coefficient
    coordinates the circle a1 acts with weights (1, 2, ..., k); the
    parameter directions a_{m+1} differentiate to the generators
    N_m = sum_j j E_{j+m,j} (the transpose of the upper-triangular
    matrix model, which acts on monomials), with adjoint weight m.
    """
    if k < 2:
        raise DimensionMismatch("jet order must be >= 2")
    gens = [RatMatrix.from_entries(k, [(j + m - 1, j - 1, j) for j in range(1, k - m + 1)]) for m in range(1, k)]
    return WeightedAction(
        torus=TorusWeights(rank=1, weights=tuple((i,) for i in range(1, k + 1))),
        grading=GradingData(gm_weights=tuple(range(1, k + 1)), character_twist=chi),
        unipotent=UnipotentData(generators=tuple(gens), grading_weights=tuple(range(1, k))),
        label=f"jet_group_{k}",
    )
