"""Command-line front end.

Batch semantics: parse an action document, run one job over its point
panel, emit a deterministic report.  JSON output is byte-identical for
identical jobs (including the seed); timings appear only in text mode.
`actions.dump_json` writes it: the same text as
`json.dumps(payload, sort_keys=True, indent=2)`, in one pass.

Exit codes: 0 success, 2 parse error, 3 precondition violation,
4 enumeration or degree bound exhausted, or a number to print past the
interpreter's integer digit limit.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import corpus, graded, invariants, torus
from .actions import (
    ActionDocument,
    GradingData,
    ProjectivePoint,
    dump_json,
    parse_document,
    parse_point_entry,
)
from .errors import (
    BoundExceeded,
    ParseError,
    PreconditionError,
    StablociError,
)
from .linalg import zero_vec
from .ratio import format_fraction, parse_fraction

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BOUNDS = 4


def _frs(xs) -> list[str]:
    return [format_fraction(x) for x in xs]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """Raise a usage error as a ParseError, which `run` maps to exit 2."""
        raise ParseError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stabloci",
        description="Exact stability loci, stratifications and invariants for linear actions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, action_required: bool = True) -> None:
        p.add_argument("--action", required=action_required, help="action document path")
        p.add_argument("--points", default=None, help="extra points: file or inline name:c0,c1,...;...")
        p.add_argument("--chi", default=None, help='character twist "p/q" (comma-separated for rank > 1)')
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("stability", help="torus verdicts over the panel")
    common(p)

    p = sub.add_parser("chamber", help="lowest bounded chamber and adapted window")
    common(p)

    p = sub.add_parser("strata", help="unstable stratification data")
    common(p)
    p.add_argument("--subset-cap", type=int, default=0, help="0 = document bound")

    p = sub.add_parser("graded", help="graded-unipotent stability report")
    common(p)

    p = sub.add_parser("hatstable", help="product-line stability at a rational parameter")
    common(p)
    p.add_argument("--q", default="0", help='rational parameter "p/q"')
    p.add_argument("--m", type=int, default=0, help="line twist power (0 = computed lower bound)")

    p = sub.add_parser("invariants", help="invariant dimension tables and verdicts")
    common(p, action_required=False)
    p.add_argument("--max-degree", type=int, default=0, help="0 = document bound")
    p.add_argument("--sl2", type=int, default=0, help="binary-form degree for reductive tables")

    p = sub.add_parser("examples", help="regenerate the built-in corpus")
    p.add_argument("--out", default="corpus", help="output directory")
    p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def _parse_chi(text: str | None, rank: int) -> tuple[Fraction, ...]:
    if text is None:
        return zero_vec(rank)
    parts = [p.strip() for p in text.split(",")]
    values = tuple(parse_fraction(p) for p in parts)
    if len(values) == 1 and rank > 1:
        values = values * rank
    if len(values) != rank:
        raise ParseError(f"twist has {len(values)} entries, torus rank is {rank}")
    return values


def _bound(value: int, default: int, flag: str) -> int:
    """A bound flag's value, where 0 means the default."""
    if value < 0:
        raise ParseError(f"{flag} must be nonnegative, got {value}")
    return value or default


def _load_document(args) -> ActionDocument:
    path = Path(args.action)
    try:
        text = path.read_text()
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise ParseError(f"action document {path} does not exist") from exc
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read action document {path}: {exc}") from exc
    doc = parse_document(text)
    if args.points:
        doc = dataclasses.replace(doc, points=doc.points + _parse_points(args.points, doc.action.n))
    return doc


def _load_graded_document(args) -> ActionDocument:
    """The --action document, its grading twisted by the one --chi entry."""
    doc = _load_document(args)
    if args.chi is None:
        return doc
    parts = args.chi.split(",")
    if len(parts) != 1:
        raise ParseError(f"the grading twist takes one --chi entry, got {len(parts)}")
    if doc.action.grading is None:
        raise ParseError("the document has no grading to twist; drop --chi")
    grading = GradingData(
        gm_weights=doc.action.grading.gm_weights, character_twist=parse_fraction(parts[0])
    )
    return dataclasses.replace(doc, action=dataclasses.replace(doc.action, grading=grading))


def _parse_points(text: str, n: int) -> tuple[tuple[str, ProjectivePoint], ...]:
    path = Path(text)
    out = []
    if os.path.exists(text):  # False, not an OSError, on a name too long for a file: inline text
        try:
            raw = json.loads(path.read_text())
        except (OSError, ValueError, RecursionError) as exc:
            raise ParseError(f"cannot read points file {path}: {exc}") from exc
        if not isinstance(raw, list):
            raise ParseError(f"points file {path} must hold a list of point entries")
        for entry in raw:
            name, coords = parse_point_entry(entry)
            out.append((name, ProjectivePoint(coords)))
    else:
        for chunk in text.split(";"):
            if not chunk.strip():
                continue
            name, _, coord_text = chunk.partition(":")
            coords = [parse_fraction(c) for c in coord_text.split(",")]
            out.append((name.strip(), ProjectivePoint(coords)))
    for name, p in out:
        if p.n != n:
            raise ParseError(f"point {name!r} has dimension {p.n}, action has {n}")
    return tuple(out)


def _verdict_row(name: str, verdict: torus.StabilityVerdict) -> dict:
    row = {
        "point": name,
        "status": verdict.status.value,
        "support": list(verdict.support),
        "hull_position": verdict.hull_position.value if verdict.hull_position else None,
        "detail": verdict.detail,
        "heuristic": verdict.heuristic,
    }
    if verdict.heuristic:
        row["seed"] = verdict.seed
    return row


def cmd_stability(args) -> dict:
    doc = _load_document(args)
    chi = _parse_chi(args.chi, doc.action.torus.rank)
    rows = [
        _verdict_row(name, torus.torus_verdict(doc.action.torus, chi, p))
        for name, p in doc.points
    ]
    return {
        "command": "stability",
        "label": doc.action.label,
        "chi": _frs(chi),
        "rows": rows,
    }


def cmd_chamber(args) -> dict:
    doc = _load_graded_document(args)
    g = doc.action.grading
    if g is None:
        raise PreconditionError("chamber report needs grading data")
    lo, hi = g.chamber()
    payload = {
        "command": "chamber",
        "label": doc.action.label,
        "chi": format_fraction(g.character_twist),
        "chamber": {"lo": format_fraction(lo), "hi": format_fraction(hi)},
        "contains_zero_interior": g.is_adapted(),
        "omega": _frs(g.omega()),
        "window": None,
    }
    if not g.is_trivial():
        window = graded.adapted_window(g)
        payload["window"] = {
            "lo": format_fraction(window.lo),
            "hi": format_fraction(window.hi),
            "well_adapted": format_fraction(window.well_adapted_hi),
        }
    return payload


def cmd_strata(args) -> dict:
    doc = _load_document(args)
    chi = _parse_chi(args.chi, doc.action.torus.rank)
    cap = _bound(args.subset_cap, doc.bounds.subset_cap, "--subset-cap")
    strat = torus.stratification_indices(doc.action.torus, chi, cap)
    indices = [
        {"beta": _frs(idx.beta), "norm_sq": format_fraction(idx.norm_sq), "supports": supports}
        for idx, supports in strat.assignments
    ]
    # Panel points are dimension-checked and nonzero at parse time, so
    # every support is a nonempty subset of the stratified coordinates.
    index_of = {s: idx for idx, supports in strat.assignments for s in supports}
    rows = []
    for name, p in doc.points:
        idx = index_of[p.support()]
        rows.append({"point": name, "beta": _frs(idx.beta), "norm_sq": format_fraction(idx.norm_sq)})
    quotients = [
        {
            "beta": _frs(data.index.beta),
            "z_indices": list(data.z_indices),
            "above_indices": list(data.above_indices),
            "below_indices": list(data.below_indices),
            "adapted_twist": _frs(data.adapted_twist),
            "delta": format_fraction(data.delta),
        }
        for data in strat.quotient_data()
    ]
    return {
        "command": "strata",
        "label": doc.action.label,
        "chi": _frs(chi),
        "indices": indices,
        "rows": rows,
        "quotients": quotients,
    }


def _condition_payload(report: graded.ConditionReport) -> dict:
    return {
        "verdict": report.verdict.value,
        "exact": report.exact,
        "witness": _frs(report.witness.coords) if report.witness else None,
        "detail": report.detail,
        "seed": report.seed,
        "samples": report.samples,
    }


def cmd_graded(args) -> dict:
    doc = _load_graded_document(args)
    action = doc.action
    g = action.grading
    if g is None:
        raise PreconditionError("graded report needs grading data")
    cstar = graded.check_condition_cstar(action, seed=args.seed)
    cstar_tilde = graded.check_condition_cstar_tilde(action, seed=args.seed)
    payload: dict = {
        "command": "graded",
        "label": action.label,
        "chi": format_fraction(g.character_twist),
        "conditions": {
            "cstar": _condition_payload(cstar),
            "cstar_tilde": _condition_payload(cstar_tilde),
        },
        "blowup_centre": None,
        "rows": [],
    }
    if action.unipotent_dim() <= 1:
        centre = graded.blowup_centre(action)
        payload["blowup_centre"] = {
            "max_stab_dim_x0min": centre.max_stab_dim_x0min,
            "meets_x0min": centre.meets_x0min,
            "equations": [eq.format() for eq in centre.equations],
        }
    for name, p in doc.points:
        verdict = graded.hat_stable_minplus(action, p, seed=args.seed)
        row = _verdict_row(name, verdict)
        row["in_z_min"] = graded.in_Z_min(g, p)
        row["in_x0_min"] = graded.in_X0_min(g, p)
        if action.unipotent is not None:
            row["stab_dim"] = graded.stab_dim_u(action.unipotent, p).dim
        payload["rows"].append(row)
    return payload


def cmd_hatstable(args) -> dict:
    doc = _load_graded_document(args)
    q = parse_fraction(args.q)
    m = _bound(args.m, 0, "--m") or max(doc.bounds.product_m, graded.m_lower_bound(doc.action, q))
    rows = []
    for name, p in doc.points:
        verdict = graded.q_hat_stable(doc.action, q, m, p, seed=args.seed)
        rows.append(_verdict_row(name, verdict))
    return {
        "command": "hatstable",
        "label": doc.action.label,
        "q": format_fraction(q),
        "m": m,
        "rows": rows,
    }


def cmd_invariants(args) -> dict:
    if args.sl2 and (args.action or args.points or args.chi):
        raise ParseError("--sl2 tables take no --action, --points or --chi")
    if args.sl2:
        n = args.sl2
        bound = _bound(args.max_degree, 6, "--max-degree")
        dims = []
        for d in range(1, bound + 1):
            dims.append(
                {
                    "degree": d,
                    "dim": invariants.sl2_invariant_dimension(n, d),
                    "oracle": invariants.sl2_weight_counting_dimension(n, d),
                }
            )
        return {
            "command": "invariants",
            "sl2_form_degree": n,
            "max_degree": bound,
            "dimensions": dims,
        }
    if not args.action:
        raise ParseError("invariants needs --action or --sl2")
    if args.chi is not None:
        raise ParseError("invariant tables do not depend on the twist; drop --chi")
    doc = _load_document(args)
    action = doc.action
    if action.unipotent is None:
        raise PreconditionError("invariant tables need unipotent data (or use --sl2)")
    bound = _bound(args.max_degree, doc.bounds.max_degree, "--max-degree")
    # Zero weights give one block, and the coordinate count when there are no generators.
    gm = action.grading.gm_weights if action.grading is not None else (0,) * (action.n + 1)
    spaces = [
        invariants.unipotent_invariants(action.unipotent, d, gm_weights=gm, degree_cap=bound)
        for d in range(1, bound + 1)
    ]
    report = invariants.generator_degree_report(spaces)
    rows = []
    for name, p in doc.points:
        verdict = invariants.invariant_nonvanishing_verdict(spaces, p)
        rows.append(
            {
                "point": name,
                "nonvanishing": verdict.found,
                "witness_degree": verdict.witness_degree,
                "bound": verdict.bound,
            }
        )
    return {
        "command": "invariants",
        "label": action.label,
        "max_degree": bound,
        "dimensions": [
            {
                "degree": row.degree,
                "dim": row.dim,
                "from_products": row.from_products,
                "new_generators": row.new_generators,
            }
            for row in report
        ],
        "rows": rows,
    }


def cmd_examples(args) -> dict:
    out_dir = Path(args.out)
    written = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in corpus.render_corpus():
            (out_dir / name).write_text(text)
            written.append(str(out_dir / name))
    except OSError as exc:
        raise ParseError(f"cannot write the corpus to {out_dir}: {exc}") from exc
    return {"command": "examples", "written": written}


_COMMANDS = {
    "stability": cmd_stability,
    "chamber": cmd_chamber,
    "strata": cmd_strata,
    "graded": cmd_graded,
    "hatstable": cmd_hatstable,
    "invariants": cmd_invariants,
    "examples": cmd_examples,
}


def _render_text(payload: dict, elapsed: float) -> str:
    lines = [f"# {payload['command']}"]
    for key, value in payload.items():
        if key in ("command", "rows"):
            continue
        lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
    for row in payload.get("rows", []):
        parts = [f"{k}={json.dumps(v)}" for k, v in row.items()]
        lines.append("  " + " ".join(parts))
    lines.append(f"elapsed_s: {elapsed:.3f}")
    return "\n".join(lines) + "\n"


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite `--chi -1/2` (and `--q`) as `--chi=-1/2`.

    argparse reads a value starting with '-' as an option unless it is a
    plain negative number such as -2.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--chi", "--q") and re.match(r"-\d", arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def run(argv: list[str]) -> tuple[int, str]:
    start = time.perf_counter()
    try:
        args = build_parser().parse_args(_attach_signed_values(argv))
        payload = _COMMANDS[args.command](args)
        elapsed = time.perf_counter() - start
        try:
            output = _render_text(payload, elapsed) if args.format == "text" else dump_json(payload) + "\n"
        except ValueError as exc:  # an integer with more digits than the interpreter converts
            raise BoundExceeded(f"cannot print the report: {exc}") from exc
    except ParseError as exc:
        return EXIT_PARSE, f"parse error: {exc}\n"
    except PreconditionError as exc:
        return EXIT_PRECONDITION, f"precondition violated: {exc}\n"
    except BoundExceeded as exc:
        return EXIT_BOUNDS, f"bound exhausted: {exc}\n"
    except StablociError as exc:
        return EXIT_PRECONDITION, f"error: {exc}\n"
    return EXIT_OK, output


def main(argv: list[str] | None = None) -> int:
    code, output = run(sys.argv[1:] if argv is None else argv)
    stream = sys.stdout if code == EXIT_OK else sys.stderr
    stream.write(output)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
