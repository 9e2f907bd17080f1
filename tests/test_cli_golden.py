"""Byte-for-byte replay of recorded CLI runs over the committed corpus
and the larger torus documents kept beside the recordings.

`tests/golden/cli/cases.json` lists each recorded run (argv and exit
code); `<name>.out` holds the exact bytes the CLI printed.  Refactors of
the library must leave every one of them unchanged.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import os
from itertools import product
from pathlib import Path

import pytest

from stabloci.cli import run

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden" / "cli"
CASES = GOLDEN / "cases.json"


def _load_cases() -> list[dict]:
    return json.loads(CASES.read_text())


@pytest.mark.parametrize("case", _load_cases(), ids=lambda c: c["name"])
def test_cli_output_matches_recorded_bytes(case, monkeypatch):
    monkeypatch.chdir(REPO)  # argv names corpus documents relative to the repo
    code, out = run(case["argv"])
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['name']}.out").read_text()


def _adapted_chi(doc: str) -> str | None:
    """The well-adapted character of a graded document, or None."""
    code, out = run(["chamber", "--action", doc])
    if code != 0:
        return None
    window = json.loads(out)["window"]
    return window["well_adapted"] if window else None


def _record_argvs() -> list[tuple[str, list[str]]]:
    argvs = []
    for path in sorted((REPO / "corpus").glob("*.json")):
        doc = f"corpus/{path.name}"
        stem = path.stem
        argvs.append((f"stability__{stem}", ["stability", "--action", doc]))
        argvs.append((f"strata__{stem}", ["strata", "--action", doc]))
        argvs.append((f"graded__{stem}", ["graded", "--action", doc]))
        chi = _adapted_chi(str(path))
        twist = []
        if chi is not None and run(["graded", "--action", doc])[0] != 0:
            twist = [f"--chi={chi}"]
            argvs.append((f"graded_adapted__{stem}", ["graded", "--action", doc, *twist]))
        argvs.append((f"invariants__{stem}", ["invariants", "--action", doc, "--max-degree", "8"]))
        # The hat test sweeps translates of each point at the twist `graded` accepts.
        argvs.append((f"hatstable__{stem}", ["hatstable", "--action", doc, "--q=1/2", *twist]))
        argvs.append((f"chamber__{stem}", ["chamber", "--action", doc]))
    # Twists that put the origin on a vertex, an edge or inside the hull, on
    # rank-2 weights and on a line, and a panel with one point per nonempty
    # coordinate support of the rank-2 action, so lower-rank supports show up.
    rank2, line = "corpus/torus_rank2.json", "corpus/torus_line.json"
    argvs.append(("stability_chi_1_0__torus_rank2", ["stability", "--action", rank2, "--chi=1,0"]))
    argvs.append(("stability_chi_half__torus_rank2", ["stability", "--action", rank2, "--chi=1/2,1/2"]))
    argvs.append(("stability_chi_m1__torus_line", ["stability", "--action", line, "--chi=-1"]))
    argvs.append(("stability_chi_2__torus_line", ["stability", "--action", line, "--chi=2"]))
    panel = ";".join(
        f"s{''.join(map(str, bits))}:{','.join(map(str, bits))}"
        for bits in product((0, 1), repeat=4)
        if any(bits)
    )
    argvs.append(("stability_supports__torus_rank2", ["stability", "--action", rank2, "--points", panel]))
    # Ten weights at rank 2 and 3, one of them repeated, with panels that
    # put the repeated weight in and out of the support.
    argvs.append(
        (
            "strata_ten__torus_rank2",
            [
                "strata",
                "--action",
                "tests/golden/cli/torus_rank2_ten.json",
                "--chi=1/2,0",
                "--points",
                "rep:1,0,0,0,0,0,0,0,1,0;twin:0,0,0,0,0,0,0,0,1,1;tri:0,1,1,1,0,0,0,0,0,0;"
                "mixed:1/2,0,-3,0,0,7,0,0,0,0;last:0,0,0,0,0,0,0,0,0,2",
            ],
        )
    )
    argvs.append(
        (
            "strata_ten__torus_rank3",
            [
                "strata",
                "--action",
                "tests/golden/cli/torus_rank3_ten.json",
                "--points",
                "rep:0,1,0,0,0,0,0,0,1,0;tet:1,1,1,1,0,0,0,0,0,0;plane:1,1,0,0,1,0,0,0,0,0;"
                "mixed:0,0,2,0,-1/3,5,0,0,0,1;lone:0,0,0,0,0,0,0,1,0,0",
            ],
        )
    )
    # The same ten rank-3 weights under a twist with denominator 6 in every
    # coordinate, so the scaled weights, closest points and norms all carry
    # the common denominator.
    argvs.append(
        (
            "strata_mixed__torus_rank3",
            [
                "strata",
                "--action",
                "tests/golden/cli/torus_rank3_ten.json",
                "--chi=1/2,-2/3,1/3",
                "--points",
                "rep:0,1,0,0,0,0,0,0,1,0;tet:1,1,1,1,0,0,0,0,0,0;plane:1,1,0,0,1,0,0,0,0,0;"
                "mixed:0,0,2,0,-1/3,5,0,0,0,1;all:1,1,1,1,1,1,1,1,1,1",
            ],
        )
    )
    # Ten rank-4 weights, one repeated: the untwisted panel reaches every
    # position, the midpoint twist moves the origin onto a facet of some
    # supports, and the twist equal to the repeated weight puts the zero
    # point twice into every support that holds it.
    rank4 = "tests/golden/cli/torus_rank4_ten.json"
    panel4 = (
        "simplex:1,1,1,1,1,0,0,0,0,0;flat:0,0,2,-1,1/2,0,0,0,3,0;corner:1,1,1,1,0,0,0,0,0,0;"
        "edge:1,0,0,-1,0,0,0,0,0,0;wide:1,1/3,1,0,0,0,0,0,-2,1;rep:0,1,0,0,0,0,1,0,0,0;"
        "trio:0,5,0,0,1,0,-1,0,1,0;spread:1,0,1,0,1,1,0,1,0,1"
    )
    for name, twist in (("zero", []), ("mid", ["--chi=1/2,0,0,1/2"]), ("rep", ["--chi=0,1,0,0"])):
        argv = ["stability", "--action", rank4, *twist, "--points", panel4]
        argvs.append((f"stability_{name}__torus_rank4", argv))
    for n in (3, 4, 5, 6, 7):
        argvs.append((f"invariants_sl2__{n}", ["invariants", "--sl2", str(n), "--max-degree", "6"]))
    # Sizes where the derivation and product matrices reach hundreds of columns.
    argvs.append(("invariants_sl2__8_d8", ["invariants", "--sl2", "8", "--max-degree", "8"]))
    argvs.append(("invariants_sl2__6_d10", ["invariants", "--sl2", "6", "--max-degree", "10"]))
    argvs.append(("invariants_sl2__8_d10", ["invariants", "--sl2", "8", "--max-degree", "10"]))
    argvs.append(("invariants_sl2__10_d8", ["invariants", "--sl2", "10", "--max-degree", "8"]))
    argvs.append(
        ("invariants_d10__jordan_3", ["invariants", "--action", "corpus/jordan_3.json", "--max-degree", "10"])
    )
    # A graded generator whose entries have different denominators (1/2, 2/3,
    # -3/5, 7/4), so the derivation rows start out rational.
    argvs.append(
        (
            "invariants__rational_jordan",
            ["invariants", "--action", "tests/golden/cli/rational_jordan.json", "--max-degree", "8"],
        )
    )
    # The same generator at its well-adapted twist -3, so the translate
    # series and the stabiliser rows run over those denominators.
    rational = "tests/golden/cli/rational_jordan.json"
    argvs.append(("graded__rational_jordan", ["graded", "--action", rational, "--chi=-3"]))
    argvs.append(("hatstable__rational_jordan", ["hatstable", "--action", rational, "--chi=-3", "--q=1/2"]))
    # The torus_line weights under a trivial grading (every circle weight 1):
    # the chamber is one point, outside 0 at chi 0 and at 0 for chi 1, and
    # the graded and hat tests fall back to the torus verdicts.
    flat = "tests/golden/cli/flat_line.json"
    argvs.append(("chamber__flat_line", ["chamber", "--action", flat]))
    argvs.append(("chamber_chi_1__flat_line", ["chamber", "--action", flat, "--chi=1"]))
    argvs.append(("graded_chi_1__flat_line", ["graded", "--action", flat, "--chi=1"]))
    argvs.append(("hatstable__flat_line", ["hatstable", "--action", flat, "--q=1/2"]))
    # Two generators on a two-coordinate minimal locus (weights 0, 0 below
    # 1, 1), so both condition checks decide by the minors of the locus
    # matrix: a common zero at [0:1], a full-dimensional generic stabiliser
    # that stays constant, and an irreducible quadratic gcd.
    for stem in ("minors_split", "minors_shared", "minors_mixed"):
        doc = f"tests/golden/cli/{stem}.json"
        argvs.append((f"graded__{stem}", ["graded", "--action", doc, "--chi=1/2"]))
    # The torus_rank2 weights under a label and point names that the JSON
    # writer must escape: non-ASCII, a surrogate pair, quote, backslash,
    # slash and control characters.
    escapes = "tests/golden/cli/escapes.json"
    argvs.append(("stability__escapes", ["stability", "--action", escapes]))
    argvs.append(("strata__escapes", ["strata", "--action", escapes]))
    # Points with mixed denominators and signs, so the nonvanishing test
    # evaluates at rational coordinates.  Up to degree 8 the jet-group
    # invariants are the powers of x0, so every witness there has degree 1
    # and a point with x0 = 0 makes every invariant vanish; the binary-cubic
    # panel adds a point whose first nonvanishing invariant has degree 2.
    argvs.append(
        (
            "invariants_points__jet_3",
            [
                "invariants",
                "--action",
                "corpus/jet_3.json",
                "--max-degree",
                "8",
                "--points",
                "mixed:1/2,-3/4,5/6;neg:-2/3,0,7/5;tiny:3/10,-1/6,-4/9;vanish:0,-5/3,2/7;top:0,0,-9/4",
            ],
        )
    )
    argvs.append(
        (
            "invariants_points__jordan_3",
            [
                "invariants",
                "--action",
                "corpus/jordan_3.json",
                "--max-degree",
                "8",
                "--points",
                "wit2:2/3,-1/2,5/4,0;vanish:-3/7,5/2,0,0;mixed:1/2,-2/3,3/5,-7/4",
            ],
        )
    )
    return argvs


def record() -> None:
    os.chdir(REPO)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    cases = []
    for name, argv in _record_argvs():
        code, out = run(argv)
        (GOLDEN / f"{name}.out").write_text(out)
        cases.append({"name": name, "argv": argv, "exit": code})
    CASES.write_text(json.dumps(cases, indent=1) + "\n")


if __name__ == "__main__":
    record()
