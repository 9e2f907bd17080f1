"""CLI contract: exit codes, deterministic bytes, golden corpus."""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from stabloci.cli import EXIT_BOUNDS, EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, run
from stabloci.corpus import render_corpus

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"


def corpus_path(name: str) -> str:
    return str(CORPUS / name)


def test_stability_rows_match_document_panel():
    code, out = run(["stability", "--action", corpus_path("torus_line.json")])
    assert code == EXIT_OK
    payload = json.loads(out)
    rows = {r["point"]: r["status"] for r in payload["rows"]}
    assert rows["ones"] == "stable"
    assert rows["middle"] == "strictly-semistable"
    assert rows["low"] == "unstable"
    assert rows["high"] == "unstable"


def test_graded_report_on_cubics():
    code, out = run(["graded", "--action", corpus_path("jordan_3.json"), "--chi", "-2"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["conditions"]["cstar"]["verdict"] == "holds"
    assert payload["conditions"]["cstar"]["exact"] is True
    rows = {r["point"]: r["status"] for r in payload["rows"]}
    assert rows["distinct_finite"] == "stable"
    assert rows["triple_free"] == "unstable"
    assert rows["triple_at_infinity"] == "unstable"


def test_invariants_sl2_table():
    code, out = run(["invariants", "--sl2", "4", "--max-degree", "6"])
    assert code == EXIT_OK
    payload = json.loads(out)
    dims = [row["dim"] for row in payload["dimensions"]]
    assert dims == [0, 1, 1, 1, 1, 2]
    assert all(row["dim"] == row["oracle"] for row in payload["dimensions"])


def test_invariants_action_table():
    code, out = run(
        ["invariants", "--action", corpus_path("jordan_3.json"), "--max-degree", "4"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert [row["dim"] for row in payload["dimensions"]] == [1, 2, 3, 5]
    assert [row["new_generators"] for row in payload["dimensions"]] == [1, 1, 1, 1]
    rows = {r["point"]: r["nonvanishing"] for r in payload["rows"]}
    assert rows["generic"] is True
    assert rows["double_at_infinity"] is False


def test_hatstable_trivial_grading():
    code, out = run(
        ["hatstable", "--action", corpus_path("torus_line.json"), "--q", "1/2"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    rows = {r["point"]: r["status"] for r in payload["rows"]}
    assert rows["ones"] == "stable"
    assert rows["low"] == "unstable"


def test_exit_code_parse_error():
    code, out = run(["stability", "--action", "does_not_exist.json"])
    assert code == EXIT_PARSE
    assert "parse error" in out


def test_exit_code_precondition():
    code, out = run(["graded", "--action", corpus_path("torus_line.json")])
    assert code == EXIT_PRECONDITION
    assert "grading" in out


def test_exit_code_bounds():
    code, out = run(
        ["strata", "--action", corpus_path("jordan_3.json"), "--subset-cap", "2"]
    )
    assert code == EXIT_BOUNDS
    assert "cap" in out


def test_strata_subset_cap_defaults_to_the_document_bound(tmp_path):
    doc = json.loads((CORPUS / "torus_rank2.json").read_text())
    doc["n"] = 5
    doc["torus"]["weights"] += [[2, -1], [-1, 2]]
    doc["points"] = [{"name": "ones", "coords": ["1"] * 6}]
    doc["bounds"]["subset_cap"] = 3
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(doc))
    code, out = run(["strata", "--action", str(path)])
    assert code == EXIT_BOUNDS
    assert "cap 3" in out
    code, out = run(["strata", "--action", str(path), "--subset-cap", "6"])
    assert code == EXIT_OK


def test_strata_at_the_documented_subset_cap(tmp_path):
    weights = [[a, b] for a in range(-2, 2) for b in range(-2, 2)]
    doc = {"label": "cap16", "n": 15, "torus": {"rank": 2, "weights": weights}, "bounds": {"subset_cap": 16}}
    path = tmp_path / "cap16.json"
    path.write_text(json.dumps(doc))
    code, out = run(["strata", "--action", str(path), "--chi=1/3,-1/5", "--subset-cap", "16"])
    assert code == EXIT_OK
    payload = json.loads(out)
    supports = [s for index in payload["indices"] for s in index["supports"]]
    assert all(s == sorted(set(s)) for s in supports)
    masks = [sum(1 << i for i in s) for s in supports]
    assert sorted(masks) == list(range(1, 2**16))
    norms = [Fraction(index["norm_sq"]) for index in payload["indices"]]
    assert norms == sorted(norms)
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--sl2", "5", "--max-degree", "-2"],
        ["invariants", "--action", corpus_path("jordan_3.json"), "--max-degree", "-1"],
        ["strata", "--action", corpus_path("torus_rank2.json"), "--subset-cap", "-1"],
        ["hatstable", "--action", corpus_path("jordan_3.json"), "--q", "2", "--m", "-3"],
    ],
    ids=["sl2_max_degree", "action_max_degree", "subset_cap", "hatstable_m"],
)
def test_negative_bound_is_a_parse_error(argv):
    code, out = run(argv)
    assert code == EXIT_PARSE
    assert out.startswith("parse error: ")


def test_json_byte_identical_across_runs():
    argv = ["graded", "--action", corpus_path("jordan_3.json"), "--chi", "-2", "--seed", "5"]
    first = run(argv)
    second = run(argv)
    assert first == second
    argv2 = ["strata", "--action", corpus_path("torus_rank2.json"), "--seed", "5"]
    assert run(argv2) == run(argv2)


def test_json_roundtrips_bit_exactly():
    code, out = run(["strata", "--action", corpus_path("torus_line.json")])
    assert code == EXIT_OK
    payload = json.loads(out)
    again = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert again == out


def test_examples_match_committed_golden_files(tmp_path):
    code, out = run(["examples", "--out", str(tmp_path)])
    assert code == EXIT_OK
    for name, text in render_corpus():
        regenerated = (tmp_path / name).read_text()
        committed = (CORPUS / name).read_text()
        assert regenerated == text == committed, name


def test_text_format_renders():
    code, out = run(
        ["stability", "--action", corpus_path("torus_line.json"), "--format", "text"]
    )
    assert code == EXIT_OK
    assert out.startswith("# stability")
    assert "elapsed_s" in out


def test_inline_points():
    code, out = run(
        [
            "stability",
            "--action",
            corpus_path("torus_line.json"),
            "--points",
            "probe:1,0,1/2",
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert any(r["point"] == "probe" for r in payload["rows"])


@pytest.mark.parametrize(
    "argv",
    [
        ["stability", "--action", corpus_path("torus_line.json"), "--chi", "-1/2"],
        ["stability", "--action", corpus_path("torus_rank2.json"), "--chi", "-1/2,1"],
        ["hatstable", "--action", corpus_path("torus_line.json"), "--q", "-1/2"],
    ],
)
def test_negative_fraction_value_takes_either_spelling(argv):
    code, out = run(argv)
    assert code == EXIT_OK
    assert run(argv[:-2] + [f"{argv[-2]}={argv[-1]}"]) == (code, out)


@pytest.mark.parametrize(
    "text",
    [
        '[{"name": "a"}]',
        "not json",
        '{"name": "a", "coords": ["1", "0", "1"]}',
        '[{"name": "a", "coords": [1, 0, 1]}]',
        "[" * 100000 + "]" * 100000,
    ],
    ids=["no_coords", "not_json", "not_a_list", "numeric_coords", "deeply_nested"],
)
def test_malformed_points_file_is_a_parse_error(tmp_path, text):
    path = tmp_path / "points.json"
    path.write_text(text)
    code, out = run(["stability", "--action", corpus_path("torus_line.json"), "--points", str(path)])
    assert code == EXIT_PARSE
    assert out.startswith("parse error: ")


@pytest.mark.parametrize(
    "kind", ["directory", "not_utf8", "deeply_nested", "name_too_long", "past_the_digit_limit"]
)
def test_unreadable_action_document_is_a_parse_error(tmp_path, kind):
    path = tmp_path / ("a" * 300 if kind == "name_too_long" else "action.json")
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b"\xff\xfe{")
    elif kind == "deeply_nested":
        path.write_text("[" * 100000 + "]" * 100000)
    elif kind == "past_the_digit_limit":
        path.write_text('{"n": ' + "1" * 5000 + "}")
    code, out = run(["stability", "--action", str(path)])
    assert code == EXIT_PARSE
    assert out.startswith("parse error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["chamber", "--action", corpus_path("jordan_3.json")],
        ["graded", "--action", corpus_path("jordan_3.json")],
        ["hatstable", "--action", corpus_path("jordan_3.json"), "--q", "1/2"],
    ],
    ids=["chamber", "graded", "hatstable"],
)
def test_grading_twist_takes_one_chi_entry(argv):
    code, out = run(argv + ["--chi", "-2,5"])
    assert code == EXIT_PARSE
    assert out.startswith("parse error: ") and "got 2" in out
    assert run(argv + ["--chi", "-2"])[0] == EXIT_OK


@pytest.mark.parametrize(
    "argv",
    [
        ["chamber", "--action", corpus_path("torus_line.json")],
        ["graded", "--action", corpus_path("torus_line.json")],
        ["hatstable", "--action", corpus_path("torus_line.json"), "--q", "1/2"],
    ],
    ids=["chamber", "graded", "hatstable"],
)
@pytest.mark.parametrize("chi", ["5", "-7/2"])
def test_grading_twist_needs_a_grading(argv, chi):
    """--chi twists the grading, so a document without one refuses it
    instead of dropping it; without --chi the run is no parse error."""
    code, out = run(argv + ["--chi", chi])
    assert code == EXIT_PARSE
    assert out.startswith("parse error: ") and "--chi" in out
    assert run(argv)[0] in (EXIT_OK, EXIT_PRECONDITION)


def test_torus_twist_takes_one_chi_entry_per_rank():
    doc = corpus_path("torus_rank2.json")
    for command in ("stability", "strata"):
        assert run([command, "--action", doc, "--chi", "1/3,-1"])[0] == EXIT_OK
        code, out = run([command, "--action", doc, "--chi", "1,2,3"])
        assert code == EXIT_PARSE and "3 entries" in out


@pytest.mark.parametrize("command", ["stability", "graded", "hatstable", "invariants", "strata"])
def test_ragged_generator_rows_are_a_parse_error(tmp_path, command):
    raw = json.loads((CORPUS / "jordan_3.json").read_text())
    raw["unipotent"]["generators"][0][1].pop()
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps(raw))
    code, out = run([command, "--action", str(path)])
    assert code == EXIT_PARSE
    assert out.startswith("parse error: ")


@pytest.mark.parametrize("points", [5, "p", {"name": "a", "coords": ["1", "0"]}, True], ids=repr)
def test_points_that_are_not_a_list_are_a_parse_error(tmp_path, points):
    raw = json.loads((CORPUS / "torus_line.json").read_text())
    raw["points"] = points
    path = tmp_path / "points.json"
    path.write_text(json.dumps(raw))
    code, out = run(["stability", "--action", str(path)])
    assert code == EXIT_PARSE
    assert out == "parse error: key 'points' in document must be a list\n"


@pytest.mark.parametrize("absent", ["missing", "null"])
def test_absent_or_null_points_give_an_empty_panel(tmp_path, absent):
    raw = json.loads((CORPUS / "torus_line.json").read_text())
    if absent == "missing":
        del raw["points"]
    else:
        raw["points"] = None
    path = tmp_path / "points.json"
    path.write_text(json.dumps(raw))
    code, out = run(["stability", "--action", str(path)])
    assert code == EXIT_OK
    assert json.loads(out)["rows"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["strata", "--action", corpus_path("torus_line.json"), "--subset-cap", "x"],
        ["bogus"],
        ["stability"],
        ["stability", "--action", corpus_path("torus_line.json"), "--format", "yaml"],
        ["invariants", "--sl2", "3", "--unknown-flag"],
        [],
    ],
    ids=["bad_int", "unknown_command", "missing_action", "bad_choice", "unknown_flag", "no_command"],
)
def test_usage_errors_are_returned_as_parse_errors(argv, capsys):
    code, out = run(argv)
    assert code == EXIT_PARSE
    assert out.startswith("parse error: ")
    assert capsys.readouterr() == ("", "")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["invariants", "--help"])
    assert exc.value.code == 0
    assert "--sl2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "extra",
    [
        ["--action", corpus_path("jordan_3.json")],
        ["--action", corpus_path("jordan_3.json"), "--points", "a:1,0,0,0"],
        ["--points", "a:1,0,0,0"],
        ["--chi", "1"],
    ],
    ids=["action", "action_points", "points", "chi"],
)
def test_sl2_tables_refuse_document_options(extra):
    code, out = run(["invariants", "--sl2", "3", *extra])
    assert code == EXIT_PARSE
    assert out.startswith("parse error: ") and "--sl2" in out
    assert run(["invariants", "--sl2", "3"])[0] == EXIT_OK


@pytest.mark.parametrize("chi", ["--chi=1", "--chi=-1/2", "--chi=0"])
def test_invariant_tables_refuse_a_twist(chi):
    """The invariant ring does not depend on the twist, so --chi is an error
    rather than an option that changes nothing."""
    argv = ["invariants", "--action", corpus_path("jordan_3.json"), "--max-degree", "4"]
    code, out = run([*argv, chi])
    assert code == EXIT_PARSE
    assert out.startswith("parse error: ") and "--chi" in out
    assert run(argv)[0] == EXIT_OK


def test_inline_panel_longer_than_a_file_name():
    """A --points text too long to be a file name is read as inline points."""
    panel = ";".join(f"p{i}:1,{i},1" for i in range(30))
    assert len(panel) > 255
    code, out = run(["stability", "--action", corpus_path("torus_line.json"), "--points", panel])
    assert code == EXIT_OK
    assert len(json.loads(out)["rows"]) == 6 + 30


@pytest.mark.parametrize("under", [False, True], ids=["file", "under_a_file"])
def test_examples_out_over_a_file_is_a_parse_error(tmp_path, under):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code, out = run(["examples", "--out", str(blocker / "corpus" if under else blocker)])
    assert code == EXIT_PARSE
    assert out.startswith("parse error: ")


def test_exponent_twist_is_a_parse_error():
    code, out = run(["stability", "--action", corpus_path("torus_line.json"), "--chi", "1e4300"])
    assert code == EXIT_PARSE
    assert out.startswith("parse error: ")


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "argv",
    [
        ["strata", "--action", corpus_path("torus_line.json"), "--chi", "1/" + "7" * 4300],
        ["hatstable", "--action", corpus_path("jordan_1.json"), "--chi", "0", "--q", "1/" + "7" * 4300],
    ],
    ids=["strata_rational", "hatstable_m"],
)
def test_printed_number_past_the_digit_limit_is_a_bound(argv, fmt):
    """The inputs parse, but a value in the report has more digits than
    the interpreter converts to text."""
    code, out = run(argv + ["--format", fmt])
    assert code == EXIT_BOUNDS
    assert out.startswith("bound exhausted: ")


@pytest.mark.parametrize("argv", [["graded"], ["hatstable", "--q", "1/2"]], ids=["graded", "hatstable"])
def test_point_with_a_large_coordinate_finishes(argv):
    """Rational roots of polynomials with 18-digit coefficients come from
    p-adic lifting, with no search over divisors."""
    start = time.perf_counter()
    code, out = run(argv + ["--action", corpus_path("jordan_1.json"), "--chi", "0", "--points", "big:100000000000000003,1"])
    assert time.perf_counter() - start < 2
    assert code == EXIT_OK
    assert json.loads(out)["rows"][-1]["point"] == "big"


def test_zero_generator_tables_agree_with_and_without_grading(tmp_path):
    """With no generators every monomial is invariant, whether or not the
    document carries a grading."""
    raw = json.loads((CORPUS / "torus_line.json").read_text())
    raw["unipotent"] = {"generators": [], "adjoint_weights": []}
    outs = []
    for grading in (None, {"gm_weights": [-1, 0, 2], "chi": "0"}):
        raw["grading"] = grading
        path = tmp_path / "action.json"
        path.write_text(json.dumps(raw))
        code, out = run(["invariants", "--action", str(path), "--max-degree", "3"])
        assert code == EXIT_OK
        outs.append(out)
    assert outs[0] == outs[1]
    assert [row["dim"] for row in json.loads(outs[0])["dimensions"]] == [3, 6, 10]
