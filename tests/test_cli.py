"""CLI surface: dispatch, exit codes, schema-stable JSON, determinism."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from springer_cells import cli, verify
from springer_cells.cli import run
from springer_cells.errors import CurveNotFound


def _schema_registry():
    registry = Registry()
    root = resources.files("springer_cells") / "schemas"
    schemas = {}
    for entry in root.iterdir():
        if entry.name.endswith(".json"):
            schema = json.loads(entry.read_text())
            schemas[entry.name] = schema
            registry = registry.with_resource(
                entry.name, Resource.from_contents(schema)
            )
            registry = registry.with_resource(
                schema["$id"], Resource.from_contents(schema)
            )
    return registry, schemas


REGISTRY, SCHEMAS = _schema_registry()


def validate(payload, schema_name):
    validator = Draft202012Validator(SCHEMAS[schema_name], registry=REGISTRY)
    validator.validate(payload)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_usage_error_exits_two():
    code, _, _ = invoke(["enumerate", "--N", "4"])
    assert code == 2
    code, _, _ = invoke(["bogus"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["cell", "--matching", "(1,3)", "--n", "1"],
        ["enumerate", "--N", "3", "--n", "5"],
        ["word", "--word", "BXT"],
        ["verify", "--suite", "nope"],
        ["limit", "--matching", "(1,4)(2,3)", "--n", "2", "--arcs", "(7,8)"],
        ["cut", "--matching", "(1,4)(2,3)", "--n", "2", "--arcs", "foo"],
        ["limit", "--matching", "(1,4)(2,3)", "--n", "2", "--arcs", "(1,4) junk"],
        ["limit", "--matching", "(1,4)(2,3)", "--n", "2", "--arcs", "(1,4)", "--target", "(2,3)=1/0"],
        ["verify", "--max-N", "0"],
        # matchings outside the paper's domain: crossing or not standard
        ["closure", "--matching", "(1,3)(2,4)", "--n", "2"],
        ["limit", "--matching", "(1,3)(2,4)", "--n", "2", "--arcs", "(1,3)"],
        ["word", "--matching", "(1,4)", "--n", "2"],
        ["cut", "--matching", "(1,4)", "--n", "2", "--arcs", "(1,4)"],
        # a target for a cut arc, and a target given twice
        ["limit", "--matching", "(1,4)(2,3)", "--n", "2", "--arcs", "(2,3)", "--target", "(2,3)=5;(1,4)=1;(1,4)=2"],
        ["limit", "--matching", "(1,4)(2,3)", "--n", "2", "--arcs", "(1,4)", "--target", "(2,3)=1;(2,3)=2"],
        ["closure", "--matching", "(1,2)", "--n", "1", "--dot", "/nonexistent/x.dot"],
        # more arcs than min(n, N - n)
        ["cell", "--matching", "(1,4)(2,3)", "--n", "1"],
        ["cut", "--matching", "(1,2)(3,4)", "--n", "1", "--arcs", "(1,2)"],
    ],
)
def test_bad_input_exits_two_with_one_line(argv):
    code, out, err = invoke(argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "error" in err


def test_library_error_exits_one():
    # the brute-force F_q enumeration refuses a type this large
    code, _, err = invoke(["fqcount", "--q", "2", "--N", "8", "--n", "4"])
    assert code == 1
    assert "error" in err


def test_enumerate_json_schema():
    code, out, _ = invoke(["enumerate", "--N", "4", "--n", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    validate(payload, "enumerate.json")
    assert payload["count"] == 6
    words = [m["word"] for m in payload["matchings"]]
    assert words == sorted(words)


def test_word_conversion_and_agreement():
    code, out, _ = invoke(["word", "--word", "BBTBBTTT", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    validate(payload, "matching.json")
    assert payload["arcs"] == [[1, 8], [2, 3], [4, 7], [5, 6]]
    assert payload["perm"] == [5, 6, 1, 7, 8, 2, 3, 4]

    code, _, _ = invoke(
        ["word", "--word", "BBTT", "--matching", "(1,4)(2,3)", "--format", "json"]
    )
    assert code == 0
    code, _, _ = invoke(
        ["word", "--word", "BBTT", "--matching", "(1,2)(3,4)", "--format", "json"]
    )
    assert code == 2


def test_cell_latex_golden():
    code, out, _ = invoke(
        ["cell", "--matching", "(1,8)(2,3)(4,7)(5,6)", "--n", "4", "--latex"]
    )
    assert code == 0
    assert out.splitlines()[1] == "a & b & 1 & 0 & 0 & 0 & 0 & 0 \\\\"
    assert out.splitlines()[2] == "0 & a & 0 & c & d & 1 & 0 & 0 \\\\"


def test_cell_json_schema():
    code, out, _ = invoke(
        ["cell", "--matching", "(1,4)(2,3)", "--n", "2", "--format", "json"]
    )
    assert code == 0
    validate(json.loads(out), "cell.json")


def test_cut_command():
    code, out, _ = invoke(
        [
            "cut",
            "--matching",
            "(1,8)(2,3)(4,7)(5,6)",
            "--n",
            "4",
            "--arcs",
            "(4,7),(5,6)",
            "--format",
            "json",
        ]
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, "cut.json")
    assert payload["result"] == "(1,4)(2,3)(7,8)"

    code, out, _ = invoke(
        [
            "cut",
            "--matching",
            "(1,4)(2,3)",
            "--n",
            "2",
            "--arcs",
            "(2,3)",
            "--labels",
            "--format",
            "json",
        ]
    )
    payload = json.loads(out)
    validate(payload, "cut.json")
    assert payload["labels"] == {"(1,2)": "(1,4)", "(3,4)": "(1,4)"}


def test_closure_dot_mirrors_four_pieces():
    code, out, _ = invoke(["closure", "--matching", "(1,4)(2,3)", "--n", "2", "--dot", "-"])
    assert code == 0
    assert out.count("->") == 4
    assert out.count("label=") == 8  # 4 nodes + 4 edges
    assert "(1,2)↦a, (3,4)↦a" in out


def test_closure_json_certify_schema():
    code, out, _ = invoke(
        ["closure", "--matching", "(1,4)(2,3)", "--n", "2", "--certify", "--format", "json", "--seed", "5"]
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, "closure.json")
    assert all(c["certified"] for c in payload["certificates"])
    assert sorted(payload["swap_candidates"]) == ["BBTT", "BTBT", "TBTB", "TTBB"]


def test_limit_command():
    code, out, _ = invoke(
        [
            "limit",
            "--matching",
            "(1,4)(2,3)",
            "--n",
            "2",
            "--arcs",
            "(1,4)",
            "--target",
            "(2,3)=7/3",
            "--format",
            "json",
        ]
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, "limit.json")
    assert payload["certified"] is True
    assert payload["curve"]["(1,4)"] == ["0", "1"]
    assert payload["curve"]["(2,3)"] == ["0", "0", "-3/7"]


def test_limit_failure_report_follows_schema(monkeypatch):
    def refuse(*args):
        raise CurveNotFound("no curve")

    monkeypatch.setattr(cli, "synthesize_limit_curve", refuse)
    argv = ["limit", "--matching", "(1,4)(2,3)", "--n", "2", "--arcs", "(1,4)", "--target", "(2,3)=7/3"]
    code, out, _ = invoke(argv + ["--format", "json"])
    assert code == 1
    payload = json.loads(out)
    validate(payload, "limit.json")
    assert payload["certified"] is False
    assert payload["curve"] is None
    assert payload["error"] == "no curve"
    assert payload["cut"] == [[1, 4]]
    assert payload["target"] == {"(2,3)": "7/3"}
    code, out, _ = invoke(argv + ["--format", "table"])
    assert code == 1
    assert out == "certified: False\n  error: no curve\n"


def test_fqcount_json_schema():
    code, out, _ = invoke(["fqcount", "--q", "2", "--N", "4", "--n", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    validate(payload, "fqcount.json")
    assert payload["total"] == 15
    assert payload["full_flag_count"] == 315

    # the empty type has one flag, the empty one
    code, out, _ = invoke(["fqcount", "--q", "2", "--N", "0", "--n", "0", "--json"])
    assert code == 0
    payload = json.loads(out)
    validate(payload, "fqcount.json")
    assert payload["total"] == 1
    assert payload["full_flag_count"] == 1


def test_verify_command_json():
    code, out, _ = invoke(
        ["verify", "--suite", "combinatorics", "--max-N", "5", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, "verify.json")
    assert payload["passed"] is True


def test_verify_reports_raising_check(monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "cut", broken)
    code, out, _ = invoke(["verify", "--suite", "cutting", "--max-N", "4", "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    validate(payload, "verify.json")
    rows = {row["check"]: row for row in payload["results"]}
    assert not rows["cutting.unnesting"]["passed"]
    assert "RuntimeError: boom" in rows["cutting.unnesting"]["detail"]
    assert all(row["passed"] for check, row in rows.items() if check != "cutting.unnesting")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("verify_all_max5_seed0.json", ["verify", "--suite", "all", "--max-N", "5", "--format", "json", "--seed", "0"]),
        (
            "closure_certify_seed0.json",
            ["closure", "--matching", "(1,8)(2,3)(4,7)(5,6)", "--n", "4", "--certify", "--format", "json", "--seed", "0"],
        ),
        ("fqcount_q3_N5_n2.json", ["fqcount", "--q", "3", "--N", "5", "--n", "2", "--json"]),
        ("fqcount_q2_N7_n3.json", ["fqcount", "--q", "2", "--N", "7", "--n", "3", "--json"]),
        (
            "closure_nested10_certify_seed0.json",
            ["closure", "--matching", "(1,10)(2,9)(3,8)(4,7)(5,6)", "--n", "5", "--certify", "--format", "json", "--seed", "0"],
        ),
        (
            "limit_coincident_target.json",
            ["limit", "--matching", "(1,6)(2,5)(3,4)", "--n", "3", "--arcs", "(2,5)", "--target", "(1,6)=1;(3,4)=1", "--format", "json"],
        ),
    ],
)
def test_output_matches_golden_bytes(name, argv):
    code, out, _ = invoke(argv)
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


def test_json_determinism():
    argv = ["closure", "--matching", "(1,4)(2,3)", "--n", "2", "--certify", "--format", "json", "--seed", "9"]
    _, first, _ = invoke(argv)
    _, second, _ = invoke(argv)
    assert first == second
