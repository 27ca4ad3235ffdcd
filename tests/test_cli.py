"""CLI surface: dispatch, exit codes, schema-stable JSON, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

import springer_cells
from springer_cells import cli, verify
from springer_cells.cli import run
from springer_cells.errors import CurveNotFound

from helpers import count_cuts


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
        # neither spelling of a matching
        ["word", "--n", "0", "--N", "0"],
        # a target arc written backwards, which no matching holds
        ["limit", "--matching", "(1,4)(2,3)", "--n", "2", "--arcs", "(1,4)", "--target", "(3,2)=1"],
        # a size past an index
        ["enumerate", "--N", "99999999999999999999999", "--n", "0"],
        ["closure", "--matching", "(1,2)", "--n", "1", "--N", "99999999999999999999999"],
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


def test_enumerate_table_text():
    # one row per matching in word order: its word, its arcs and its pivot
    # permutation, "(no arcs)" for the empty matching
    code, out, err = invoke(["enumerate", "--N", "4", "--n", "2"])
    assert (code, err) == (0, "")
    assert out == (
        "6 matchings for Jordan type (2,4)\n"
        "  BBTT  (1,4)(2,3)  perm (3, 4, 1, 2)\n"
        "  BTBT  (1,2)(3,4)  perm (3, 1, 4, 2)\n"
        "  BTTB  (1,2)  perm (3, 1, 2, 4)\n"
        "  TBBT  (3,4)  perm (1, 3, 4, 2)\n"
        "  TBTB  (2,3)  perm (1, 3, 2, 4)\n"
        "  TTBB  (no arcs)  perm (1, 2, 3, 4)\n"
    )


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
    # matching text carries no size: arcs past the word's end disagree with
    # it, and arcs that fit leave the word's length alone
    code, out, err = invoke(["word", "--word", "BT", "--matching", "(1,4)(2,3)"])
    assert (code, out) == (2, "") and err.endswith(": error: --matching and --word disagree\n")
    code, out, _ = invoke(["word", "--word", "BTT", "--matching", "(1,2)", "--format", "json"])
    assert code == 0 and json.loads(out)["N"] == 3


def test_empty_word_is_the_empty_matching():
    # the empty word spells the empty matching of type (0,0), as the empty
    # arc literal does
    code, out, err = invoke(["word", "--word", "", "--format", "json"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    validate(payload, "matching.json")
    assert payload == {"N": 0, "n": 0, "arcs": [], "word": "", "perm": []}
    assert invoke(["word", "--matching", "", "--n", "0", "--N", "0", "--format", "json"]) == (0, out, "")
    code, _, err = invoke(["cell", "--word", "", "--n", "0"])
    assert (code, err) == (0, "")


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


def test_more_than_26_arcs_keep_distinct_letters():
    matching = "".join(f"({2 * i + 1},{2 * i + 2})" for i in range(27))
    base = ["--matching", matching, "--n", "27"]
    for fmt in ("table", "json", "latex"):
        code, out, _ = invoke(["cell", *base, "--format", fmt])
        assert code == 0, fmt
        if fmt == "table":
            letters = [line.split()[1] for line in out.splitlines() if "variable" in line]
        if fmt == "latex":
            entries = [e.strip(" \\") for line in out.splitlines()[1:-1] for e in line.split("&")]
            assert sorted(set(entries) - {"0", "1"}) == sorted(letters)
    assert letters[:3] == ["a", "b", "c"] and len(set(letters)) == 27
    code, out, _ = invoke(["cut", *base, "--arcs", "(1,2)", "--labels"])
    assert code == 0
    assert out.splitlines()[2].endswith(f"(51,52)↦z, (53,54)↦{letters[26]}")


def test_closure_dot_mirrors_four_pieces():
    code, out, _ = invoke(["closure", "--matching", "(1,4)(2,3)", "--n", "2", "--dot", "-"])
    assert code == 0
    assert out.count("->") == 4
    assert out.count("label=") == 8  # 4 nodes + 4 edges
    assert "(1,2)↦a, (3,4)↦a" in out


def test_closure_refuses_two_outputs_on_one_stream(tmp_path):
    """JSON and DOT cannot share stdout, and --format dot with --dot FILE
    would send the graph to the file and the table to stdout: both are
    usage errors that print nothing and write no file.
    """
    base = ["closure", "--matching", "(1,4)(2,3)", "--n", "2"]
    path = tmp_path / "graph.dot"
    for extra in (
        ["--format", "json", "--dot", "-"],
        ["--format", "json", "--dot", "-", "--certify"],
        ["--format", "dot", "--dot", str(path)],
    ):
        code, out, err = invoke(base + extra)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and "error" in err
    assert not path.exists()
    code, out, _ = invoke(base + ["--format", "dot"])
    assert code == 0 and out == invoke(base + ["--dot", "-"])[1] == invoke(base + ["--format", "dot", "--dot", "-"])[1]


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


LIMIT_WITH_TARGET = ["limit", "--matching", "(1,4)(2,3)", "--n", "2", "--arcs", "(1,4)", "--target"]


@pytest.mark.parametrize("exponent", ["-200000000", "-20000000", "-5000"])
def test_exponent_past_the_digit_limit_exits_two_at_once(exponent):
    # Fraction would write 10**|exponent| out in full: minutes of work, or
    # a target too long to print once the curve is certified
    start = time.perf_counter()
    code, out, err = invoke(LIMIT_WITH_TARGET + [f"(2,3)=1e{exponent}"])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert f"'1e{exponent}'" in err and str(sys.get_int_max_str_digits()) in err


@pytest.mark.parametrize("exponent", ["-4000", "4299"])
def test_exponent_within_the_digit_limit_certifies(exponent):
    code, out, _ = invoke(LIMIT_WITH_TARGET + [f"(2,3)=1e{exponent}", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["certified"] is True
    digits = "1" + "0" * abs(int(exponent))
    assert payload["target"]["(2,3)"] == (digits if int(exponent) > 0 else f"1/{digits}")


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
        (
            "closure_nested8_certify_seed0.json",
            ["closure", "--matching", "(1,8)(2,7)(3,6)(4,5)", "--n", "4", "--certify", "--format", "json", "--seed", "0"],
        ),
        ("verify_geometry_max6_seed0.json", ["verify", "--suite", "geometry", "--max-N", "6", "--format", "json", "--seed", "0"]),
        ("verify_all_default_seed0.json", ["verify", "--suite", "all", "--format", "json", "--seed", "0"]),
    ],
)
def test_output_matches_golden_bytes(name, argv):
    code, out, _ = invoke(argv)
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


def test_nested_fourteen_closure_matches_its_digest():
    """The whole nested N = 14 closure, 128 certified pieces, whose frame
    changes reach higher polynomial degrees than the goldens do: its
    182,571 bytes are pinned by their sha256.
    """
    argv = [
        "closure", "--matching", "(1,14)(2,13)(3,12)(4,11)(5,10)(6,9)(7,8)", "--n", "7",
        "--certify", "--format", "json", "--seed", "0",
    ]
    code, out, _ = invoke(argv)
    assert code == 0 and len(out.encode()) == 182_571
    digest = "8e284257ee57e96ed0065d42fb6bfe9821c85150edacadfd2e40ae69394e08f0"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_closure_certify_cuts_each_piece_once(monkeypatch):
    """The decomposition and the synthesis of each certificate read their
    pieces from the memo of labeled_cut: from an empty memo, the 16 pieces
    of the nested N = 8 cell are cut once each, and the bytes are those of
    the golden file.
    """
    cuts = count_cuts(monkeypatch)
    argv = ["closure", "--matching", "(1,8)(2,7)(3,6)(4,5)", "--n", "4", "--certify", "--format", "json", "--seed", "0"]
    code, out, _ = invoke(argv)
    assert code == 0
    own_cuts = [cut_arcs for m, cut_arcs, _ in cuts if m.N == 8]
    assert len(own_cuts) == len(set(own_cuts)) == 16
    assert out.encode() == (GOLDEN / "closure_nested8_certify_seed0.json").read_bytes()


def test_json_determinism():
    argv = ["closure", "--matching", "(1,4)(2,3)", "--n", "2", "--certify", "--format", "json", "--seed", "9"]
    _, first, _ = invoke(argv)
    _, second, _ = invoke(argv)
    assert first == second


def test_cli_import_loads_no_numeric_stack():
    """numpy and scipy load only with the numeric oracle's own module."""
    probe = (
        "import sys, springer_cells.cli\n"
        "print(sorted({'numpy', 'scipy'} & set(sys.modules)))\n"
        "import springer_cells.numeric\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(springer_cells.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    assert done.stdout.splitlines() == ["[]", "True"]
    with pytest.raises(AttributeError):
        springer_cells.no_such_name


def _close_after_two_lines(argv, **env_vars) -> tuple[bytes, int]:
    """Run the CLI and leave after two lines, as ``| head -2`` does; return
    its stderr and exit code.  stdout is buffered, as for any pipe by
    default, unless env_vars say otherwise.
    """
    src = str(Path(springer_cells.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    env.update(env_vars)
    proc = subprocess.Popen(
        [sys.executable, "-m", "springer_cells", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert all(line.endswith(b"\n") for line in lines)
    return err, proc.returncode


@pytest.mark.parametrize(
    "argv, code",
    [
        # the whole table leaves in one write, before the reader closes
        (["fqcount", "--q", "5", "--N", "4", "--n", "2"], 0),
        # more than a pipe holds, so the close always lands mid-write
        (["enumerate", "--N", "12", "--n", "6"], 141),
    ],
)
def test_closed_stdout_ends_without_a_traceback(argv, code):
    assert _close_after_two_lines(argv) == (b"", code)


@pytest.mark.parametrize(
    "argv",
    [
        ["fqcount", "--q", "5", "--N", "4", "--n", "2"],
        ["verify", "--suite", "combinatorics", "--max-N", "3"],
        ["verify", "--suite", "combinatorics", "--max-N", "3", "--format", "json"],
        ["cell", "--matching", "(1,4)(2,3)", "--n", "2", "--latex"],
        ["closure", "--matching", "(1,4)(2,3)", "--n", "2", "--dot", "-"],
    ],
    ids=["fqcount", "verify-table", "verify-json", "cell-latex", "closure-dot"],
)
def test_unbuffered_table_leaves_in_one_write(argv):
    # unbuffered, an output and its newline must still be one write
    assert _close_after_two_lines(argv, PYTHONUNBUFFERED="1") == (b"", 0)
