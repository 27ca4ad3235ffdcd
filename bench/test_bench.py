"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

Checks that every metric named in BENCHMARK.json is reported with its unit,
that the outputs' digest repeats for a seed, that the correctness gate
counts deliberately corrupted outputs as failures, and that ``run.py``
refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    workload = {
        "cells": lambda: workloads.Cells(max_n=4, draws=2),
        "certify": lambda: workloads.Certify(sizes=(6, 8)),
        "numeric": lambda: workloads.Numeric(draws=1),
        "fq": lambda: workloads.Fq(max_n=3, rounds=2),
    }[name]()
    workload.trace_rounds = 1
    if name == "numeric":
        workload.sizes = (3,)
    return workload


def prepared(name: str):
    """The tiny workload, the library and its operations, one per round."""
    workload = tiny(name)
    lib, rounds, _ = run.setup(workload, 0, run.Tracer(False))
    return workload, lib, [[op] for ops in rounds for op in ops]


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_reported_with_its_unit(name, trace):
    result, record, _ = run.measure(tiny(name), 0, 0.2, trace, SPEC)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in expected
    }
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert record["samples"] == result["attempted"]
    assert record["rounds"] == (run.run_rounds(tiny(name), 0.2) if not trace else 1)


def test_certify_round_has_one_piece_of_every_cell():
    workload = tiny("certify")
    lib, rounds, _ = run.setup(workload, 0, run.Tracer(False))
    cells = []
    for N in workload.sizes:
        jt = lib.matchings.JordanType(N // 2, N)
        cells += [m for m in lib.matchings.enumerate_matchings(jt) if len(m) == N // 2]
    assert len(rounds) == 2 ** len(cells[0])
    for ops in rounds:
        assert sorted(str(op[0].arcs) for op in ops) == sorted(str(m.arcs) for m in cells)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_digest_repeats_for_a_seed(name):
    workload = tiny(name)
    lib, rounds, _ = run.setup(workload, 0, run.Tracer(False))
    first = run.run_ops(workload, lib, rounds, run.Tracer(False), count=1)
    second = run.run_ops(workload, lib, rounds, run.Tracer(True), count=1)
    assert first["digested"] == len(rounds[0])
    assert first["digest"] == second["digest"]


def test_gate_fails_wrong_target_flag():
    workload, lib, ops = prepared("numeric")
    member = next(op for [op] in ops if op[4] == "member")
    outsider = next(op for [op] in ops if op[4] == "non-member" and op[0] == member[0])
    corrupted = (*member[:2], outsider[2], *member[3:])
    result = run.run_ops(workload, lib, [[corrupted]], run.Tracer(False), count=1)
    assert result["statuses"]["wrong"] == 1


def test_gate_fails_curve_for_another_target():
    workload, lib, ops = prepared("certify")
    real = lib.closure.synthesize_limit_curve

    def off_target(m, jt, cut, target):
        return real(m, jt, cut, {a: v + 1 for a, v in target.items()})

    lib.closure.synthesize_limit_curve = off_target
    uncut = [[op] for [op] in ops if len(op[2]) < len(op[0])]
    result = run.run_ops(workload, lib, uncut, run.Tracer(False), count=len(uncut))
    # a shifted target can itself hit CurveNotFound; no curve may pass
    assert result["statuses"]["ok"] == 0 and result["statuses"]["wrong"] > 0


def test_gate_fails_changed_matrix():
    workload, lib, ops = prepared("cells")
    lib.exact.canonical_reduce = lambda rows: rows[::-1]
    result = run.run_ops(workload, lib, ops, run.Tracer(False), count=len(ops))
    assert result["statuses"]["wrong"] == len(ops)


def test_gate_fails_wrong_bucket_sizes():
    workload, lib, ops = prepared("fq")
    real = lib.fqoracle.cross_check_cells

    def lose_a_flag(cfg):
        report = real(cfg)
        sizes = dict(report.bucket_sizes)
        first = min(sizes)
        sizes[first] -= 1
        return lib.fqoracle.FqReport(**{**report.__dict__, "bucket_sizes": sizes})

    lib.fqoracle.cross_check_cells = lose_a_flag
    result = run.run_ops(workload, lib, ops, run.Tracer(False), count=len(ops))
    assert result["statuses"]["wrong"] == len(ops)


def test_refuses_without_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fq", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
