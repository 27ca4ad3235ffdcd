"""The benchmark workloads: cells, certify and fq, plus numeric.

Each workload builds its seeded inputs in ``prepare`` (timed as set-up) as a
list of rounds, and runs one operation per call to ``run_op``, which checks
the operation's output and returns ``(status, output_bytes)``.  A round
holds every input structure of the workload once (every matching, every
piece, every configuration) at fresh seeded values; runs stop only at the
end of a round, so each run weighs the structures alike and its figures do
not hinge on which ones a seed happened to put first.  Status is ``"ok"``,
``"refused"`` (the library declined to answer, e.g. an inconclusive numeric
verdict) or ``"wrong"`` (an output that fails its check).  Library calls go
through ``tr.call`` so that the traced run can put a span around each one.

``lib`` is a namespace holding the freshly imported ``springer_cells``
modules; every object an operation touches comes from the same import.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import numpy as np


class Workload:
    name: str
    #: rounds digested in every run, and run twice by the traced run
    trace_rounds: int
    #: rounds per second of a run at reference speed (see run.speed_probe);
    #: a run of ``--seconds s`` does ``s * rounds_per_s`` rounds, so that a
    #: seed always runs the same operations
    rounds_per_s: float = 1.0
    #: CPU seconds after which an operation is stopped and counted as failed
    deadline_s: float | None = None
    #: layers called once per operation in the traced run only
    probes: tuple[str, ...] = ()

    def new_state(self) -> dict:
        """Per-run state; ``counts`` become per-layer metrics."""
        return {"counts": {}}


def _bump(state: dict, key: str, value: int = 1) -> None:
    state["counts"][key] = state["counts"].get(key, 0) + value


def _raise_max(state: dict, key: str, value: int) -> None:
    state["counts"][key] = max(state["counts"].get(key, value), value)


class Cells(Workload):
    """Every standard noncrossing matching of every proper Jordan type up to
    N = 8 (the geometry suite's default cap), each at several seeded
    parameter draws.  One operation checks one matrix through the exact span
    kernel; closure and numeric code do no work here.
    """

    name = "cells"
    trace_rounds = 3
    rounds_per_s = 0.5

    def __init__(self, max_n: int = 8, draws: int = 12):
        self.max_n = max_n
        self.draws = draws

    def prepare(self, lib, seed: int, tr) -> list[list]:
        rng = random.Random(seed)
        structures = []
        for N in range(2, self.max_n + 1):
            for n in range(1, N):
                jt = lib.matchings.JordanType(n, N)
                for m in tr.call(lib.matchings.enumerate_matchings, jt):
                    word = lib.matchings.bt_word(m, jt)
                    spans = {}
                    for i in lib.closure.valid_split_indices(m) + [N]:
                        t = word[:i].count("T")
                        spans[i] = tuple(range(1, t + 1)) + tuple(range(n + 1, n + i - t + 1))
                    structures.append((m, jt, spans))
        rounds = []
        for _ in range(self.draws):
            ops = [(m, jt, lib.sampling.random_params(m.arcs, rng), spans) for m, jt, spans in structures]
            rng.shuffle(ops)
            rounds.append(ops)
        return rounds

    def run_op(self, lib, op, state, tr):
        m, jt, params, spans = op
        cells = lib.cells
        ct = tr.call(cells.build_template, m, jt)
        g = tr.call(cells.instantiate, ct, params)
        good = tr.call(cells.verify_canonical, g)
        good &= tr.call(lib.exact.canonical_reduce, g.rows) == g.rows
        good &= tr.call(cells.verify_springer, g, jt)
        got = {i: tr.call(cells.prefix_span_basis, g, i) for i in spans}
        good &= got == spans
        out = json.dumps([lib.textio.matrix_json(g), sorted(spans)]).encode()
        return ("ok" if good else "wrong"), out


class Certify(Workload):
    """The closures of every perfect-matching cell at N = 10 and 12, by the
    ``closure --certify`` path: one decomposition per cell, then per piece a
    limit curve, its exact check and its JSON certificate.  Targets are drawn
    per cell exactly as ``closure --certify`` draws them.
    """

    name = "certify"
    #: A round is one seeded piece of every cell: a piece costs mostly what
    #: its cell costs (the nested N = 12 cell about 0.7 s, most others under
    #: 0.15 s), so a run that sampled cells would time a different mix for
    #: every seed.
    trace_rounds = 1
    rounds_per_s = 0.055
    #: The monomial fallback behind CurveNotFound can run for minutes at
    #: N = 12; an operation still running after this much CPU time is
    #: stopped and counted as failed, its time kept in the run.  The slowest
    #: piece that certifies takes about 1.4 s.
    deadline_s = 3.0

    def __init__(self, sizes=(10, 12)):
        self.sizes = sizes

    def prepare(self, lib, seed: int, tr) -> list[list]:
        rng = random.Random(seed)
        per_cell = []
        for N in self.sizes:
            jt = lib.matchings.JordanType(N // 2, N)
            for m in tr.call(lib.matchings.enumerate_matchings, jt):
                if len(m) != N // 2:
                    continue
                cell_rng = random.Random(rng.randrange(2**31))
                pieces = []
                for r in range(len(m) + 1):
                    for combo in itertools.combinations(m.arcs, r):
                        uncut = [a for a in m.arcs if a not in combo]
                        target = lib.sampling.random_params(uncut, cell_rng)
                        pieces.append((m, jt, frozenset(combo), target))
                rng.shuffle(pieces)
                per_cell.append(pieces)
        rounds = [[pieces[j] for pieces in per_cell] for j in range(min(map(len, per_cell)))]
        for ops in rounds:
            rng.shuffle(ops)
        return rounds

    def run_op(self, lib, op, state, tr):
        m, jt, cut, target = op
        closure = lib.closure
        decs = state.setdefault("decompositions", {})
        if m not in decs:
            decs[m] = tr.call(closure.closure_decomposition, m, jt)
        dec = decs[m]
        curve = tr.call(closure.synthesize_limit_curve, m, jt, cut, target)
        certified = tr.call(closure.verify_limit_curve, m, jt, curve, dec.pieces[cut], target)
        cert = {
            "matching": lib.textio.format_matching(m),
            "cut": [[a.init, a.term] for a in sorted(cut)],
            "target": {repr(a): str(v) for a, v in sorted(target.items())},
            "certified": certified,
            "curve": {repr(a): lib.textio.poly_json(p) for a, p in sorted(curve.items())},
        }
        text = tr.call(lib.textio.dumps, cert)
        decoded = json.loads(text)["curve"]
        good = (
            certified is True
            and len(dec.pieces) == 2 ** len(m)
            and all([Fraction(c) for c in decoded[repr(a)]] == list(p.coeffs) for a, p in curve.items())
        )
        _raise_max(state, "closure.curve_degree_max", max(p.degree for p in curve.values()))
        return ("ok" if good else "wrong"), text.encode()


class Numeric(Workload):
    """At N = 3 and 4: every piece of every cell as a closure point (member,
    started from evaluations of its certified curve), and for every cell a
    seeded point of each cell outside its swap candidates (non-member).
    Target values and starts are seeded.  One ``numeric_infimum`` call per
    operation.

    Not in BENCHMARK.json: its latencies form tight clusters by structure,
    and which cluster the 90th percentile lands in depends on the seed, so
    it does not hold steady from seed to seed.  It stays runnable for
    per-layer work on the numeric oracle.
    """

    name = "numeric"
    trace_rounds = 1
    rounds_per_s = 0.15
    probes = ("numeric.flag_distance",)
    sizes = (3, 4)
    verdict_counts = {"member-evidence": "numeric.member", "non-member-evidence": "numeric.non_member"}

    def __init__(self, draws: int = 6):
        self.draws = draws

    def _member(self, lib, rng, m, jt, combo, tr):
        target = lib.sampling.random_params([a for a in m.arcs if a not in combo], rng)
        try:
            curve = tr.call(lib.closure.synthesize_limit_curve, m, jt, combo, target)
            seeds = lib.numeric.curve_seed_points(curve, m.arcs)
        except lib.errors.CurveNotFound:
            seeds = None  # the op still runs and must find the point unaided
        return lib.cutting.piece_matrix(lib.cutting.labeled_cut(m, combo, jt), target), seeds

    def _non_members(self, lib, rng, m, jt, all_m):
        candidates = lib.closure.swap_candidates(m, jt)
        return [
            lib.cells.cell_matrix(o, jt, lib.sampling.random_params(o.arcs, rng, nonzero=False))
            for o in all_m
            if lib.matchings.bt_word(o, jt) not in candidates
        ]

    def _op(self, lib, rng, m, jt, flag, seeds, kind):
        ones = lib.cells.cell_matrix(m, jt, {a: 1 for a in m.arcs})
        probe = tuple(np.array([[float(x) for x in row] for row in g.rows]) for g in (flag, ones))
        return (m, jt, flag, seeds, kind, rng.randrange(2**31), probe)

    def prepare(self, lib, seed: int, tr) -> list[list]:
        rng = random.Random(seed)
        structures = []
        for N in self.sizes:
            for n in range(1, N):
                jt = lib.matchings.JordanType(n, N)
                all_m = tr.call(lib.matchings.enumerate_matchings, jt)
                structures += [(m, jt, all_m) for m in all_m if m.arcs]
        rounds = []
        for _ in range(self.draws):
            ops = []
            for m, jt, all_m in structures:
                for r in range(1, len(m) + 1):
                    for combo in itertools.combinations(m.arcs, r):
                        flag, seeds = self._member(lib, rng, m, jt, combo, tr)
                        ops.append(self._op(lib, rng, m, jt, flag, seeds, "member"))
                for flag in self._non_members(lib, rng, m, jt, all_m):
                    ops.append(self._op(lib, rng, m, jt, flag, None, "non-member"))
            rng.shuffle(ops)
            rounds.append(ops)
        return rounds

    def run_op(self, lib, op, state, tr):
        m, jt, flag, seeds, kind, op_seed, probe = op
        numeric = lib.numeric
        value = tr.call(
            numeric.numeric_infimum, m, jt, flag, budget=8, rng=np.random.default_rng(op_seed), seeds=seeds
        )
        verdict = numeric.evidence(value)
        _bump(state, self.verdict_counts.get(verdict, "numeric.inconclusive"))
        if tr.on:
            tr.call(numeric.flag_distance, *probe)
        if verdict == "inconclusive":
            status = "refused"
        else:
            status = "ok" if verdict == f"{kind}-evidence" else "wrong"
        return status, f"{kind}:{verdict}".encode()


class Fq(Workload):
    """Every proper Jordan type with N <= 6 over F_2 and F_3, plus F_2 at
    N = 7, each cross-checked by brute-force enumeration over F_q.
    """

    name = "fq"
    trace_rounds = 2
    rounds_per_s = 0.75
    probes = ("fqoracle.enumerate_springer_flags",)

    def __init__(self, max_n: int = 6, rounds: int = 60):
        self.max_n = max_n
        self.rounds = rounds

    def prepare(self, lib, seed: int, tr) -> list[list]:
        rng = random.Random(seed)
        JT = lib.matchings.JordanType
        configs = [(q, JT(n, N)) for q in (2, 3) for N in range(2, self.max_n + 1) for n in range(1, N)]
        configs += [(2, JT(n, self.max_n + 1)) for n in range(1, self.max_n + 1)]
        ops = []
        for q, jt in configs:
            sizes = sorted(q ** len(m) for m in tr.call(lib.matchings.enumerate_matchings, jt))
            ops.append((lib.fqoracle.FqConfig(q, jt), sizes))
        return [rng.sample(ops, len(ops)) for _ in range(self.rounds)]

    def run_op(self, lib, op, state, tr):
        cfg, sizes = op
        report = tr.call(lib.fqoracle.cross_check_cells, cfg)
        if tr.on:
            buckets = tr.call(lib.fqoracle.enumerate_springer_flags, cfg)
            _bump(state, "fqoracle.flags", sum(len(b) for b in buckets.values()))
        good = report.all_pass and sorted(report.bucket_sizes.values()) == sizes
        out = json.dumps([cfg.q, cfg.jt.n, cfg.jt.N, sorted(map(list, report.bucket_sizes.items()))]).encode()
        return ("ok" if good else "wrong"), out


WORKLOADS = {w.name: w for w in (Cells, Certify, Numeric, Fq)}
