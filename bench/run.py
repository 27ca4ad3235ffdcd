"""Benchmark of springer-cells: one workload, one process, one thread.

    python3 bench/run.py --workload cells --seed 0 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout holding this
directory.  With ``--trace 0`` the workload runs as many whole rounds of
operations as take ``--seconds`` seconds at the workload's nominal rate, so
that a seed always runs the same operations, and the end-to-end metrics of
BENCHMARK.json are printed.  With ``--trace 1`` a fixed number of rounds
runs twice, untraced and then with a span around every library call, and
the per-layer metrics are printed.  End-to-end times are CPU times of the
one thread, scaled to the speed of a reference machine (see
``speed_probe``).  The last line of standard output is the
result object; the line before it records the environment and the digest
of the operations' outputs.  Spans and records are also written to
``.bench_out/``.
"""

from __future__ import annotations

import os

# one thread everywhere: pin BLAS/OpenMP before numpy loads, and leave the
# verify runner's thread knob unset
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SPRINGER_CELLS_THREADS", None)

import argparse
import gc
import hashlib
import importlib
import json
import platform
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy
import scipy
import scipy.optimize  # noqa: F401  (loaded before timing, as the package needs it)

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "springer_cells"
MODULES = ("matchings", "cells", "exact", "cutting", "closure", "textio", "numeric", "fqoracle", "sampling", "errors")
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5
#: Every time the benchmark reports.  The workload is one CPU-bound thread,
#: so on an idle machine its CPU time is its wall time.  On a shared host,
#: wall time also counts the time the virtual CPU was not running at all
#: (steal), which the kernel keeps out of CPU time.
CLOCK = time.thread_time
#: The reference speed every end-to-end time is scaled to: that of a
#: machine on which ``speed_probe`` takes this many CPU seconds.  On the
#: machine of the baselines in NOTES.md it takes from 0.7 to 1.4 ms.
PROBE_S = 1.0e-3


class OpDeadline(BaseException):
    """Raised by the CPU-time interval timer inside an operation that ran
    too long.

    Derives from BaseException so that library code catching Exception
    cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise OpDeadline()


def speed_probe() -> float:
    """CPU seconds of a fixed kernel of Fraction, int and dict work, the mix
    the library runs on: how fast the machine runs Python right now.

    Even CPU time of the same work swings by a third from moment to moment
    on a shared host, whose other tenants share the core's caches and
    execution units.  Every end-to-end time is scaled by ``PROBE_S`` over
    the probes taken right before and right after it, which turns it into
    the time the same work takes at the reference machine's speed.
    """
    t0 = CLOCK()
    acc, buckets = Fraction(0), {}
    for i in range(1, 150):
        acc += Fraction(i, i + 7) * Fraction(3, i)
        buckets[i % 17] = buckets.get(i % 17, 0) + (i * i) % 7
    return CLOCK() - t0


class Tracer:
    """In-memory spans ``[name, start, end, parent, op]``; off, it only calls."""

    def __init__(self, on: bool):
        self.on = on
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    def call(self, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        name = f"{fn.__module__.removeprefix(PACKAGE + '.')}.{fn.__name__}"
        return self._span(name, fn, args, kwargs)

    def span(self, name: str, fn, *args):
        if not self.on:
            return fn(*args)
        return self._span(name, fn, args, {})

    def _span(self, name, fn, args, kwargs):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = CLOCK()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = CLOCK()
            self._stack.pop()

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: calls, self time (duration minus child spans) and
        total duration.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, tuple[int, float, float]] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            calls, own, total = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, own + (end - start) - inner, total + (end - start))
        return out


def import_library() -> SimpleNamespace:
    """Import springer_cells afresh from ./src, dropping any earlier import."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})
    if Path(lib.cells.__file__).resolve().parent != (ROOT / "src" / PACKAGE).resolve():
        raise RuntimeError(f"imported {lib.cells.__file__}, not the checkout's src/{PACKAGE}")
    return lib


def setup(workload, seed: int, tr: Tracer):
    """Import and generate inputs SETUP_REPEATS times; the last rep is traced.
    Return the library, the rounds and each rep's time at reference speed.
    """
    times = []
    for _ in range(20):  # the probe's own first calls are slow
        speed_probe()
    probe = speed_probe()
    for rep in range(SETUP_REPEATS):
        rep_tr = tr if rep == SETUP_REPEATS - 1 else Tracer(False)
        lib = rounds = None  # every rep starts from the same heap
        gc.collect()
        start = CLOCK()
        lib = import_library()
        rounds = rep_tr.span("bench.setup", workload.prepare, lib, seed, rep_tr)
        elapsed = CLOCK() - start
        before, probe = probe, speed_probe()
        times.append(elapsed * 2 * PROBE_S / (before + probe))
    return lib, rounds, times


def run_rounds(workload, seconds: float) -> int:
    """Rounds that take ``seconds`` at the workload's nominal rate."""
    return max(1, round(seconds * workload.rounds_per_s))


def run_ops(workload, lib, rounds, tr: Tracer, count: int) -> dict:
    """Run ``count`` rounds of operations in order, cycling; record each
    operation's latency at reference speed and its status, and digest the
    outputs of the first ``workload.trace_rounds`` rounds.
    """
    state = workload.new_state()
    latencies, statuses, errors, refusals = [], {"ok": 0, "refused": 0, "wrong": 0}, [], {}
    digest, digested = hashlib.sha256(), 0
    refusal = (lib.errors.SpringerCellsError, OpDeadline)
    if workload.deadline_s:
        signal.signal(signal.SIGPROF, _on_alarm)
    wall, start, cpu = time.perf_counter(), CLOCK(), 0.0
    probe = speed_probe()
    for done in range(count):
        for op in rounds[done % len(rounds)]:
            tr.op = len(latencies)
            if workload.deadline_s:
                signal.setitimer(signal.ITIMER_PROF, workload.deadline_s)
            t0 = CLOCK()
            try:
                # the timer is off before any handler runs, so a deadline that
                # fires as the operation ends is still caught below
                try:
                    status, out = tr.span("bench.op", workload.run_op, lib, op, state, tr)
                finally:
                    if workload.deadline_s:
                        signal.setitimer(signal.ITIMER_PROF, 0)
            except refusal as exc:
                status, out = "refused", f"refused:{type(exc).__name__}".encode()
                refusals[type(exc).__name__] = refusals.get(type(exc).__name__, 0) + 1
            except Exception as exc:  # a crash is a wrong answer; keep going
                status, out = "wrong", f"error:{type(exc).__name__}".encode()
                errors.append(f"op {tr.op}: {type(exc).__name__}: {exc}")
            elapsed = CLOCK() - t0
            before, probe = probe, speed_probe()
            latencies.append(elapsed * 2 * PROBE_S / (before + probe))
            cpu += elapsed
            statuses[status] += 1
            if done < workload.trace_rounds:
                digest.update(out + b"\n")
                digested += 1
    tr.op = None
    return {
        "ops_s": sum(latencies),
        "cpu_s": cpu,
        "run_cpu_s": CLOCK() - start,
        "wall_s": time.perf_counter() - wall,
        "latencies": latencies,
        "statuses": statuses,
        "errors": errors,
        "refusals": refusals,
        "digest": digest.hexdigest(),
        "digested": digested,
        "rounds": count,
        "counts": state["counts"],
    }


def end_to_end(run: dict, setup_times: list[float]) -> dict[str, float]:
    lat_ms = [x * 1e3 for x in run["latencies"]]
    attempted = len(lat_ms)
    return {
        "ops_per_s": run["statuses"]["ok"] / run["ops_s"],
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[-1] if attempted > 1 else lat_ms[0],
        "ok_ratio": run["statuses"]["ok"] / attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(spec: list[dict], workload, tr: Tracer, run: dict, untraced: dict) -> dict[str, float]:
    """Calls and self time per spanned library function, the workload's
    counts, and the tracing overhead at reference speed: traced pass minus
    untraced pass, not counting the probe calls only the traced pass makes.
    """
    layers = tr.totals()
    probe_s = sum(layers.get(name, (0, 0.0, 0.0))[2] for name in workload.probes)
    values = dict(run["counts"])
    values["trace.untraced_s"] = untraced["ops_s"]
    values["trace.traced_s"] = run["ops_s"]
    values["trace.overhead_s"] = run["ops_s"] - probe_s * run["ops_s"] / run["cpu_s"] - untraced["ops_s"]
    for metric in spec:
        name = metric["name"]
        for suffix, index in ((".calls", 0), (".self_s", 1)):
            if name.endswith(suffix):
                values[name] = layers.get(name.removesuffix(suffix), (0, 0.0, 0.0))[index]
        values.setdefault(name, 0)
    return values


def measure(workload, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[dict, dict, list]:
    """Run one workload; return the result object, the run's record and its spans."""
    tr = Tracer(trace)
    lib, rounds, setup_times = setup(workload, seed, tr)
    run_ops(workload, lib, [rounds[0][:1]], Tracer(False), count=1)  # warm-up, not timed
    if trace:
        untraced = run_ops(workload, lib, rounds, Tracer(False), count=workload.trace_rounds)
        run = run_ops(workload, lib, rounds, tr, count=workload.trace_rounds)
        values = per_layer(spec["per_layer"], workload, tr, run, untraced)
        metrics_spec = spec["per_layer"]
        same_digest = untraced["digest"] == run["digest"]
    else:
        run = run_ops(workload, lib, rounds, tr, count=run_rounds(workload, seconds))
        values = end_to_end(run, setup_times)
        metrics_spec = spec["end_to_end"]
        same_digest = True
    attempted = len(run["latencies"])
    result = {
        "correct": run["statuses"]["wrong"] == 0 and same_digest,
        "attempted": attempted,
        "failed": attempted - run["statuses"]["ok"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec},
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "samples": attempted,
        "rounds": run["rounds"],
        "ops_s": run["ops_s"],
        "cpu_s": run["cpu_s"],
        "run_cpu_s": run["run_cpu_s"],
        "wall_s": run["wall_s"],
        "statuses": run["statuses"],
        "refusals": run["refusals"],
        "errors": run["errors"][:20],
        "digest": run["digest"],
        "digest_ops": run["digested"],
        "setup_runs_s": setup_times,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    return result, record, tr.spans


def write_outputs(record: dict, spans: list) -> None:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if spans:
        with open(out_dir / f"{stem}-spans.jsonl", "w") as fh:
            for name, start, end, parent, op in spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} does not hold src/{PACKAGE} and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workload = WORKLOADS[args.workload]()
    result, record, spans = measure(workload, args.seed, args.seconds, bool(args.trace), spec)
    write_outputs(record, spans)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
