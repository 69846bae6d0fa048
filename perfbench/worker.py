"""One workload in one fresh interpreter.

Started by run.py.  Imports the program from the checkout's ``src``, makes
the inputs from the seed, warms up one-time costs, then reports the clock
reading at which set-up ended.  Unless asked to stop there, it runs the
workload's fixed list of operations in a closed loop (one client, the next
operation starts when the previous one ends) until the time budget is spent.
A ``speed.SpeedProbe`` runs from the start of ``main``, and every latency
and the set-up time are given at the host's usual speed.  With ``--trace 1``
two more passes run, without the probe, under the span tracer: one for self
times, one for Fraction counts.  The last line of its standard output is one
JSON object for run.py.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent

# within a pass an operation is issued until it has run REPEATS times or for
# REPEAT_S seconds; its latency is the median of all its runs
REPEATS = 9
REPEAT_S = 0.5


def clock() -> float:
    """System-wide monotonic clock, comparable with run.py's readings."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def warm_blas(np) -> None:
    """OpenBLAS start-up: the first threaded products in a process can take
    one scheduler tick each (about 1 s in all), so run them until products
    are fast; a user pays this once per process."""
    a = np.eye(128)
    fast = 0
    for _ in range(400):
        t = clock()
        a @ a
        fast = fast + 1 if clock() - t < 0.002 else 0
        if fast == 16:
            return


def blas_stamp(np) -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    stamp = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        stamp["threads"] = get()
    return stamp


def run_pass(ops, probe=None, repeats: int = 1) -> tuple[list[list[float]], list[float], list[tuple]]:
    """One pass over the operations in their order, then further rounds that
    issue again, in the same order, each operation that has run fewer than
    ``repeats`` times and for less than REPEAT_S seconds.  Spreading the
    repeats over the pass lets them sample more than one moment of the host.
    Every run is checked.  Returns each operation's latencies (less the
    probe's own time, and at the host's usual speed when a probe runs), each
    operation's mean seconds per run less the probe's time, and one mismatch
    per operation that got one."""
    latencies = [[] for _ in ops]
    spent = [0.0] * len(ops)
    problems: list[str | None] = [None] * len(ops)
    pending = range(len(ops))
    while pending:
        for k in pending:
            op = ops[k]
            t = time.perf_counter()
            try:
                result, problem = op.run(), None
            except Exception as exc:  # an operation that raises is a failed one
                result, problem = None, f"raised {type(exc).__name__}: {exc}"
            end = time.perf_counter()
            seconds = end - t - (probe.busy(t, end) if probe else 0.0)
            spent[k] += seconds
            latencies[k].append(seconds / probe.speed(t, end) if probe else seconds)
            if problem is None:
                try:
                    problem = op.check(result)
                except Exception as exc:  # output the check cannot parse
                    problem = f"unreadable output: {type(exc).__name__}: {exc}"
            problems[k] = problems[k] or problem
        pending = [k for k in pending if len(latencies[k]) < repeats and spent[k] < REPEAT_S]
    raw = [seconds / len(lat) for seconds, lat in zip(spent, latencies)]
    mismatches = [(op, problem) for op, problem in zip(ops, problems) if problem]
    return latencies, raw, mismatches


def run_traced(tracer, ops) -> tuple[list[float], list[tuple]]:
    tracer.install()
    try:
        latencies, _, mismatches = run_pass(ops)
        return [lat[0] for lat in latencies], mismatches
    finally:
        tracer.remove()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    # sample the host's speed from here on, so that set-up is measured at the
    # usual speed too
    begun = time.perf_counter()
    with speed.SpeedProbe() as probe:
        return measure(args, probe, begun)


def measure(args, probe, begun: float) -> int:
    import numpy as np

    sys.path.insert(0, str(ROOT / "src"))
    import clifflab
    from clifflab import cli, reps, structure

    origin = Path(clifflab.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        print(f"clifflab was imported from {origin}, not from this checkout", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    try:
        program = SimpleNamespace(cli=cli, reps=reps, structure=structure)
        ops = workloads.build(args.workload, program, args.seed, workdir, ROOT / "tests" / "fixtures")
        warm_blas(np)
        ready = clock()
        ready_pc = time.perf_counter()
        setup = {"ready": ready, "busy": probe.busy(begun, ready_pc), "speed": probe.speed(begun, ready_pc)}
        if args.setup_only:
            print(json.dumps({"setup": setup}))
            return 0

        latencies = [[] for _ in ops]
        raw = [[] for _ in ops]
        passes, mismatches = [], []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            lat, raw_pass, bad = run_pass(ops, probe, REPEATS)
            passes.append(time.perf_counter() - t)
            for op_lat, op_raw, samples, seconds in zip(latencies, raw, lat, raw_pass):
                op_lat.extend(samples)
                op_raw.append(seconds)
            mismatches.extend(bad)
            # the last pass may overrun by half a pass, so that a pass that
            # is a third of the budget does not leave a third of it unused
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(passes) / 2 > args.seconds:
                break
        attempted = len(ops) * len(passes)
        # one pass at the median raw time of each operation
        raw_wall = sum(statistics.median(op_raw) for op_raw in raw)

        per_layer = None
        if args.trace:
            import spans

            probe.stop()
            timed, counted = spans.Tracer(), spans.Tracer(count_fractions=True)
            lat, bad = run_traced(timed, ops)
            per_layer = timed.metrics(sum(lat), raw_wall)
            count_lat, count_bad = run_traced(counted, ops)
            per_layer.update(counted.fraction_metrics())
            attempted += len(lat) + len(count_lat)
            mismatches.extend(bad + count_bad)

        result = {
            "setup": setup,
            "attempted": attempted,
            "passes": len(passes),
            "pass_seconds": passes,
            "raw_wall": raw_wall,
            "latencies": latencies,
            "mismatches": [[op.label, problem, op.known_defect] for op, problem in mismatches],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "per_layer": per_layer,
            "env": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "blas": blas_stamp(np),
                "CLIFFLAB_MAX_RANK": os.environ.get("CLIFFLAB_MAX_RANK"),
                "probe_median_ms": statistics.median(probe.durations) * 1e3,
            },
        }
        print(json.dumps(result))
        return 0
    except workloads.SetupError as err:
        print(f"set-up failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
