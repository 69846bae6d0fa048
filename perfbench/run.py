"""clifflab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {sweep,commands,rank_sweep} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each run starts the workload in fresh
interpreters (see worker.py): with ``--trace 0`` it sets up several times and
reports the median set-up time, then measures the workload for ``--seconds``
and prints every end-to-end metric; with ``--trace 1`` it adds one traced
pass and prints the per-layer metrics instead.  The last line of standard
output is the JSON result; the lines before it are a readable report with the
environment stamp, the sample counts and every mismatch against the known
answers.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import per_layer_metric_names
from workloads import RANK_SWEEP_MAX_RANK, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 9
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)


class RunError(RuntimeError):
    pass


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving it."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def worker_env(workload: str, nproc: int) -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(nproc)
    env["PYTHONHASHSEED"] = "0"
    if workload == "rank_sweep":
        env["CLIFFLAB_MAX_RANK"] = RANK_SWEEP_MAX_RANK
    else:
        env.pop("CLIFFLAB_MAX_RANK", None)
    return env


def start_worker(args, env, workdir: Path, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Run one worker; returns (set-up seconds, its result object)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError("worker exceeded the run time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise RunError(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    setup = result["setup"]
    return (setup["ready"] - spawned - setup["busy"]) / setup["speed"], result


def end_to_end(setups: list[float], result: dict) -> dict[str, float]:
    # an operation's latency is the median of all its runs
    lat = [statistics.median(samples) for samples in result["latencies"]]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_p90_s": p90,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/clifflab/__init__.py", "tests/fixtures/tables.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a clifflab checkout, missing {missing}", file=sys.stderr)
        return 2

    # on SIGTERM unwind through the finally blocks that stop the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + RUN_LIMIT_S
    nproc = len(os.sched_getaffinity(0))
    env = worker_env(args.workload, nproc)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(start_worker(args, env, workdir, deadline, setup_only=True)[0])
        setup, result = start_worker(args, env, workdir, deadline, setup_only=False)
        setups.append(setup)
    except RunError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        units = dict(per_layer_metric_names())
        metrics = {name: result["per_layer"][name] for name in units}
    else:
        metrics = end_to_end(setups, result)
        units = dict(END_TO_END)

    mismatches = result["mismatches"]
    unexpected = [m for m in mismatches if m[2] is None]
    attempted = result["attempted"]
    env_stamp = {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": nproc,
        **result["env"],
    }
    print(f"# clifflab benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# env {json.dumps(env_stamp)}")
    samples = [len(op) for op in result["latencies"]]
    print(
        f"# closed loop, one client; {len(samples)} ops x {result['passes']} passes,"
        f" {min(samples)}..{max(samples)} runs per op ({sum(samples)} latency samples);"
        f" set-up repeated {len(setups)}x"
    )
    print(f"# times at the host's usual speed (speed.py); raw seconds: one pass {result['raw_wall']:.3f},"
          " passes " + " ".join(f"{w:.3f}" for w in result["pass_seconds"]))
    for name, value in metrics.items():
        print(f"# {name:<44} {value:>14.6g} {units[name]}")
    print(f"# failed_share {len(mismatches)}/{attempted} = {len(mismatches) / attempted:.4f}")
    for label, problem, defect in dict.fromkeys(tuple(m) for m in mismatches):
        tag = f"known defect: {defect}" if defect else "UNEXPECTED"
        print(f"# mismatch [{tag}] {label}: {problem}")
    print(
        json.dumps(
            {
                "correct": not unexpected,
                "attempted": attempted,
                "failed": len(mismatches),
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
