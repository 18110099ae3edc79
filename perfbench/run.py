"""The advisorgame benchmark.

    python3 perfbench/run.py --workload {sweep,analyze,oracle,all} --seed N \\
        --seconds S --trace {0,1}

Each workload runs in fresh processes of its own (``worker.py``), with the
BLAS and OpenMP thread counts pinned to 1, from one process with one
closed-loop caller: the next call starts when the previous one returned.
Every output is checked against the reference recorded in ``reference/``.

With ``--trace 0`` it prints the end-to-end metrics, measured untraced:

    setup_s         median over 15 fresh processes (the measured one and
                    14 started during its run) of the time to import
                    ``advisorgame.cli`` and build the inputs (not to read
                    the recorded outputs the checks use)
    rows_per_s      output rows per second spent in ``main()``; an
                    ``oracle-check`` call counts as one row
    latency_p50_ms  median latency of one ``main()`` call
    latency_p90_ms  90th percentile of the same; on ``sweep`` a call is a
                    whole 24-row sweep and a run makes only about 45
    peak_rss_mb     peak resident memory of the workload's process

With ``--trace 1`` it prints per-layer metrics from a traced run instead
(see ``tracer.py``), each divided by the output rows of the traced calls,
``trace.overhead_ms``, the traced minus the untraced median latency of
the same operations, and, for each kind of sweep, the equilibrium solves
and ``run_single`` calls per output row.

Both end with one JSON line: ``correct``, ``attempted`` and ``failed``
count checked ``main()`` calls, and ``metrics`` holds the figures.
``failed_frac`` is printed above it. A gain is claimed only if it also
holds on ``--seed 1909`` (``workloads.HELD_OUT_SEED``), a seed not used
while writing the change; its inputs come from a pool that no other seed
draws from.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
TIMEOUT_S = 60  # beyond the measured seconds
UNITS = {"setup_s": "s", "rows_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms", "peak_rss_mb": "MB"}
PINNED = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class WorkerFailed(RuntimeError):
    pass


def worker(workload: str, seed: int, seconds: float, mode: str) -> dict:
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--mode", mode]
    timeout = seconds + TIMEOUT_S
    try:
        done = subprocess.run(argv, env=dict(os.environ, **PINNED), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload} {mode}: no result within {timeout:g} s")
    if done.returncode != 0 or not done.stdout.strip():
        raise WorkerFailed(f"{workload} {mode}: exit code {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """The worker's result, with ``metrics`` as name -> (value, unit)."""
    if trace:
        result = worker(workload, seed, seconds, "trace")
        result["metrics"] = {name: tuple(pair) for name, pair in result["per_layer"].items()}
    else:
        result = worker(workload, seed, seconds, "measure")
        result["metrics"] = {name: (result[name], unit) for name, unit in UNITS.items()}
        print(f"# {workload}: {result['calls']} timed calls, {result['rows']} rows")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            attempted += result["attempted"]
            failed += result["failed"]
            for problem in result["problems"]:
                print(f"# FAILED {name}: {json.dumps(problem)}")
            for metric, (value, unit) in result["metrics"].items():
                print(f"{name:8s} {metric:52s} {value:14.6g} {unit}")
            print(f"{name:8s} {'failed_frac':52s} {result['failed'] / result['attempted']:14.6g} 1")
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + m: {"value": v, "unit": u} for m, (v, u) in result["metrics"].items()})
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"# {result['env']}; seed {args.seed}, {args.seconds:g} s per run")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
