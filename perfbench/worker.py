"""Run one workload in this fresh process and print its figures as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE ``setup`` only imports the program and builds the inputs; that is
the time ``setup_s`` reports, and the recorded outputs the checks compare
with are read after it. MODE ``measure`` then calls
``advisorgame.cli.main`` in a closed loop, one call at a time, for S
seconds, and between calls starts SETUP_PROBES fresh ``setup`` processes,
spread evenly over the S seconds, so that the median set-up time sees the
same drift in host speed as the calls do. MODE ``trace`` runs each
operation twice in turn, untraced and then with every layer traced, for S
seconds in all, so that both see the same inputs and the same drift in
host speed. ``run.py`` starts this script with the BLAS and OpenMP thread
counts pinned to 1.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import advisorgame.cli as cli  # noqa: E402
import numpy  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402


def call(main, argv):
    """One closed-loop operation: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed operation, not the end of the run
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


# Set-up processes started during a measured run; with the measured
# process itself, setup_s is the median of 15.
SETUP_PROBES = 14

# Spans whose calls the traced run also counts per sweep group.
GROUP_SPANS = ("equilibria.nash_equilibria", "cli.run_single")


class Loop:
    """Runs a workload's operations, checks every output and counts failures."""

    def __init__(self, workload, ops, inputs, reference):
        self.workload, self.ops, self.inputs, self.reference = workload, ops, inputs, reference
        self.attempted, self.failed, self.problems = 0, 0, []

    def run_one(self, index, argv, main):
        """(output rows, seconds) of one checked call."""
        code, output, seconds = call(main, argv)
        reference = self.reference[index]
        if self.workload == "oracle":
            problems = check.check_oracle(code, output, reference)
        else:
            problems = check.check_rows(argv, code, output, reference)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append({"argv": argv, "problems": problems[:3]})
        rows = 1 if self.workload == "oracle" else max(0, output.count("\n") - ("json" not in argv))
        return rows, seconds

    def measure(self, seconds, probe):
        """Closed loop from the second operation on (the first is the
        warm-up) until ``seconds`` have passed, not counting the
        SETUP_PROBES calls of ``probe`` made between operations."""
        latencies, setups, rows = [], [], 0
        spent = 0.0
        k = 1
        while spent < seconds:
            if len(setups) < SETUP_PROBES and spent >= len(setups) * seconds / SETUP_PROBES:
                setups.append(probe())
            start = time.perf_counter()
            n, latency = self.run_one(*self.ops[k % len(self.ops)], cli.main)
            spent += time.perf_counter() - start
            latencies.append(latency)
            rows += n
            k += 1
        cuts = statistics.quantiles(latencies, n=10, method="inclusive") if len(latencies) > 1 else latencies * 9
        return {
            "setups": setups,
            "rows_per_s": rows / sum(latencies),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_p90_ms": 1e3 * cuts[8],
            "calls": len(latencies),
            "rows": rows,
        }

    def trace(self, seconds):
        """Per-layer metrics: every operation runs untraced, then traced."""
        from tracer import ROOT, Tracer  # kept out of the set-up that setup_s times

        tracer = Tracer()
        plain, traced, rows = [], [], 0
        by_group = {}  # sweep group -> [rows, calls of each of GROUP_SPANS]
        deadline = time.perf_counter() + seconds
        k = 1
        while time.perf_counter() < deadline:
            index, argv = self.ops[k % len(self.ops)]
            plain.append(self.run_one(index, argv, cli.main)[1])
            before = [tracer.stats[span][0] for span in GROUP_SPANS]
            tracer.install()
            try:
                n, latency = self.run_one(index, argv, lambda a: tracer.call(ROOT, cli.main, a))
            finally:
                tracer.uninstall()
            traced.append(latency)
            rows += n
            counts = by_group.setdefault(self.inputs[index].get("group"), [0] * (1 + len(GROUP_SPANS)))
            counts[0] += n
            for j, span in enumerate(GROUP_SPANS, 1):
                counts[j] += tracer.stats[span][0] - before[j - 1]
            k += 1
        metrics = tracer.per_row(rows)
        for group in workloads.SWEEP_GROUPS:
            group_rows, *calls = by_group.get(group, [0] * (1 + len(GROUP_SPANS)))
            for span, count in zip(GROUP_SPANS, calls):
                metrics[f"sweep.{group}.{span}.calls"] = (count / max(group_rows, 1), "1/row")
        metrics["trace.overhead_ms"] = (1e3 * (statistics.median(traced) - statistics.median(plain)), "ms")
        metrics["trace.rows"] = (rows, "count")
        return metrics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args()

    inputs = workloads.load("pools", args.workload, args.seed)
    ops = workloads.operations(args.workload, args.seed, inputs)
    result = {
        "setup_s": time.perf_counter() - _START,
        "env": f"python {sys.version.split()[0]}, numpy {numpy.__version__}, nproc {len(os.sched_getaffinity(0))}",
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return

    loop = Loop(args.workload, ops, inputs, workloads.load("reference", args.workload, args.seed))
    loop.run_one(*ops[0], cli.main)
    if args.mode == "measure":
        setup = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", "0", "--mode", "setup"]

        def probe():
            done = subprocess.run(setup, capture_output=True, text=True, check=True)
            return json.loads(done.stdout)["setup_s"]

        measured = loop.measure(args.seconds, probe)
        result.update(measured, setup_s=statistics.median([result["setup_s"]] + measured.pop("setups")))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        result["per_layer"] = loop.trace(args.seconds)
    result.update(attempted=loop.attempted, failed=loop.failed, problems=loop.problems[:5])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
