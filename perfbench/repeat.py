"""Run the benchmark on several seeds and summarise the spread of each metric.

    python3 perfbench/repeat.py --workload oracle --seeds 1-10
        [--out perfbench/results/BENCH_name.json --label name]

For every end-to-end metric it prints the median of the runs, their
quartiles (``statistics.quantiles(values, n=4)``) and the quartile spread
as a share of the median, next to the metric's bound in
``BENCHMARK.json``, then makes one traced run per workload on the first
of the seeds. A spread at or above a third of its bound is marked WIDE,
and the exit code is then 1. ``--out`` writes everything, with the environment, to a results file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = lines[-2].lstrip("# ").split(";")[0]
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out", default=None)
    parser.add_argument("--label", default="")
    args = parser.parse_args()

    names = [w["name"] for w in config["workloads"]] if args.workload == "all" else [args.workload]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seconds = config["run_seconds"]
    summary = {"label": args.label, "seconds": seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for name in names:
        runs = [bench(name, seed, seconds, 0) for seed in args.seeds]
        summary["env"] = runs[0]["env"]
        entry = {"attempted": sum(r["attempted"] for r in runs), "failed": sum(r["failed"] for r in runs),
                 "metrics": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            entry["metrics"][metric] = {"unit": runs[0]["metrics"][metric]["unit"], "median": median,
                                        "q1": q1, "q3": q3, "spread": spread, "values": values}
            ok = spread < bound / 3
            steady &= ok
            print(f"{name:8s} {metric:16s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  bound/3 {bound / 3:.4f}  {'ok' if ok else 'WIDE'}")
        print(f"{name:8s} failed {entry['failed']} of {entry['attempted']} calls")
        traced = bench(name, args.seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer_seed"] = args.seeds[0]
        summary["workloads"][name] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
