"""Generate the benchmark's input pools and record the program's outputs.

    python3 perfbench/record.py

Two pools are drawn for each workload: the tuning pool, from ``POOL_SEED``,
which every run seed uses but one, and the held-out pool, from
``workloads.HELD_OUT_SEED``, which only that seed uses. For each pool it
writes ``pools/<workload>-<pool seed>.json``, every operation's argv, and
``reference/<workload>-<pool seed>.json``, the exit code and standard output
the program gave for each. ``run.py`` checks each output against these.
Recording again at the same commit reproduces the files. Record only when
the inputs change, and only at a commit whose outputs are trusted:
recording after a change to the program would make the check compare the
program with itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from advisorgame.cli import main  # noqa: E402

from check import PARAM_KEYS  # noqa: E402
from workloads import HELD_OUT_SEED, POOL_SEED, WORKLOADS, grid_cells, pool_path  # noqa: E402

FIG1 = dict(d=0.1, x=0.4, w=0.5, n=1, alpha=0.05, beta=0.1, gamma=0.2, zeta=10.0, r_d=0.3, r_s=0.2)

ANALYZE_POINTS = 600
SWEEP_ROWS = 24
SWEEP_BASES = 24  # per seeded sweep kind
ORACLE_POINTS = 64
ORACLE_RESOLUTION = "5e-4"


def draw_values(rng, n_choices) -> dict:
    """The test suite's random-parameter distribution, with n from ``n_choices``."""
    return dict(
        d=rng.uniform(0.0, 0.9),
        x=rng.uniform(0.0, 1.0),
        w=rng.uniform(0.0, 1.0),
        n=int(rng.choice(n_choices)),
        alpha=10.0 ** rng.uniform(-1.5, 0.5),
        beta=10.0 ** rng.uniform(-1.5, 0.5),
        gamma=10.0 ** rng.uniform(-1.5, 0.5),
        zeta=10.0 ** rng.uniform(-0.3, 1.3),
        r_d=rng.uniform(0.0, 1.0),
        r_s=rng.uniform(0.0, 1.0),
    )


def flags(values: dict, skip=()) -> list:
    argv = []
    for key in PARAM_KEYS:
        if key not in skip:
            argv += [f"--{key}", repr(values[key])]
    return argv


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def record(argv, **extra) -> dict:
    code, output = run(argv)
    return dict(argv=argv, exit=code, output=output, **extra)


def analyze_pool(rng) -> list:
    ops = []
    for i in range(ANALYZE_POINTS):
        values = draw_values(rng, (1, 2, 3, 10, 1000))
        if i % 10 == 9:
            values["r_s"] = values["r_d"]
        if i % 20 == 4:
            values["x"] = values["d"]
        ops.append(record(["analyze"] + flags(values)))
    return ops


def sweep_pool(rng) -> list:
    rows = str(SWEEP_ROWS)
    ops = [
        record(["sweep"] + flags(FIG1, ("zeta",)) + ["--param", "zeta", f"--range=10:25:{rows}"],
               group="fig1-zeta"),
        record(["sweep"] + flags(FIG1, ("gamma",))
               + ["--param", "gamma", f"--range=0.05:0.223:{rows}", "--format", "json"],
               group="fig1-gamma"),
        record(["sweep"] + flags(FIG1, ("d",)) + ["--param", "d", f"--range=-0.1:0.1:{rows}"],
               group="fig1-d"),
    ]
    for _ in range(SWEEP_BASES):
        base = draw_values(rng, (1, 2, 3))
        lo, hi = max(0.0, base["r_d"] - 0.2), min(1.0, base["r_d"] + 0.2)
        ops.append(record(["sweep"] + flags(base, ("r_s",))
                          + ["--param", "r_s", f"--range={lo!r}:{hi!r}:{rows}"], group="r_s"))
    for _ in range(SWEEP_BASES):
        base = draw_values(rng, (1, 2, 3))
        ops.append(record(["sweep"] + flags(base, ("n",))
                          + ["--param", "n", f"--range=1:1000:{rows}"], group="n"))
    return ops


def oracle_pool(rng) -> list:
    # Points with at least one admissible equilibrium, found by the program
    # itself (an analyze call) so that the pool needs no second model.
    ops = []
    while len(ops) < ORACLE_POINTS:
        values = draw_values(rng, (1, 2, 3))
        _, row = run(["analyze"] + flags(values) + ["--format", "json"])
        verdict = json.loads(row)
        if not (verdict["star_admissible"] or verdict["dagger_admissible"]):
            continue
        argv = ["oracle-check"] + flags(values) + ["--grid-resolution", ORACLE_RESOLUTION]
        op = record(argv + ["--seed", "0"], grid_cells=grid_cells(values["d"], float(ORACLE_RESOLUTION)))
        op["argv"] = argv  # each run appends its own deviation seed
        ops.append(op)
    return ops


def write(path: str, pool_seed: int, ops: list) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"pool_seed": pool_seed, "ops": ops}, fh, indent=0)
        fh.write("\n")


def main_record() -> None:
    builders = {"sweep": sweep_pool, "analyze": analyze_pool, "oracle": oracle_pool}
    for pool_seed in (POOL_SEED, HELD_OUT_SEED):
        rng = np.random.default_rng(pool_seed)
        for workload in WORKLOADS:
            ops = builders[workload](rng)
            outputs = [{"exit": op.pop("exit"), "output": op.pop("output")} for op in ops]
            write(pool_path("pools", workload, pool_seed), pool_seed, ops)
            write(pool_path("reference", workload, pool_seed), pool_seed, outputs)
            failed = sum(out["exit"] != 0 for out in outputs)
            print(f"{workload} pool {pool_seed}: {len(ops)} operations, {failed} with a non-zero exit")


if __name__ == "__main__":
    main_record()
