"""Workload definitions: which argv lists each workload sends to the CLI.

Every workload draws its operations from an input pool generated from a
seed and recorded by ``record.py``: the argv lists in
``pools/<workload>-<pool seed>.json`` and the program's outputs for them in
``reference/<workload>-<pool seed>.json``, so each operation has a
reference output to be checked against. The held-out run seed draws from a
pool of its own, whose inputs no other seed sees; every other seed draws
from the tuning pool. The run's ``--seed`` also chooses the order and mix
of the operations drawn from the pool. The program only ever sees the
generated argv lists.

Why each workload is here:

sweep    Short 1-D sweeps, cycled in a closed loop for a fixed wall time,
         counting rows completed. Equilibria exist along most rows, so the
         whole ``run_single`` chain runs (three equilibrium solves, the
         admissibility windows, the critical dissonance, the welfare
         quartic and the three boundary faces). The fixed wall time keeps
         the workload meaningful when a row becomes ~100x cheaper.
analyze  One ``analyze`` call per random point from a widened parameter
         distribution (n in {1, 2, 3, 10, 1000}, every tenth point with
         r_s == r_d exactly, some with x == d). It is single-point latency
         including argparse, parameter validation and CSV emit; most points
         have no equilibria and few have an interior optimum, so it takes
         other branches than ``sweep``. Per-call overhead of batch kernels
         on a length-1 call shows here.
oracle   One ``oracle-check`` call per point with an admissible
         equilibrium, at grid resolution 5e-4. The brute-force grid and
         the random-deviation Nash check dominate, while the welfare
         optimum runs once per call. The grid's memory is what
         ``peak_rss_mb`` sees, and at 5e-4 it stays near 160 MB.
"""

from __future__ import annotations

import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("sweep", "analyze", "oracle")

# A seed that no one tunes a change against; a gain is claimed only if it
# also holds on this seed. Its inputs come from the pool drawn from this
# seed, which no other run seed uses.
HELD_OUT_SEED = 1909

# The seed of the tuning pool, which every other run seed draws from.
POOL_SEED = 20190916

# The kinds of sweep in the pool (the ``group`` of each operation).
SWEEP_GROUPS = ("fig1-zeta", "fig1-gamma", "fig1-d", "r_s", "n")

# Oracle points are grouped by grid size, and every round draws one point
# from each group, so that runs with different seeds do the same amount of
# grid work.
ORACLE_STRATA = 8

# How many rounds of operations a run prepares; a run that finishes them
# before its time is up starts again from the first.
ROUNDS = 64


def grid_cells(d: float, resolution: float) -> int:
    """Cells of the homogeneous welfare grid over s, c in [d, 1], computed
    from the axis the grid oracle builds: numpy ``arange``, which steps by
    ``(d + resolution) - d``, plus the endpoint if it falls short."""
    if 1.0 <= d:
        return 1
    length = math.ceil((1.0 + resolution * 0.5 - d) / resolution)
    if d + (length - 1) * ((d + resolution) - d) < 1.0 - 1e-15:
        length += 1
    return length * length


def pool_path(kind: str, workload: str, pool_seed: int) -> str:
    """``pools/`` holds a pool's argv lists, ``reference/`` its outputs."""
    return os.path.join(HERE, kind, f"{workload}-{pool_seed}.json")


def load(kind: str, workload: str, seed: int) -> list:
    """The inputs (``kind`` "pools") or the recorded outputs ("reference")
    of the pool that run seed ``seed`` draws from."""
    pool_seed = HELD_OUT_SEED if seed == HELD_OUT_SEED else POOL_SEED
    with open(pool_path(kind, workload, pool_seed), encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def operations(workload: str, seed: int, pool: list) -> list:
    """The run's operations, as (pool index, argv) pairs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "analyze":
        return [(i, pool[i]["argv"]) for i in rng.sample(range(len(pool)), len(pool))]
    if workload == "sweep":
        groups = {}
        for i, op in enumerate(pool):
            groups.setdefault(op["group"], []).append(i)
        order = []
        for _ in range(ROUNDS):
            round_ = [rng.choice(members) for members in groups.values()]
            rng.shuffle(round_)
            order.extend(round_)
        return [(i, pool[i]["argv"]) for i in order]
    if workload == "oracle":
        by_grid = sorted(range(len(pool)), key=lambda i: -pool[i]["grid_cells"])
        size = len(by_grid) // ORACLE_STRATA
        strata = [by_grid[k * size:(k + 1) * size] for k in range(ORACLE_STRATA)]
        # The largest grid runs in every run, so the peak memory is that of
        # the same input whatever the seed.
        order = [by_grid[0]]
        for _ in range(ROUNDS):
            round_ = [rng.choice(stratum) for stratum in strata]
            rng.shuffle(round_)
            order.extend(round_)
        return [(i, pool[i]["argv"] + ["--seed", str(rng.randrange(2**31))]) for i in order]
    raise ValueError(f"unknown workload {workload!r}")
