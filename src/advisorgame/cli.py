"""Command-line front end: single-point analysis, 1-D parameter sweeps
and oracle cross-checks, emitted as CSV or JSON lines.

Config files are flat ``key = value`` text; any key can be overridden by
the CLI flag of the same name, and flags win over the file.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from .batch import ParamBatch, RowErrors
from .equilibria import check_thresholds, critical_zeta_arrays, threshold_arrays
from .errors import AdvisorGameError, GridTooLarge, InvalidParameter
from .oracle import (
    GridSpec,
    best_response_dynamics,
    grid_max_welfare,
    lipschitz_bound,
    perturbation_check,
)
from .params import ModelParams
from .welfare import LOCATIONS, PosFlag, maximize_welfare, welfare_arrays

PARAM_KEYS = ("d", "x", "w", "n", "alpha", "beta", "gamma", "zeta", "r_d", "r_s")

COLUMNS = (
    "value",
    "discriminant",
    "a",
    "b",
    "c_star",
    "c_dagger",
    "star_admissible",
    "dagger_admissible",
    "r_d_1",
    "r_d_2",
    "zeta_bar",
    "sw_max",
    "sw_location",
    "pos",
    "flags",
)

# Rows per kernel call in a sweep; bounds the kernel's temporaries.
SWEEP_BLOCK = 1024


class ConfigError(AdvisorGameError):
    pass


def number(text: str):
    """The value of ``n`` as written: an integer literal as an exact int,
    anything else as a float, whose integrality ``build_params`` checks."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_config(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in PARAM_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = number(val) if key == "n" else float(val)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: field {key!r}: not a number: {val!r}")
    return values


def _require(values: dict, keys) -> None:
    missing = [k for k in keys if k not in values]
    if missing:
        raise ConfigError(f"missing parameter(s): {', '.join(missing)}")


def build_params(values: dict) -> ModelParams:
    _require(values, PARAM_KEYS)
    n = values["n"]
    # An int is checked as it is: float() would round it, or overflow.
    if not (isinstance(n, int) or float(n).is_integer()):
        raise InvalidParameter("n", f"must be an integer, got {n!r}")
    return ModelParams(**dict(values, n=int(n)))


def fmt(value) -> str:
    """Canonical cell text: 17 significant digits, idempotent under re-parsing."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return "%.17g" % float(value)


def _optional(values: np.ndarray, present: np.ndarray) -> list:
    return [v if ok else None for v, ok in zip(values.tolist(), present.tolist())]


def _records(params: list, values: list) -> list:
    """The analysis record of each point, from one pass of the kernels;
    raises the error of the first point that fails a check."""
    P = ParamBatch.of(params)
    errors = RowErrors()
    with np.errstate(all="ignore"):
        report = welfare_arrays(P, errors)
        unequal = ~P.equal
        r_d_1, r_d_2 = report.equilibria.thresholds or threshold_arrays(P)
        check_thresholds(r_d_1, r_d_2, unequal, errors)
        single = (P.n == 1.0) & (P.x != P.d)
        at = np.flatnonzero(single)
        zeta_bar = np.full(len(P), np.nan)
        if at.size:
            crit_errors = RowErrors()
            zeta_bar[at] = critical_zeta_arrays(P.take(at), crit_errors)[0]
            errors.merge(crit_errors, at)
    errors.raise_first()

    eq = report.equilibria
    tokens = [(eq.degenerate, "Degenerate"), (eq.region & ~eq.agree, "RegionGeometryDisagreement")]
    tokens += [(mask, flag.value) for mask, flag in zip(report.flags, PosFlag)]
    marks = [[name if on else "" for on in mask.tolist()] for mask, name in tokens]
    flags = [";".join(filter(None, row)) for row in zip(*marks)]
    columns = zip(
        values,
        eq.disc.tolist(),
        _optional(eq.roots[0], eq.real),
        _optional(eq.roots[1], eq.real),
        _optional(eq.c[0], eq.present[0]),
        _optional(eq.c[1], eq.present[1]),
        eq.geometric[0].tolist(),
        eq.geometric[1].tolist(),
        _optional(r_d_1, unequal),
        _optional(r_d_2, unequal),
        _optional(zeta_bar, single),
        report.sw_max.tolist(),
        [LOCATIONS[k] for k in report.location.tolist()],
        _optional(report.pos, ~report.flags.any(axis=0)),
        flags,
    )
    return [dict(zip(COLUMNS, row)) for row in columns]


def run_single(p: ModelParams, value=None) -> dict:
    """One analysis record; ``value`` is the swept value column (if any)."""
    return _records([p], [value])[0]


def run_sweep(base_values: dict, param: str, lo: float, hi: float, steps: int) -> list:
    """One record per swept value, ascending; invalid rows are kept with
    an error marker instead of being dropped. Valid rows go through the
    kernels SWEEP_BLOCK at a time."""
    if param not in PARAM_KEYS:
        raise ConfigError(f"unknown sweep parameter {param!r}")
    # Also rejects ends whose difference overflows: linspace would turn
    # them into NaN or inf values.
    if not math.isfinite(hi - lo):
        raise ConfigError(f"sweep range needs finite lo, hi and hi - lo, got {lo}:{hi}")
    if not (lo < hi):
        raise ConfigError(f"sweep range needs lo < hi, got {lo}:{hi}")
    if not (2 <= steps <= 10**6):
        raise ConfigError(f"sweep steps must lie in [2, 1000000], got {steps}")
    # Checked once: a missing base key would otherwise mark every row.
    _require(base_values, [k for k in PARAM_KEYS if k != param])
    sweep = np.linspace(lo, hi, steps).tolist()
    rows = []
    for start in range(0, steps, SWEEP_BLOCK):
        block, params, values = [], [], []
        for value in sweep[start:start + SWEEP_BLOCK]:
            point = dict(base_values)
            point[param] = int(round(value)) if param == "n" else value
            try:
                params.append(build_params(point))
            except InvalidParameter as exc:
                row = {k: None for k in COLUMNS}
                row["value"] = value
                row["flags"] = f"error:{exc.field}"
                block.append(row)
                continue
            block.append(None)
            values.append(value)
        records = iter(_records(params, values) if params else ())
        rows.extend(next(records) if row is None else row for row in block)
    return rows


def emit_csv(rows, stream) -> None:
    stream.write(",".join(COLUMNS) + "\n")
    for row in rows:
        stream.write(",".join(fmt(row[k]) for k in COLUMNS) + "\n")


def parse_csv(text: str) -> list:
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        row = {}
        for key, cell in zip(header, cells):
            if cell == "":
                row[key] = None
            elif key in ("star_admissible", "dagger_admissible"):
                row[key] = cell == "true"
            elif key in ("sw_location", "flags"):
                row[key] = cell
            else:
                row[key] = float(cell)
        rows.append(row)
    return rows


def emit_json(rows, stream) -> None:
    for row in rows:
        obj = {}
        for key in COLUMNS:
            v = row[key]
            if isinstance(v, float) and not np.isfinite(v):
                v = None
            obj[key] = v
        stream.write(json.dumps(obj) + "\n")


def _output(path):
    """The ``--out`` file opened for writing, or stdout (left open) when
    no path is given; use it in a ``with``."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)


def run_oracle_check(p: ModelParams, seed: int, resolution: float, stream) -> bool:
    """Grid-vs-analytic and Nash cross-checks; prints one line per check."""
    ok = True

    def report(name, passed, detail=""):
        nonlocal ok
        ok = ok and passed
        stream.write(f"[{'PASS' if passed else 'FAIL'}] {name}{': ' + detail if detail else ''}\n")

    grid_point, grid_val = grid_max_welfare(p, GridSpec(resolution))
    analytic = maximize_welfare(p)
    gap = abs(analytic.sw_max - grid_val)
    slack = resolution * lipschitz_bound(p)
    report("welfare grid agreement", gap <= slack, f"|gap| = {gap:.3g} <= {slack:.3g}")

    eq = analytic.equilibria
    candidates = (("P*", eq.p_star, eq.star_admissible), ("P+", eq.p_dagger, eq.dagger_admissible))
    for name, prof, admissible in candidates:
        if not admissible or prof.s - p.d <= 1e-9:
            continue
        report(f"{name} Nash deviation check", perturbation_check(p, prof, 1000, seed=seed))
        trace = best_response_dynamics(p, prof, max_iter=10)
        report(f"{name} is a best-response fixed point", trace.converged)
    return ok


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="advisorgame")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a single parameter point")
    sweep = sub.add_parser("sweep", help="1-D parameter sweep")
    oracle = sub.add_parser("oracle-check", help="run brute-force cross-checks")
    for sp in (analyze, sweep, oracle):
        sp.add_argument("--config", help="flat key = value parameter file")
        for key in PARAM_KEYS:
            sp.add_argument(f"--{key}", type=number if key == "n" else float, default=None, help=f"override {key}")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
    # Each subcommand takes only the flags it reads.
    for sp in (analyze, sweep):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--param", required=True, help="parameter to sweep")
    sweep.add_argument("--range", required=True, dest="sweep_range", help="lo:hi:steps")
    oracle.add_argument("--seed", type=int, default=0, help="seed of the random Nash deviations")
    oracle.add_argument("--grid-resolution", type=float, default=1e-3, help="step of the welfare grid")
    return parser


def _collect_values(args) -> dict:
    values = parse_config(args.config) if args.config else {}
    for key in PARAM_KEYS:
        override = getattr(args, key)
        if override is not None:
            values[key] = override
    return values


# Built on the first main() call and reused: parse_args leaves it unchanged.
_parser = functools.lru_cache(maxsize=None)(make_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        values = _collect_values(args)
        if args.command == "oracle-check":
            p = build_params(values)
            with _output(args.out) as stream:
                ok = run_oracle_check(p, args.seed, args.grid_resolution, stream)
            return 0 if ok else 2
        if args.command == "analyze":
            rows = [run_single(build_params(values))]
        else:
            try:
                lo, hi, steps = args.sweep_range.split(":")
                lo, hi, steps = float(lo), float(hi), int(steps)
            except ValueError:
                raise ConfigError(f"--range must be lo:hi:steps, got {args.sweep_range!r}")
            rows = run_sweep(values, args.param, lo, hi, steps)
        with _output(args.out) as stream:
            (emit_json if args.format == "json" else emit_csv)(rows, stream)
    except (ConfigError, InvalidParameter, GridTooLarge, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AdvisorGameError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
