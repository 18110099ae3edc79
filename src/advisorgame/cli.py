"""Command-line front end: single-point analysis, 1-D parameter sweeps
and oracle cross-checks, emitted as CSV or JSON lines.

Config files are flat ``key = value`` text; any key can be overridden by
the CLI flag of the same name, and flags win over the file.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .equilibria import admissibility_thresholds, critical_zeta
from .errors import AdvisorGameError, GridTooLarge, InvalidParameter
from .oracle import (
    GridSpec,
    best_response_dynamics,
    grid_max_welfare,
    lipschitz_bound,
    perturbation_check,
)
from .params import ModelParams
from .welfare import maximize_welfare

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


class ConfigError(AdvisorGameError):
    pass


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
                values[key] = int(val) if key == "n" else float(val)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: field {key!r}: not a number: {val!r}")
    return values


def build_params(values: dict) -> ModelParams:
    missing = [k for k in PARAM_KEYS if k not in values]
    if missing:
        raise ConfigError(f"missing parameter(s): {', '.join(missing)}")
    if not float(values["n"]).is_integer():
        raise InvalidParameter("n", f"must be an integer, got {values['n']!r}")
    kwargs = dict(values)
    kwargs["n"] = int(values["n"])
    return ModelParams(**kwargs)


def fmt(value) -> str:
    """Canonical cell text: 17 significant digits, idempotent under re-parsing."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return "%.17g" % float(value)


def run_single(p: ModelParams, value=None) -> dict:
    """One analysis record; ``value`` is the swept value column (if any)."""
    report = maximize_welfare(p)
    eq = report.equilibria
    record = {k: None for k in COLUMNS}
    record["value"] = value
    record["discriminant"] = eq.roots.discriminant
    record["a"] = eq.roots.a
    record["b"] = eq.roots.b
    record["c_star"] = eq.p_star.c[0] if eq.p_star is not None else None
    record["c_dagger"] = eq.p_dagger.c[0] if eq.p_dagger is not None else None
    record["star_admissible"] = eq.star_admissible
    record["dagger_admissible"] = eq.dagger_admissible
    flags = []
    if eq.degenerate:
        flags.append("Degenerate")
    if eq.star_region is not None and (
        eq.star_region != eq.star_geometric or eq.dagger_region != eq.dagger_geometric
    ):
        flags.append("RegionGeometryDisagreement")
    if p.r_s != p.r_d:
        thr = admissibility_thresholds(p)
        record["r_d_1"], record["r_d_2"] = thr.r_d_1, thr.r_d_2
    if p.n == 1 and p.x != p.d:
        record["zeta_bar"] = critical_zeta(p).zeta_bar
    record["sw_max"] = report.sw_max
    record["sw_location"] = report.location
    record["pos"] = report.pos
    flags.extend(sorted(f.value for f in report.pos_flags))
    record["flags"] = ";".join(flags)
    return record


def run_sweep(base_values: dict, param: str, lo: float, hi: float, steps: int) -> list:
    """One record per swept value, ascending; invalid rows are kept with
    an error marker instead of being dropped."""
    if param not in PARAM_KEYS:
        raise ConfigError(f"unknown sweep parameter {param!r}")
    if not (lo < hi):
        raise ConfigError(f"sweep range needs lo < hi, got {lo}:{hi}")
    if not (2 <= steps <= 10**6):
        raise ConfigError(f"sweep steps must lie in [2, 1000000], got {steps}")
    rows = []
    for value in np.linspace(lo, hi, steps):
        value = float(value)
        values = dict(base_values)
        values[param] = int(round(value)) if param == "n" else value
        try:
            p = build_params(values)
        except (InvalidParameter, ConfigError) as exc:
            row = {k: None for k in COLUMNS}
            row["value"] = value
            field = getattr(exc, "field", param)
            row["flags"] = f"error:{field}"
            rows.append(row)
            continue
        rows.append(run_single(p, value=value))
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


def _emit(rows, fmt_name, out_path) -> None:
    stream = open(out_path, "w", encoding="utf-8") if out_path else sys.stdout
    try:
        if fmt_name == "json":
            emit_json(rows, stream)
        else:
            emit_csv(rows, stream)
    finally:
        if out_path:
            stream.close()


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
    for name, prof in (("P*", eq.p_star), ("P+", eq.p_dagger)):
        if prof is None or not prof.in_domain(p.d):
            continue
        if prof.s - p.d <= 1e-9:
            continue
        report(f"{name} Nash deviation check", perturbation_check(p, prof, 1000, seed=seed))
        trace = best_response_dynamics(p, prof, max_iter=10, tol=1e-9)
        report(f"{name} is a best-response fixed point", trace.converged)
    return ok


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="advisorgame")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="flat key = value parameter file")
        for key in PARAM_KEYS:
            sp.add_argument(f"--{key}", type=float, default=None, help=f"override {key}")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--grid-resolution", type=float, default=1e-3)

    sp = sub.add_parser("analyze", help="analyze a single parameter point")
    add_common(sp)
    sp = sub.add_parser("sweep", help="1-D parameter sweep")
    add_common(sp)
    sp.add_argument("--param", required=True, help="parameter to sweep")
    sp.add_argument("--range", required=True, dest="sweep_range", help="lo:hi:steps")
    sp = sub.add_parser("oracle-check", help="run brute-force cross-checks")
    add_common(sp)
    return parser


def _collect_values(args) -> dict:
    values = parse_config(args.config) if args.config else {}
    for key in PARAM_KEYS:
        override = getattr(args, key)
        if override is not None:
            values[key] = override
    return values


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        values = _collect_values(args)
        if args.command == "analyze":
            rows = [run_single(build_params(values))]
            _emit(rows, args.format, args.out)
        elif args.command == "sweep":
            try:
                lo, hi, steps = args.sweep_range.split(":")
                lo, hi, steps = float(lo), float(hi), int(steps)
            except ValueError:
                raise ConfigError(f"--range must be lo:hi:steps, got {args.sweep_range!r}")
            rows = run_sweep(values, args.param, lo, hi, steps)
            _emit(rows, args.format, args.out)
        elif args.command == "oracle-check":
            p = build_params(values)
            stream = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
            try:
                ok = run_oracle_check(p, args.seed, args.grid_resolution, stream)
            finally:
                if args.out:
                    stream.close()
            return 0 if ok else 2
    except (ConfigError, InvalidParameter, GridTooLarge, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AdvisorGameError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
