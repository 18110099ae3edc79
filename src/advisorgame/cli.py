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
from .params import FIELD_RULES, ModelParams
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
HEADER = ",".join(COLUMNS) + "\n"
_BOOL_COLUMNS = ("star_admissible", "dagger_admissible")
# The tokens of the flags column, in their order.
_FLAG_TOKENS = ("Degenerate", "RegionGeometryDisagreement") + tuple(flag.value for flag in PosFlag)
_TEXT_COLUMNS = ("sw_location", "flags")

# Rows per kernel call in a sweep, and per write of its output; bounds the
# kernels' temporaries and the rows held in memory.
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from None
    for lineno, raw in enumerate(lines, start=1):
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


def _integral(n) -> bool:
    # An int is checked as it is: float() would round it, or overflow.
    return isinstance(n, int) or float(n).is_integer()


def build_params(values: dict) -> ModelParams:
    _require(values, PARAM_KEYS)
    n = values["n"]
    if not _integral(n):
        raise InvalidParameter("n", f"must be an integer, got {n!r}")
    return ModelParams(**dict(values, n=int(n)))


def _optional(values: np.ndarray, present: np.ndarray) -> list:
    return [v if ok else None for v, ok in zip(values.tolist(), present.tolist())]


def _analysis(P: ParamBatch, values: list) -> list:
    """The analysis columns of a batch of points, in ``COLUMNS`` order and
    with None for an absent value, from one pass of the kernels; raises
    the error of the first point that fails a check."""
    errors = RowErrors()
    with np.errstate(all="ignore"):
        report = welfare_arrays(P, errors)
        unequal = ~P.equal
        r_d_1, r_d_2 = report.equilibria.thresholds or threshold_arrays(P)
        # equilibrium_arrays has checked the rows of its region already.
        unchecked = unequal & ~report.equilibria.region
        if np.count_nonzero(unchecked):
            check_thresholds(r_d_1, r_d_2, unchecked, errors)
        single = (P.n == 1.0) & (P.x != P.d)
        zeta_bar = np.full(len(P), np.nan)
        if np.count_nonzero(single):
            at = np.flatnonzero(single)
            crit_errors = RowErrors()
            zeta_bar[at] = critical_zeta_arrays(P.take(at), crit_errors)[0]
            errors.merge(crit_errors, at)
    errors.raise_first()

    eq = report.equilibria
    masks = [eq.degenerate, eq.region & ~eq.agree, *report.flags]
    marks = [[name if on else "" for on in mask.tolist()] for mask, name in zip(masks, _FLAG_TOKENS)]
    return [
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
        [";".join(filter(None, row)) for row in zip(*marks)],
    ]


def _rows(columns: list) -> list:
    """The records (dicts keyed by ``COLUMNS``) of a block of columns."""
    return [dict(zip(COLUMNS, row)) for row in zip(*columns)]


def run_single(p: ModelParams, value=None) -> dict:
    """One analysis record; ``value`` is the swept value column (if any)."""
    return _rows(_analysis(ParamBatch.of([p]), [value]))[0]


def _sweep_values(lo: float, hi: float, steps: int, start: int, stop: int) -> np.ndarray:
    """``np.linspace(lo, hi, steps)[start:stop]``, computed for those rows
    only, by linspace's own arithmetic: row i is ``i * step + lo`` (or
    ``i / (steps - 1) * (hi - lo) + lo`` where the step underflows to 0),
    and the last row is ``hi``."""
    delta = hi - lo
    step = delta / (steps - 1)
    rows = np.arange(start, stop, dtype=float)
    values = rows * step if step != 0 else rows / (steps - 1) * delta
    values += lo
    if stop == steps:
        values[-1] = hi
    return values


def _block_params(base_values: dict, param: str, values: np.ndarray):
    """A sweep block's points, validated as arrays: the ``ParamBatch`` of
    its valid rows (None if there are none) and, unless every row is
    valid, the field each row fails first (None where it is valid), as
    ``build_params`` would raise it on the same point."""
    if param != "n" and not _integral(base_values["n"]):
        return None, ["n"] * len(values)
    point = {key: base_values[key] for key in PARAM_KEYS if key != param}
    if param != "n":
        point["n"] = int(point["n"])
    # A swept n is rounded to the nearest integer, ties to even, as round() does.
    point[param] = np.rint(values) if param == "n" else values
    broken = np.full(len(values), -1)
    for k, (name, (holds, _)) in enumerate(FIELD_RULES):
        ok = holds(point[name])
        if isinstance(ok, np.ndarray):
            broken[(broken < 0) & ~ok] = k
        elif not ok:
            broken[broken < 0] = k
    valid = broken < 0
    count = int(np.count_nonzero(valid))
    P = None
    if count:
        P = ParamBatch(*(point[key][valid] if key == param else np.full(count, float(point[key]))
                         for key in PARAM_KEYS))
    if count == len(values):
        return P, None
    return P, [None if k < 0 else FIELD_RULES[k][0] for k in broken.tolist()]


def _spread(column: list, valid: list) -> list:
    """A column of the valid rows of a block, with None at the other rows."""
    cells = iter(column)
    return [next(cells) if ok else None for ok in valid]


def sweep_blocks(base_values: dict, param: str, lo: float, hi: float, steps: int):
    """The rows of a 1-D sweep, one per swept value, ascending, as blocks
    of up to SWEEP_BLOCK rows, each a list of columns in ``COLUMNS``
    order. An invalid row is kept with an ``error:<field>`` marker instead
    of being dropped. Valid rows go through the kernels a block at a time;
    a block raises the error of its first failing row, after the blocks
    before it have been yielded."""
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
    for start in range(0, steps, SWEEP_BLOCK):
        values = _sweep_values(lo, hi, steps, start, min(start + SWEEP_BLOCK, steps))
        P, fields = _block_params(base_values, param, values)
        values = values.tolist()
        if fields is None:
            yield _analysis(P, values)
            continue
        valid = [field is None for field in fields]
        computed = [[]] * len(COLUMNS)
        if P is not None:
            computed = _analysis(P, [v for v, ok in zip(values, valid) if ok])
        block = [_spread(column, valid) for column in computed]
        block[0] = values
        block[-1] = [flag if field is None else f"error:{field}" for flag, field in zip(block[-1], fields)]
        yield block


def run_sweep(base_values: dict, param: str, lo: float, hi: float, steps: int) -> list:
    """The records of ``sweep_blocks``, all of them."""
    return [row for block in sweep_blocks(base_values, param, lo, hi, steps) for row in _rows(block)]


def _csv_lines(columns: list) -> str:
    """The CSV lines of a block of columns. A number is written with 17
    significant digits, so it reads back as the same double; a boolean as
    true or false; an absent value as an empty cell."""
    cells = []
    for key, column in zip(COLUMNS, columns):
        if key in _TEXT_COLUMNS:
            cells.append(["" if v is None else v for v in column])
        elif key in _BOOL_COLUMNS:
            cells.append(["" if v is None else "true" if v else "false" for v in column])
        else:
            cells.append(["" if v is None else "%.17g" % v for v in column])
    return "".join([",".join(row) + "\n" for row in zip(*cells)])


def emit_csv(rows, stream) -> None:
    """The header and one CSV line per record."""
    columns = zip(*([row[key] for key in COLUMNS] for row in rows))
    stream.write(HEADER + _csv_lines(list(columns)))


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
            elif key in _BOOL_COLUMNS:
                row[key] = cell == "true"
            elif key in _TEXT_COLUMNS:
                row[key] = cell
            else:
                row[key] = float(cell)
        rows.append(row)
    return rows


def emit_json(columns: list, stream) -> None:
    """One JSON object per row of a block of columns, keys in ``COLUMNS``
    order, each cell formatted a column at a time as ``json.dumps`` would
    write it: a number as its repr, a boolean as true or false, a text
    quoted, and an absent value, or a number that is not finite, as null."""
    cells = []
    for key, column in zip(COLUMNS, columns):
        name = f'"{key}": '
        if key in _TEXT_COLUMNS:
            cells.append([name + ("null" if v is None else json.dumps(v)) for v in column])
        elif key in _BOOL_COLUMNS:
            cells.append([name + ("null" if v is None else "true" if v else "false") for v in column])
        else:
            cells.append([name + (repr(v) if v is not None and math.isfinite(v) else "null")
                          for v in column])
    stream.write("".join(["{" + ", ".join(row) + "}\n" for row in zip(*cells)]))


def _output(path):
    """The ``--out`` file opened for writing, or stdout (left open) when
    no path is given; use it in a ``with``."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(str(exc)) from None


def run_oracle_check(p: ModelParams, seed: int, resolution: float) -> tuple:
    """Grid-vs-analytic and Nash cross-checks: whether all passed, and the
    report, one line per check."""
    ok = True
    lines = []

    def report(name, passed, detail=""):
        nonlocal ok
        ok = ok and passed
        lines.append(f"[{'PASS' if passed else 'FAIL'}] {name}{': ' + detail if detail else ''}\n")

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
    return ok, "".join(lines)


def _build_parsers() -> tuple:
    """The top-level parser, and its command parsers by command name."""
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
    oracle.add_argument("--seed", type=int, default=0, help="seed of the offset of the Nash deviation lattice (>= 0)")
    oracle.add_argument("--grid-resolution", type=float, default=1e-3, help="step of the welfare grid")
    return parser, {"analyze": analyze, "sweep": sweep, "oracle-check": oracle}


def make_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _collect_values(args) -> dict:
    values = parse_config(args.config) if args.config else {}
    for key in PARAM_KEYS:
        override = getattr(args, key)
        if override is not None:
            values[key] = override
    return values


# Built on the first main() call and reused: parsing leaves them unchanged.
_parsers = functools.lru_cache(maxsize=None)(_build_parsers)


def _parse_args(argv=None) -> argparse.Namespace:
    """``make_parser().parse_args(argv)``. A named command's arguments go
    straight to its parser, which the top-level parser would pass them to
    after a scan of its own; anything else (no arguments, -h, an unknown
    command, an argument before the command) and leftover arguments are
    the top-level parser's to parse and report."""
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def _write(blocks, output_format: str, path) -> None:
    """Write a block iterator's rows as each block is ready. The output is
    opened once the first block is ready, so an error in it leaves stdout
    empty and an existing ``--out`` file untouched; an error in a later
    block ends the output after the rows of the blocks before it."""
    block = next(blocks)
    with _output(path) as stream:
        if output_format == "csv":
            stream.write(HEADER)
        while block is not None:
            if output_format == "json":
                emit_json(block, stream)
            else:
                stream.write(_csv_lines(block))
            block = next(blocks, None)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        values = _collect_values(args)
        if args.command == "oracle-check":
            if args.seed < 0:
                raise InvalidParameter("seed", f"must be a non-negative integer, got {args.seed}")
            # The report is made before --out is opened, so a check that
            # fails with an error leaves an existing file untouched.
            ok, report = run_oracle_check(build_params(values), args.seed, args.grid_resolution)
            with _output(args.out) as stream:
                stream.write(report)
            return 0 if ok else 2
        if args.command == "analyze":
            blocks = iter([_analysis(ParamBatch.of([build_params(values)]), [None])])
        else:
            try:
                lo, hi, steps = args.sweep_range.split(":")
                lo, hi, steps = float(lo), float(hi), int(steps)
            except ValueError:
                raise ConfigError(f"--range must be lo:hi:steps, got {args.sweep_range!r}")
            blocks = sweep_blocks(values, args.param, lo, hi, steps)
        _write(blocks, args.format, args.out)
    except (ConfigError, InvalidParameter, GridTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AdvisorGameError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
