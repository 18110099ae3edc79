"""Correctness checks of one operation's output against its recorded reference.

Numeric cells must agree within a small tolerance, not byte for byte:
exact closed forms that replace numerical search move ``sw_max`` in its
last bits. Location, flags and admissibility cells must be equal.
"""

from __future__ import annotations

import io
import json
import math
import re

# Bound here, before a traced run wraps the module's names, so the checks
# neither count towards nor pay for the trace.
from advisorgame.cli import emit_csv, parse_csv

REL_TOL = 1e-9
ABS_TOL = 1e-12
EXACT_KEYS = ("star_admissible", "dagger_admissible", "sw_location", "flags")
BOOL_KEYS = ("star_admissible", "dagger_admissible")
PARAM_KEYS = ("d", "x", "w", "n", "alpha", "beta", "gamma", "zeta", "r_d", "r_s")
GAP = re.compile(r"\|gap\| = (\S+) <= (\S+)")


def _cell(key, text):
    if text == "":
        return None
    if key in BOOL_KEYS:
        return text == "true"
    if key in ("sw_location", "flags"):
        return text
    return float(text)


def _csv_rows(text: str) -> list:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [{k: _cell(k, c) for k, c in zip(header, ln.split(","))} for ln in lines[1:]]


def rows_of(argv: list, text: str) -> list:
    """The output rows of an ``analyze`` or ``sweep`` call, parsed here
    rather than by the program under test."""
    if "json" in argv:
        return [json.loads(ln) for ln in text.splitlines()]
    return _csv_rows(text)


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    if math.isnan(want):
        return math.isnan(got)
    if math.isinf(want):
        return got == want
    return abs(got - want) <= ABS_TOL + REL_TOL * abs(want)


def _params(argv: list, row: dict) -> dict:
    values = {k[2:]: float(v) for k, v in zip(argv, argv[1:]) if k[2:] in PARAM_KEYS}
    if "--param" in argv:
        values[argv[argv.index("--param") + 1]] = row["value"]
    values["n"] = int(round(values["n"]))
    return values


def _welfare(p: dict, s: float, c: float) -> float:
    """Social welfare of the symmetric profile (c, ..., c, s), written out
    from the model's utilities."""
    n = p["n"]
    total = (
        -p["alpha"] * (s - p["x"]) ** 2
        - p["beta"] * n * (p["w"] - c) ** 2
        - (p["gamma"] + p["zeta"]) * n * (s - c) ** 2
        + p["r_d"] * n
    )
    if p["r_s"] != p["r_d"]:
        total += n * (p["r_s"] - p["r_d"]) * (c - p["d"]) / (s - p["d"])
    return total


def check_rows(argv: list, code: int, text: str, reference: dict) -> list:
    """Problems with an ``analyze``/``sweep`` output; empty when correct."""
    if code != reference["exit"]:
        return [f"exit code {code}, expected {reference['exit']}"]
    try:
        got, want = rows_of(argv, text), rows_of(argv, reference["output"])
    except (ValueError, IndexError) as exc:
        return [f"unparseable output: {exc}"]
    if len(got) != len(want):
        return [f"{len(got)} rows, expected {len(want)}"]
    problems = []
    if "json" not in argv:
        again = io.StringIO()
        emit_csv(parse_csv(text), again)
        if again.getvalue() != text:
            problems.append("CSV does not round-trip through parse_csv")
    for i, (g, w) in enumerate(zip(got, want)):
        if set(g) != set(w):
            problems.append(f"row {i}: columns {sorted(g)}")
            continue
        for key in w:
            same = g[key] == w[key] if key in EXACT_KEYS else _close(g[key], w[key])
            if not same:
                problems.append(f"row {i}: {key} = {g[key]!r}, expected {w[key]!r}")
        if g["sw_max"] is None:
            continue
        p = _params(argv, g)
        for flag, s_key, c_key in (("star_admissible", "a", "c_star"), ("dagger_admissible", "b", "c_dagger")):
            if g[flag]:
                at_eq = _welfare(p, g[s_key], g[c_key])
                if g["sw_max"] < at_eq - REL_TOL * max(1.0, abs(at_eq)):
                    problems.append(f"row {i}: sw_max {g['sw_max']!r} below welfare {at_eq!r} at {c_key}")
    return problems


def check_oracle(code: int, text: str, reference: dict) -> list:
    """Problems with an ``oracle-check`` output; empty when correct."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    lines, want = text.splitlines(), reference["output"].splitlines()
    problems += [f"check failed: {ln}" for ln in lines if not ln.startswith("[PASS] ")]
    names = [ln.split(":")[0] for ln in lines]
    if names != [ln.split(":")[0] for ln in want]:
        problems.append(f"checks {names}, expected {[ln.split(':')[0] for ln in want]}")
    elif lines:
        got_gap, want_gap = GAP.search(lines[0]), GAP.search(want[0])
        if got_gap is None or got_gap.group(2) != want_gap.group(2) or not (
            abs(float(got_gap.group(1)) - float(want_gap.group(1)))
            <= ABS_TOL + 1e-2 * float(want_gap.group(1))
        ):
            problems.append(f"grid agreement line {lines[0]!r}, expected {want[0]!r}")
    return problems
