"""Golden sweeps: the CLI output of the README's three ``fig1`` sweeps and
of seeded ``r_s`` and ``n`` sweeps, recorded by ``data/record_golden.py``,
must stay byte for byte the same, and every row a sweep computes in one
batch must equal ``run_single`` on the same point."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from advisorgame.cli import PARAM_KEYS, build_params, main, make_parser, run_single, run_sweep

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
MANIFEST = json.loads((GOLDEN / "sweeps.json").read_text(encoding="utf-8"))
SEEDED = sorted(name for name in MANIFEST if not name.startswith("fig1"))


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_sweep_output_is_byte_identical(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(MANIFEST[name]["argv"])
    assert code == MANIFEST[name]["exit"]
    assert out.getvalue() == (GOLDEN / name).read_text(encoding="utf-8")


def test_seeded_sweeps_cover_the_edge_rows():
    flags = {row["flags"] for name in SEEDED for row in _sweep(name)[2]}
    assert {"error:r_s", "error:n"} <= flags
    points = [point for name in SEEDED for _, point in _points(name)]
    assert any(p["r_s"] == p["r_d"] for p in points)
    assert any(p["x"] == p["d"] for p in points)
    assert max(p["n"] for p in points) == 1000


@pytest.mark.parametrize("name", SEEDED)
def test_batched_rows_match_single_analysis(name):
    for row, point in _points(name):
        assert row == run_single(build_params(point), value=row["value"])


def _sweep(name):
    """(base values, swept parameter, rows) of a golden sweep."""
    args = make_parser().parse_args(MANIFEST[name]["argv"])
    values = {key: getattr(args, key) for key in PARAM_KEYS if getattr(args, key) is not None}
    lo, hi, steps = args.sweep_range.split(":")
    return values, args.param, run_sweep(values, args.param, float(lo), float(hi), int(steps))


def _points(name):
    """Each valid row of a golden sweep with the point it was computed at."""
    values, param, rows = _sweep(name)
    for row in rows:
        if not row["flags"].startswith("error:"):
            value = row["value"]
            yield row, dict(values, **{param: int(round(value)) if param == "n" else value})
