"""The welfare kernel's interior roots: an exact sign-change certificate,
agreement with the companion-matrix roots of ``solve_quartic``, and CLI
output that needs no LAPACK call. Their row independence is tested in
``test_welfare.TestRowIndependence``."""

import contextlib
import io
import math
from fractions import Fraction

import numpy as np
import pytest

from advisorgame import EPS_DEN, solve_quartic
from advisorgame.batch import ParamBatch, RowErrors
from advisorgame.cli import main
from advisorgame.quartic import REAL_ROOT_IMAG_TOL, interior_root_arrays
from advisorgame.welfare import coefficient_arrays

from test_golden import MANIFEST, _sweep

FIG1 = ["--d", "0.1", "--x", "0.4", "--w", "0.5", "--n", "1", "--alpha", "0.05", "--beta", "0.1",
        "--gamma", "0.2", "--zeta", "10", "--r_d", "0.3", "--r_s", "0.2"]


def _fuzz(span, count=700, seed=2027):
    """Seeded points with weights 10^(+-span), a tenth with r_s == r_d."""
    rng = np.random.default_rng(seed + int(span))
    r_d = rng.uniform(0.0, 1.0, count)
    columns = dict(
        d=rng.uniform(0.0, 0.9, count), x=rng.uniform(0.0, 1.0, count), w=rng.uniform(0.0, 1.0, count),
        n=rng.choice([1.0, 2.0, 3.0, 10.0, 1000.0], count),
        alpha=10.0 ** rng.uniform(-span, span, count), beta=10.0 ** rng.uniform(-span, span, count),
        gamma=10.0 ** rng.uniform(-span, span, count), zeta=10.0 ** rng.uniform(-span, span, count),
        r_d=r_d, r_s=np.where(rng.uniform(size=count) < 0.1, r_d, rng.uniform(0.0, 1.0, count)))
    return ParamBatch(*columns.values())


def _golden_batch():
    """The valid rows of the 23 golden sweeps."""
    keys = ("d", "x", "w", "n", "alpha", "beta", "gamma", "zeta", "r_d", "r_s")
    points = [dict(values, **{param: row["value"]}) for name in MANIFEST
              for values, param, rows in [_sweep(name)] for row in rows if not row["flags"].startswith("error")]
    return ParamBatch(*np.array([[float(p[k]) for k in keys] for p in points]).T)


def _roots(P):
    omega = coefficient_arrays(P)
    errors = RowErrors()
    with np.errstate(all="ignore"):
        roots = interior_root_arrays(omega, 1.0 - P.d + 1e-15, errors)
    return omega, roots, errors


def _exact(omega, y):
    y = Fraction(y)
    return sum(Fraction(w) * y**k for k, w in enumerate(omega.tolist()))


BATCHES = {"goldens": _golden_batch, "span1": lambda: _fuzz(1), "span3": lambda: _fuzz(3),
           "span10": lambda: _fuzz(10)}


def _ulps_to_sign_change(omega, y, limit=64):
    """The least k such that the exact quartic vanishes at y or changes
    sign between y and its k-th neighbouring double on one side."""
    at = _exact(omega, y)
    if at == 0:
        return 0
    lo = hi = y
    for k in range(1, limit + 1):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        if any((_exact(omega, v) > 0) != (at > 0) for v in (lo, hi)):
            return k
    return math.inf


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_every_root_is_certified_by_a_sign_change(name):
    # The exact quartic of the same float coefficients, in rational
    # arithmetic, vanishes at each root or changes sign within one ulp of it.
    omega, roots, errors = _roots(BATCHES[name]())
    widths = [_ulps_to_sign_change(omega[i], roots[j, i].item())
              for i, j in zip(*np.nonzero(np.isfinite(roots.T)))]
    assert len(widths) > 50
    assert max(widths) <= 1, sorted(widths)[-5:]


@pytest.mark.parametrize("span", [1, 3, 10])
def test_roots_match_the_companion_matrix(span):
    P = _fuzz(span)
    omega, roots, errors = _roots(P)
    assert not errors.first
    top = 1.0 - P.d + 1e-15
    for i in range(len(P)):
        mine = sorted(v for v in roots[:, i].tolist() if v > EPS_DEN)
        theirs = sorted(r.real for r in solve_quartic(omega[i])
                        if abs(r.imag) <= REAL_ROOT_IMAG_TOL * (1.0 + abs(r.real)) and EPS_DEN < r.real <= top[i])
        assert len(mine) == len(theirs), i
        assert np.allclose(mine, theirs, rtol=1e-12, atol=0.0), i


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_cli_output_needs_no_lapack(monkeypatch):
    # r_s-6.csv row 3 is an interior optimum; the third point has r_s == r_d.
    values, param, rows = _sweep("r_s-6.csv")
    interior = next(row for row in rows if row["sw_location"] == "interior")
    point = [a for k, v in dict(values, **{param: interior["value"]}).items() for a in (f"--{k}", repr(v))]
    calls = [["analyze"] + FIG1, ["analyze"] + point,
             ["analyze"] + FIG1[:-2] + ["--r_s", "0.3"],
             ["sweep"] + FIG1[:-6] + ["--r_d", "0.3", "--r_s", "0.2", "--param", "zeta", "--range", "10:25:3"],
             ["oracle-check"] + FIG1]
    expected = [_run(argv) for argv in calls]

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    assert [_run(argv) for argv in calls] == expected
    assert all(code == 0 for code, _ in expected)
    assert "interior" in expected[1][1]
