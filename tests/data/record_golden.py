"""Record the golden sweep outputs that ``tests/test_golden.py`` compares
byte for byte.

    python3 tests/data/record_golden.py

Writes ``golden/sweeps.json`` (each sweep's argv and exit code) and one
output file per sweep. The inputs are the three ``fig1`` sweeps of the
README and seeded ``r_s`` and ``n`` sweeps that cover n up to 1000, rows
with r_s == r_d, rows with x == d and ``error:<field>`` rows. Record only at
a commit whose outputs are trusted: recording after a change to the
numerical code would make the test compare the program with itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

from advisorgame.cli import PARAM_KEYS, main  # noqa: E402

GOLDEN = os.path.join(HERE, "golden")
SEED = 20190917
FIG1 = dict(d=0.1, x=0.4, w=0.5, n=1, alpha=0.05, beta=0.1, gamma=0.2, zeta=10.0, r_d=0.3, r_s=0.2)


def flags(values: dict, skip: str) -> list:
    return [arg for key in PARAM_KEYS if key != skip for arg in (f"--{key}", repr(values[key]))]


def draw(rng, n_choices) -> dict:
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


def sweeps() -> dict:
    """name -> argv of every golden sweep."""
    out = {
        "fig1-zeta.csv": ["sweep"] + flags(FIG1, "zeta") + ["--param", "zeta", "--range=10:25:151"],
        "fig1-gamma.json": ["sweep"] + flags(FIG1, "gamma")
        + ["--param", "gamma", "--range=0.05:0.223:30", "--format", "json"],
        "fig1-d.csv": ["sweep"] + flags(FIG1, "d") + ["--param", "d", "--range=-0.1:0.1:41"],
    }
    rng = np.random.default_rng(SEED)
    for k in range(10):
        base = draw(rng, (1, 2, 3, 10, 1000))
        if k % 3 == 1:
            base["x"] = base["d"]
        steps = 41
        # Every other range crosses 0 or 1 and gives error:r_s rows.
        lo = base["r_d"] - (0.5 if k % 2 else 0.2)
        hi = base["r_d"] + (0.5 if k % 2 else 0.2)
        # Put r_d on the sweep's grid, so that one row has r_s == r_d exactly.
        base["r_d"] = float(np.linspace(lo, hi, steps)[steps // 2])
        out[f"r_s-{k}.csv"] = ["sweep"] + flags(base, "r_s") + ["--param", "r_s", f"--range={lo!r}:{hi!r}:{steps}"]
    for k in range(10):
        base = draw(rng, (1,))
        if k % 3 == 1:
            base["x"] = base["d"]
        if k % 4 == 2:
            base["r_s"] = base["r_d"]
        lo = -3 if k % 2 else 1  # n < 1 gives error:n rows
        fmt = ["--format", "json"] if k % 5 == 4 else []
        name = f"n-{k}.{'json' if fmt else 'csv'}"
        out[name] = ["sweep"] + flags(base, "n") + ["--param", "n", f"--range={lo}:1000:25"] + fmt
    return out


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def record() -> None:
    os.makedirs(GOLDEN, exist_ok=True)
    manifest = {}
    for name, argv in sweeps().items():
        code, output = run(argv)
        manifest[name] = {"argv": argv, "exit": code}
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8") as fh:
            fh.write(output)
        print(f"{name}: exit {code}, {output.count(chr(10))} lines")
    with open(os.path.join(GOLDEN, "sweeps.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    record()
