"""Per-layer spans, recorded from outside the program.

The layers are the package modules. The modules bind each other's
functions with ``from .x import y``, so a function is wrapped at every
module that holds it, not only where it is defined. Spans nest; a span's
self time is its duration minus the durations of the spans it directly
contains. Only per-name sums are kept, in memory.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

from workloads import grid_cells

ROOT = "cli.main"
TRACED = {
    "params": ("OpinionProfile.uniform",),
    "model": ("advisor_utility", "customer_utility", "social_welfare"),
    "equilibria": ("solve_quadratic", "nash_equilibria", "check_admissibility_regions", "critical_zeta"),
    "welfare": ("classify_quartic", "solve_quartic", "maximize_welfare"),
    "oracle": ("grid_max_welfare", "perturbation_check", "best_response_dynamics"),
    "cli": ("build_params", "run_single", "run_sweep", "emit_csv", "emit_json", "run_oracle_check"),
}
SPANS = (ROOT,) + tuple(f"{layer}.{name}" for layer, names in TRACED.items() for name in names)
COUNTERS = {"oracle.grid_max_welfare.cells": "cells/row", "oracle.best_response_dynamics.iterations_used": "1/row"}


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPANS}  # calls, total_s, self_s
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._children = []  # time covered by child spans, one entry per open span
        self._undo = []

    def call(self, name, fn, *args, **kwargs):
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stat = self.stats[name]
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - self._children.pop()
            if self._children:
                self._children[-1] += duration

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if name == "oracle.grid_max_welfare":
                params, grid = args
                self.counters["oracle.grid_max_welfare.cells"] += grid_cells(params.d, grid.resolution)
            elif name == "oracle.best_response_dynamics":
                self.counters["oracle.best_response_dynamics.iterations_used"] += result.iterations_used
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "advisorgame"]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"advisorgame.{layer}")
            for name in names:
                if "." in name:
                    cls_name, method = name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[method]
                    self._undo.append((cls, method, original))
                    setattr(cls, method, classmethod(self._wrap(f"{layer}.{name}", original.__func__)))
                    continue
                fn = getattr(home, name)
                traced = self._wrap(f"{layer}.{name}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._undo.append((module, attr, fn))
                            setattr(module, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def per_row(self, rows: int) -> dict:
        """Every span's calls, total and self time, and each layer's self
        time, divided by the output rows of the traced pass."""
        rows = max(rows, 1)
        metrics = {}
        layers = dict.fromkeys(TRACED, 0.0)
        for name, (calls, total, self_s) in self.stats.items():
            metrics[f"{name}.calls"] = (calls / rows, "1/row")
            metrics[f"{name}.total_s"] = (total / rows, "s/row")
            metrics[f"{name}.self_s"] = (self_s / rows, "s/row")
            layers[name.split(".")[0]] += self_s
        for layer, self_s in layers.items():
            metrics[f"layer.{layer}.self_s"] = (self_s / rows, "s/row")
        for name, unit in COUNTERS.items():
            metrics[name] = (self.counters[name] / rows, unit)
        return metrics
