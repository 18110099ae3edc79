"""Utility functions, best responses and social welfare.

Advisor utility:

    u_A = -alpha (s - x)^2 - beta sum_i (w - c_i)^2 - gamma sum_i (s - c_i)^2

Customer utility (per customer i):

    u_i = r_d_i + (c_i - d_i) / (s - d_i) * (r_s - r_d_i) - zeta (s - c_i)^2

The interpolation term divides by s - d_i; points with |s - d_i| below
``EPS_DEN`` are rejected rather than regularized, except in the
r_s == r_d_i case where the term is identically zero and the formula
extends continuously.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDenominator
from .params import EPS_DEN, ModelParams, OpinionProfile


def advisor_utilities(p, c, s) -> np.ndarray:
    """Advisor payoff at customer opinions ``c`` for each stated opinion
    in the 1-D array ``s``; memory is len(s) * len(c) floats."""
    c = np.asarray(c, dtype=float)
    s = np.asarray(s, dtype=float)
    return (
        -p.alpha * (s - p.x) ** 2
        - p.beta * np.sum((p.w - c) ** 2)
        - p.gamma * np.sum((s[:, None] - c) ** 2, axis=1)
    )


def advisor_utility(p, q: OpinionProfile) -> float:
    """Advisor payoff at profile ``q``; always <= 0."""
    return float(advisor_utilities(p, q.c, [q.s])[0])


def customer_utility(sl, c_i: float, s: float) -> float:
    """Payoff of one customer; ``sl`` is anything with d, r_d, r_s, zeta.

    Raises DegenerateDenominator at the s = d_i singularity (unless the
    returns coincide, in which case the singular term vanishes exactly).
    """
    dissonance = sl.zeta * (s - c_i) ** 2
    if sl.r_s == sl.r_d:
        return sl.r_d - dissonance
    if abs(s - sl.d) <= EPS_DEN:
        raise DegenerateDenominator(f"s = {s} is within {EPS_DEN} of d = {sl.d}")
    interp = (c_i - sl.d) / (s - sl.d) * (sl.r_s - sl.r_d)
    return sl.r_d + interp - dissonance


def advisor_best_response(p, c) -> float:
    """Utility-maximizing stated opinion given customer opinions ``c``."""
    c = np.asarray(c, dtype=float)
    return float((p.alpha * p.x + p.gamma * np.sum(c)) / (p.alpha + p.gamma * p.n))


def customer_best_response(sl, s: float) -> float:
    """Utility-maximizing opinion of one customer given stated opinion ``s``.

    The result is returned unclamped: values outside [d_i, s] are
    information for the admissibility analysis.
    """
    if abs(s - sl.d) <= EPS_DEN:
        raise DegenerateDenominator(f"s = {s} is within {EPS_DEN} of d = {sl.d}")
    return (sl.r_s - sl.r_d) / (2.0 * sl.zeta * (s - sl.d)) + s


def social_welfare(p: ModelParams, q: OpinionProfile) -> float:
    """Total utility of advisor plus all customers (homogeneous game)."""
    c = q.c_array()
    base = float(
        -p.alpha * (q.s - p.x) ** 2
        - p.beta * np.sum((p.w - c) ** 2)
        - (p.gamma + p.zeta) * np.sum((q.s - c) ** 2)
        + p.r_d * p.n
    )
    if p.r_s == p.r_d:
        return base
    if abs(q.s - p.d) <= EPS_DEN:
        raise DegenerateDenominator(f"s = {q.s} is within {EPS_DEN} of d = {p.d}")
    return base + (p.r_s - p.r_d) / (q.s - p.d) * float(np.sum(c - p.d))


def social_welfare_gradient(p: ModelParams, q: OpinionProfile) -> np.ndarray:
    """Analytic gradient (d/dc_1, ..., d/dc_n, d/ds) of the welfare."""
    c = q.c_array()
    s = q.s
    if p.r_s == p.r_d:
        slope, curve = 0.0, 0.0
    else:
        if abs(s - p.d) <= EPS_DEN:
            raise DegenerateDenominator(f"s = {s} is within {EPS_DEN} of d = {p.d}")
        slope = (p.r_s - p.r_d) / (s - p.d)
        curve = -(p.r_s - p.r_d) / (s - p.d) ** 2 * float(np.sum(c - p.d))
    g_c = 2.0 * p.beta * (p.w - c) + 2.0 * (p.gamma + p.zeta) * (s - c) + slope
    g_s = (
        -2.0 * p.alpha * (s - p.x)
        - 2.0 * (p.gamma + p.zeta) * float(np.sum(s - c))
        + curve
    )
    return np.concatenate([g_c, [g_s]])


def total_utility(params, q: OpinionProfile) -> float:
    """u_A + sum_i u_i, summed from the individual utilities.

    Works for both homogeneous and heterogeneous parameters; used as the
    definitional cross-check of :func:`social_welfare`.
    """
    total = advisor_utility(params, q)
    for sl, c_i in zip(params.customers(), q.c):
        total += customer_utility(sl, c_i, q.s)
    return total
