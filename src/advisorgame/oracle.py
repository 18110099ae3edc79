"""Independent brute-force verifiers.

Everything here re-derives results straight from the utility definitions:
a grid search for the welfare optimum, iterated best responses as a
dynamics simulator, and random-deviation checks of the Nash property.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import DegenerateDenominator, GridTooLarge, InvalidParameter
from .model import (
    advisor_best_response,
    advisor_utility,
    customer_best_response,
    customer_utility,
)
from .params import EPS_DEN, HeterogeneousParams, ModelParams, OpinionProfile

MAX_GRID_POINTS = 100_000_000
HETERO_MAX_N = 3


@dataclass(frozen=True)
class GridSpec:
    """Step size for the brute-force welfare grid."""

    resolution: float

    def __post_init__(self):
        if not (1e-4 <= self.resolution <= 1e-1):
            raise InvalidParameter(
                "resolution", f"must lie in [1e-4, 1e-1], got {self.resolution!r}"
            )


@dataclass(frozen=True)
class DynamicsTrace:
    iterates: Tuple[OpinionProfile, ...]
    converged: bool
    fixed_point: Optional[OpinionProfile]
    iterations_used: int


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    if hi <= lo:
        return np.array([lo])
    vals = np.arange(lo, hi + step * 0.5, step)
    if vals[-1] < hi - 1e-15:
        vals = np.append(vals, hi)
    else:
        vals[-1] = hi
    return vals


def _grid_homogeneous(p: ModelParams, res: float):
    """Symmetric-slice grid (all customers equal) plus exact face lines.

    For fixed s the welfare is separable and strictly concave in each
    c_i with identical coefficients, so its maximizer over the customers
    is always symmetric; the 2-D slice therefore contains the optimum.
    """
    s_axis = _axis(p.d, 1.0, res)
    c_axis = s_axis.copy()
    count = len(s_axis) * len(c_axis)
    if count > MAX_GRID_POINTS:
        raise GridTooLarge(f"{count} grid points exceed the {MAX_GRID_POINTS} budget")

    s = s_axis[None, :]
    c = c_axis[:, None]
    mask = c <= s + 1e-15
    gap = s - p.d
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(gap > EPS_DEN, (c - p.d) / np.where(gap > EPS_DEN, gap, 1.0), 0.0)
    # At c = s the interpolated return is exactly r_s, also in the s -> d corner.
    frac = np.where(np.abs(c - s) <= 1e-15, 1.0, frac)
    u_cl = p.r_d + frac * (p.r_s - p.r_d) - p.zeta * (s - c) ** 2
    u_a = (
        -p.alpha * (s - p.x) ** 2
        - p.beta * p.n * (p.w - c) ** 2
        - p.gamma * p.n * (s - c) ** 2
    )
    sw = np.where(mask, u_a + p.n * u_cl, -np.inf)
    i, j = np.unravel_index(int(np.argmax(sw)), sw.shape)
    best = OpinionProfile.uniform(float(c_axis[i]), float(s_axis[j]), p.n)
    return best, float(sw[i, j])


def _grid_heterogeneous(p: HeterogeneousParams, res: float):
    if p.n > HETERO_MAX_N:
        raise GridTooLarge(f"heterogeneous grids support n <= {HETERO_MAX_N}, got {p.n}")
    d_max = max(p.d_i)
    s_axis = _axis(d_max, 1.0, res)
    c_axes = [_axis(d, 1.0, res) for d in p.d_i]
    count = len(s_axis) * int(np.prod([len(a) for a in c_axes]))
    if count > MAX_GRID_POINTS:
        raise GridTooLarge(f"{count} grid points exceed the {MAX_GRID_POINTS} budget")

    best_val = -np.inf
    best_point = None
    # Broadcast all customer axes against each other for every s.
    shaped = [a.reshape((-1,) + (1,) * (p.n - 1 - k)) for k, a in enumerate(c_axes)]
    for s in s_axis:
        u = -p.alpha * (s - p.x) ** 2
        total = np.array(u)
        feasible = np.array(True)
        for k, c in enumerate(shaped):
            gap = s - p.d_i[k]
            if gap > EPS_DEN:
                frac = (c - p.d_i[k]) / gap
            else:
                frac = np.where(np.abs(c - s) <= 1e-15, 1.0, np.nan)
            u_cl = p.r_d_i[k] + frac * (p.r_s - p.r_d_i[k]) - p.zeta * (s - c) ** 2
            total = total + u_cl - p.beta * (p.w - c) ** 2 - p.gamma * (s - c) ** 2
            feasible = feasible & (c <= s + 1e-15)
        total = np.where(feasible & ~np.isnan(total), total, -np.inf)
        idx = int(np.argmax(total))
        if total.flat[idx] > best_val:
            best_val = float(total.flat[idx])
            multi = np.unravel_index(idx, total.shape)
            best_point = OpinionProfile(
                c=tuple(float(c_axes[k][multi[k]]) for k in range(p.n)), s=float(s)
            )
    return best_point, best_val


def grid_max_welfare(params, grid: GridSpec):
    """Exhaustive welfare search on a grid restricted to the feasible set.

    Returns (profile, value). The best grid point is within a
    Lipschitz-bound slack of the true optimum for the given resolution
    (see :func:`lipschitz_bound`).
    """
    if isinstance(params, HeterogeneousParams):
        return _grid_heterogeneous(params, grid.resolution)
    return _grid_homogeneous(params, grid.resolution)


def lipschitz_bound(params, s_floor_gap: float = 0.05) -> float:
    """Sup-norm bound on the welfare gradient over {s - d >= s_floor_gap}.

    The bound covers the bulk of the feasible set; in the excluded strip
    near s = d the grid still contains the exact c = d and c = s lines,
    where the interpolation term is constant.
    """
    if isinstance(params, HeterogeneousParams):
        spread = max(abs(params.r_s - r) for r in params.r_d_i)
    else:
        spread = abs(params.r_s - params.r_d)
    n = params.n
    per_c = 2.0 * params.beta + 2.0 * (params.gamma + params.zeta) + spread / s_floor_gap
    per_s = (
        2.0 * params.alpha
        + 2.0 * (params.gamma + params.zeta) * n
        + n * spread / s_floor_gap
    )
    return n * per_c + per_s


def best_response_dynamics(
    params,
    start: OpinionProfile,
    max_iter: int = 100_000,
    tol: float = 1e-9,
    simultaneous: bool = False,
) -> DynamicsTrace:
    """Iterated best responses, advisor first (or simultaneous updates).

    The game defines no canonical dynamics; this is one natural choice.
    Stops on a sup-distance between successive iterates below ``tol``.
    """
    if isinstance(params, HeterogeneousParams):
        slices = [params.customer(i) for i in range(params.n)]
    else:
        slices = [params.customer()] * params.n
    d_max = max(sl.d for sl in slices)
    if start.s - d_max <= EPS_DEN:
        raise DegenerateDenominator("starting stated opinion is at or below max d_i")

    iterates: List[OpinionProfile] = [start]
    current = start
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        s_new = advisor_best_response(params, current.c)
        if simultaneous:
            c_src = current.s
        else:
            c_src = s_new
        for sl in slices:
            if abs(c_src - sl.d) <= EPS_DEN:
                raise DegenerateDenominator(
                    f"iterate drove s = {c_src} within {EPS_DEN} of d_i = {sl.d}"
                )
        c_new = tuple(customer_best_response(sl, c_src) for sl in slices)
        nxt = OpinionProfile(c=c_new, s=s_new)
        dist = max(
            abs(nxt.s - current.s),
            max(abs(a - b) for a, b in zip(nxt.c, current.c)),
        )
        iterates.append(nxt)
        current = nxt
        if dist <= tol:
            converged = True
            break
    return DynamicsTrace(
        iterates=tuple(iterates),
        converged=converged,
        fixed_point=current if converged else None,
        iterations_used=iterations,
    )


def perturbation_check(
    params,
    q: OpinionProfile,
    trials: int,
    seed: int = 0,
    improvement_tol: float = 1e-9,
) -> bool:
    """Direct Nash check: no unilateral random deviation may improve a player.

    ``trials`` random deviations are drawn per player; trials = 0 is
    vacuously true and flagged with a warning. Deterministic for a
    fixed seed.
    """
    if trials <= 0:
        warnings.warn("trials <= 0: the Nash check is vacuous", RuntimeWarning)
        return True
    rng = np.random.default_rng(seed)
    if isinstance(params, HeterogeneousParams):
        slices = [params.customer(i) for i in range(params.n)]
    else:
        slices = [params.customer()] * params.n

    base_a = advisor_utility(params, q)
    for s_dev in rng.uniform(0.0, 1.0, size=trials):
        if advisor_utility(params, OpinionProfile(q.c, s_dev)) > base_a + improvement_tol:
            return False
    for i, sl in enumerate(slices):
        base_i = customer_utility(sl, q.c[i], q.s)
        for c_dev in rng.uniform(sl.d, max(q.s, sl.d), size=trials):
            if customer_utility(sl, c_dev, q.s) > base_i + improvement_tol:
                return False
    return True
