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
    advisor_utilities,
    advisor_utility,
    customer_best_response,
    customer_utility,
)
from .params import EPS_DEN, HeterogeneousParams, ModelParams, OpinionProfile

MAX_GRID_POINTS = 100_000_000
# Columns of the s axis per block of the homogeneous grid; 16 to 64 are
# about equally fast, much wider blocks fall out of cache.
GRID_BLOCK = 32
# Cells of one (deviation x customer) array in the Nash deviation check.
DEVIATION_CELLS = 1 << 16
HETERO_MAX_N = 3
# A deviation must gain more than this to break the Nash property.
IMPROVEMENT_TOL = 1e-9
# The dynamics stop when successive iterates are this close (sup-distance).
DYNAMICS_TOL = 1e-9
# lipschitz_bound covers the feasible points with s - d at least this.
S_FLOOR_GAP = 0.05


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


def _one_coordinate_terms(p: ModelParams, axis: np.ndarray):
    """The welfare terms of the grid that depend on s or on c alone, and
    the rounding slack of the row bounds, or None when they are not used.

    Returns ``(s_term, c_term, slack)`` with s_term = -alpha (s - x)^2 and
    c_term = beta n (w - c)^2 over ``axis``. Every intermediate of a cell
    is at most ``scale`` in magnitude, so each of its roughly ten roundings
    errs by at most about 1.1e-16 * scale, and slack = 1e-12 * scale
    leaves a margin of about 1 000x over their sum. The bounds are unused,
    and every row is evaluated, unless 1e-300 < scale < 1e300: above,
    cells may overflow to inf or NaN; below, a subnormal intermediate errs
    by up to 2.5e-324 whatever its size, which the slack no longer covers.
    """
    s_term = -p.alpha * (axis - p.x) ** 2
    c_term = p.beta * p.n * (p.w - axis) ** 2
    # Python floats, which overflow to inf without a warning; a NaN scale
    # fails the test too.
    scale = (
        float(np.max(np.abs(s_term)))
        + float(np.max(c_term))
        + (p.gamma + p.zeta) * p.n
        + p.n * (abs(p.r_d) + abs(p.r_s - p.r_d))
    )
    slack = 1e-12 * scale if 1e-300 < scale < 1e300 else None
    return s_term, c_term, slack


def _row_bounds(p: ModelParams, s_term, c_term, c_gap, s_gap, axis, j0: int, j1: int, rows: int,
                slack: float):
    """Upper bound on the rounded welfare of every feasible cell of each
    row c_i (i < rows) over the columns j0 <= j < j1 of the grid:

        U_i = max_j s_term_j - c_term_i
              - (gamma + zeta) n max(0, s_j0 - c_i)^2 + n R_i + slack.

    ``c_gap`` and ``s_gap`` are the grid's arrays (c - d, and s - d with 1
    on the columns s - d <= EPS_DEN); a cell's return is
    r_d + frac (r_s - r_d) with frac = c_gap_i / s_gap_j.

    When r_s < r_d, R_i = r_d + f_i (r_s - r_d) with
    f_i = min(1, c_gap_i / s_gap_{j1-1}), and f_i is at most the frac of
    every feasible cell of row i in the block: s_gap_j <= s_gap_{j1-1} on
    the columns s - d > EPS_DEN, and rounded division by a larger divisor
    is no larger; the c = s override sets frac = 1 >= f_i; and a column
    s - d <= EPS_DEN, where frac = 0 off the diagonal, is the s = d column
    or the last of a two-point axis [d, 1] (the axis steps by at least
    1e-4), so its only feasible row off the diagonal is c = d, where c_gap
    is exactly 0. n R_i is computed in the cell's order (times r_s - r_d,
    plus r_d, times n), so by monotone rounding it is no smaller than the
    cell's return term; the cell's -zeta (s - c)^2 only lowers that.

    When r_s >= r_d, R_i = max(r_d, r_s): a feasible cell has frac <= 1,
    since c <= s gives c - d <= s - d.

    Every s of the block is at least s_j0, so s - c >= max(0, s_j0 - c_i)
    and the penalty -(gamma + zeta) n (s - c)^2 is at most the bound's;
    rounding is monotone, so the cell's square is no smaller than the
    bound's. ``slack`` covers the remaining roundings (see
    _one_coordinate_terms).
    """
    short = axis[j0] - axis[:rows]
    np.maximum(short, 0.0, out=short)
    penalty = np.multiply(np.square(short, out=short), (p.gamma + p.zeta) * p.n, out=short)
    if p.r_s < p.r_d:
        ret = np.minimum(c_gap[:rows] / s_gap[j1 - 1], 1.0)
        ret *= p.r_s - p.r_d
        ret += p.r_d
        ret *= p.n
        ret += slack
    else:
        ret = p.n * max(p.r_d, p.r_s) + slack
    bound = (np.max(s_term[j0:j1]) + ret) - c_term[:rows]
    bound -= penalty
    return bound


def _grid_homogeneous(p: ModelParams, res: float):
    """Symmetric-slice grid (all customers equal) plus exact face lines.

    For fixed s the welfare is separable and strictly concave in each
    c_i with identical coefficients, so its maximizer over the customers
    is always symmetric; the 2-D slice therefore contains the optimum.

    The s axis is streamed in blocks of ``GRID_BLOCK`` columns, and each
    block evaluates only the rows that can satisfy c <= s, so memory is
    set by the block width, not by the grid. Every cell is computed with
    the same operations, in the same order, as the dense s x c array, and
    the winner is the dense array's first maximum in C order (smallest c
    index, then smallest s index), so profile and value are bit-identical.

    Blocks are visited in descending order of their largest row bound
    (_row_bounds). When r_s < r_d, a row's return term is bounded through
    its smallest interpolation fraction in the block rather than by
    n max(r_d, r_s), which only the c = d row reaches; most blocks then
    fall below the best cell and are never evaluated. A block evaluates
    only the contiguous range of rows whose bound reaches the best cell
    value found so far. A skipped row's cells all lie below a cell already
    found, so none of them can be the dense argmax or tie with it, and the
    per-block bests, put back in block order, give the dense winner. When
    the bounds are unused (see _one_coordinate_terms) every row of every
    block is evaluated.
    """
    axis = _axis(p.d, 1.0, res)  # both the s and the c axis
    count = len(axis) * len(axis)
    if count > MAX_GRID_POINTS:
        raise GridTooLarge(f"{count} grid points exceed the {MAX_GRID_POINTS} budget")

    # Terms that depend on one coordinate only, computed once; c - d and
    # s - d are the same vector because the axes coincide.
    s_term, c_term, slack = _one_coordinate_terms(p, axis)
    c_gap = axis - p.d
    s_ok = c_gap > EPS_DEN
    s_gap = np.where(s_ok, c_gap, 1.0)

    starts = range(0, len(axis), GRID_BLOCK)
    ends = [min(j0 + GRID_BLOCK, len(axis)) for j0 in starts]
    # Rows past the last c <= max(s) + 1e-15 of a block are all masked out.
    row_ends = np.searchsorted(axis, axis[np.array(ends) - 1] + 1e-15, side="right")
    order = range(len(starts))
    if slack is not None:
        tops, lows = [], []
        for j0, j1, rows in zip(starts, ends, row_ends):
            bound = _row_bounds(p, s_term, c_term, c_gap, s_gap, axis, j0, j1, rows, slack)
            tops.append(bound.max())
            lows.append(bound.min())
        order = np.argsort(np.negative(tops), kind="stable")

    best_val = np.full(len(starts), -np.inf)
    best_i = np.zeros(len(starts), dtype=int)
    best_j = np.zeros(len(starts), dtype=int)
    incumbent = -np.inf
    for b in order:
        j0, j1, rows = starts[b], ends[b], int(row_ends[b])
        lo = 0
        if slack is not None:
            if tops[b] < incumbent:
                break  # so are the bounds of every block after it
            # When even the lowest row bound reaches the incumbent, the
            # whole block is kept without recomputing its bounds.
            if lows[b] < incumbent:
                bound = _row_bounds(p, s_term, c_term, c_gap, s_gap, axis, j0, j1, rows, slack)
                keep = np.flatnonzero(bound >= incumbent)
                lo, rows = int(keep[0]), int(keep[-1]) + 1
        s = axis[j0:j1]
        # Rows below ``near`` lie more than 1e-14 below every s of the
        # block, so neither the c = s test nor the mask can hold there.
        near = max(int(np.searchsorted(axis, s[0] - 1e-14)) - lo, 0)
        c = axis[lo:rows, None]
        s_c = s - c
        frac = c_gap[lo:rows, None] / s_gap[j0:j1]
        frac[:, ~s_ok[j0:j1]] = 0.0
        # At c = s the interpolated return is exactly r_s, also in the s -> d corner.
        frac[near:][np.abs(s_c[near:]) <= 1e-15] = 1.0
        # In place from here on; + and * commute exactly, so each line is
        # the dense expression's operation on the same operands.
        sq = np.square(s_c, out=s_c)
        frac *= p.r_s - p.r_d
        frac += p.r_d
        penalty = p.zeta * sq
        frac -= penalty  # u_cl = r_d + frac (r_s - r_d) - zeta (s - c)^2
        sw = s_term[j0:j1] - c_term[lo:rows, None]
        sw -= np.multiply(sq, p.gamma * p.n, out=penalty)  # u_a
        frac *= p.n
        sw += frac  # u_a + n u_cl
        sw[near:][c[near:] > s + 1e-15] = -np.inf
        i, j = np.unravel_index(int(np.argmax(sw)), sw.shape)
        best_val[b], best_i[b], best_j[b] = sw[i, j], lo + i, j0 + j
        incumbent = max(incumbent, sw[i, j])

    # The dense argmax: a NaN wins, else the largest value; ties go to
    # the smallest c index, then to the earliest block.
    top = best_val[np.argmax(best_val)]
    tied = np.isnan(best_val) if np.isnan(top) else best_val == top
    k = int(np.argmin(np.where(tied, best_i, len(axis))))
    best = OpinionProfile.uniform(float(axis[best_i[k]]), float(axis[best_j[k]]), p.n)
    return best, float(best_val[k])


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


def lipschitz_bound(params) -> float:
    """Sup-norm bound on the welfare gradient over {s - d >= S_FLOOR_GAP}.

    The bound covers the bulk of the feasible set; in the excluded strip
    near s = d the grid still contains the exact c = d and c = s lines,
    where the interpolation term is constant.
    """
    if isinstance(params, HeterogeneousParams):
        spread = max(abs(params.r_s - r) for r in params.r_d_i)
    else:
        spread = abs(params.r_s - params.r_d)
    n = params.n
    per_c = 2.0 * params.beta + 2.0 * (params.gamma + params.zeta) + spread / S_FLOOR_GAP
    per_s = (
        2.0 * params.alpha
        + 2.0 * (params.gamma + params.zeta) * n
        + n * spread / S_FLOOR_GAP
    )
    return n * per_c + per_s


def best_response_dynamics(params, start: OpinionProfile, max_iter: int = 100_000) -> DynamicsTrace:
    """Iterated best responses, advisor first, then every customer to the
    advisor's new stated opinion.

    The game defines no canonical dynamics; this is one natural choice.
    Stops on a sup-distance between successive iterates of at most
    ``DYNAMICS_TOL``.
    """
    slices = params.customers()
    d_max = max(sl.d for sl in slices)
    if start.s - d_max <= EPS_DEN:
        raise DegenerateDenominator("starting stated opinion is at or below max d_i")

    iterates: List[OpinionProfile] = [start]
    current = start
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        s_new = advisor_best_response(params, current.c)
        for sl in slices:
            if abs(s_new - sl.d) <= EPS_DEN:
                raise DegenerateDenominator(
                    f"iterate drove s = {s_new} within {EPS_DEN} of d_i = {sl.d}"
                )
        c_new = tuple(customer_best_response(sl, s_new) for sl in slices)
        nxt = OpinionProfile(c=c_new, s=s_new)
        dist = max(
            abs(nxt.s - current.s),
            max(abs(a - b) for a, b in zip(nxt.c, current.c)),
        )
        iterates.append(nxt)
        current = nxt
        if dist <= DYNAMICS_TOL:
            converged = True
            break
    return DynamicsTrace(
        iterates=tuple(iterates),
        converged=converged,
        fixed_point=current if converged else None,
        iterations_used=iterations,
    )


def perturbation_check(params, q: OpinionProfile, trials: int, seed: int = 0) -> bool:
    """Direct Nash check: no unilateral random deviation may improve a player.

    ``trials`` random deviations are drawn per player; trials = 0 is
    vacuously true and flagged with a warning. Deterministic for a
    fixed seed.
    """
    if trials <= 0:
        warnings.warn("trials <= 0: the Nash check is vacuous", RuntimeWarning)
        return True
    rng = np.random.default_rng(seed)
    base_a = advisor_utility(params, q)
    s_dev = rng.uniform(0.0, 1.0, size=trials)
    # Chunks of deviations keep the (deviation x customer) array small.
    step = max(1, DEVIATION_CELLS // len(q.c))
    for k in range(0, trials, step):
        if np.any(advisor_utilities(params, q.c, s_dev[k : k + step]) > base_a + IMPROVEMENT_TOL):
            return False
    for i, sl in enumerate(params.customers()):
        base_i = customer_utility(sl, q.c[i], q.s)
        c_dev = rng.uniform(sl.d, max(q.s, sl.d), size=trials)
        if np.any(customer_utility(sl, c_dev, q.s) > base_i + IMPROVEMENT_TOL):
            return False
    return True
