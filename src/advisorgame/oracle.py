"""Independent brute-force verifiers.

Everything here re-derives results straight from the utility definitions:
a grid search for the welfare optimum, iterated best responses as a
dynamics simulator, and a check of the Nash property on a seeded lattice
of unilateral deviations.
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
# Cells per pass over whole columns of the homogeneous grid; bounds its
# temporaries where every row of many columns is evaluated.
GRID_PASS = 1 << 14
# Cells of one (deviation x customer) array in the Nash deviation check.
DEVIATION_CELLS = 1 << 16
# Fibonacci hashing: the seed times 2**64 / golden ratio, mod 2**64, spreads
# consecutive seeds evenly over the lattice offsets of the deviation check.
FIBONACCI_MULTIPLIER = 0x9E3779B97F4A7C15
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
    the rounding slack of the column tops and windows, or None when they
    are not used.

    Returns ``(s_term, c_term, slack)`` with s_term = -alpha (s - x)^2 and
    c_term = beta n (w - c)^2 over ``axis``. Every intermediate of a cell
    is at most ``scale`` in magnitude, so each of its roughly ten roundings
    errs by at most about 1.1e-16 * scale, and slack = 1e-12 * scale
    leaves a margin of about 1 000x over their sum. The tops and windows
    are unused, and every cell is evaluated, unless 1e-300 < scale <
    1e300: above, cells may overflow to inf or NaN; below, a subnormal
    intermediate errs by up to 2.5e-324 whatever its size, which the
    slack no longer covers.
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


def _column_tops(p: ModelParams, s_term, axis, slack: float):
    """Upper bound on the rounded welfare of the feasible cells (rows
    i <= j) of every column j, and its vertex row: the first row at or
    above the vertex of the column's quadratic.

    Where s_j - d > EPS_DEN, each cell is within ``slack`` of f_j(c_i),
    for the concave quadratic

        f_j(c) = s_term_j + n (r_d + k_j (c - d)) - beta n (w - c)^2
                 - (gamma + zeta) n (s_j - c)^2,   k_j = (r_s - r_d) / (s_j - d),

    as the c = s override sets frac = 1 only on the diagonal, where the
    quotient is 1 already. The top is +inf on the other columns (s = d,
    and the last of a two-point axis [d, 1]) and wherever it is not finite.

    f_j lies below its tangent at any c, which on [d, s_j] is largest at
    an end. So the top is f_j(c) + max(f_j'(c) (d - c), f_j'(c) (s_j - c))
    + 2 slack, at c the vertex clamped to [d, s_j], where it is tight; one
    slack covers the cells, the other the top's own roundings. Every
    intermediate is at most 4 scale in magnitude (see
    _one_coordinate_terms): |n k_j (c - d)| <= n |r_s - r_d|; (w - c)^2
    and |w - c| |c - d| are at most twice the larger (w - c)^2 at c = d
    and c = s_j; and |s_j - c| <= 1. So the roughly 20 roundings err by
    at most about 1e-14 scale, which the slack covers some 100 times.
    """
    bn, gn = p.beta * p.n, (p.gamma + p.zeta) * p.n
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k = (p.r_s - p.r_d) / (axis - p.d)
        c = (0.5 * k + p.beta * p.w + (p.gamma + p.zeta) * axis) / (p.beta + p.gamma + p.zeta)
        # fmax and fmin take d for a NaN vertex, so every row is at most j.
        c = np.fmin(np.fmax(c, p.d), axis)
        value = s_term + slack + p.n * (p.r_d + k * (c - p.d))
        value -= bn * np.square(p.w - c) + gn * np.square(axis - c)
        k *= p.n  # the slope, in place
        k += 2.0 * (bn * (p.w - c) + gn * (axis - c))
        value += np.maximum(k * (p.d - c), k * (axis - c))
    value += slack
    value[~np.isfinite(value) | (axis - p.d <= EPS_DEN)] = np.inf
    return value, np.searchsorted(axis, c)


def _cells(p: ModelParams, s_term, c_term, axis, rows, cols):
    """The rounded welfare of the grid cells (c_rows, s_cols), for index
    arrays that broadcast together, and -inf off the feasible set
    c <= s + 1e-15.

    Every cell is computed with the same operations, in the same order,
    as the dense s x c array, so each value is bit-identical to it.
    """
    c, s = axis[rows], axis[cols]
    off = c > s + 1e-15
    gap = s - p.d
    gap[gap <= EPS_DEN] = np.inf  # so frac is 0 there, as in the dense array
    frac = (c - p.d) / gap
    s_c = s - c
    # The seeds gather a row and a column for every column of the grid;
    # dropping them here keeps at most five such arrays alive.
    del c, s, gap
    # At c = s the interpolated return is exactly r_s, also in the s -> d corner.
    frac[np.abs(s_c) <= 1e-15] = 1.0
    # In place from here on; + and * commute exactly, so each line is
    # the dense expression's operation on the same operands.
    sq = np.square(s_c, out=s_c)
    frac *= p.r_s - p.r_d
    frac += p.r_d
    penalty = p.zeta * sq
    frac -= penalty  # u_cl = r_d + frac (r_s - r_d) - zeta (s - c)^2
    sw = np.subtract(s_term[cols], c_term[rows], out=penalty)
    sw -= np.multiply(sq, p.gamma * p.n, out=sq)  # u_a
    frac *= p.n
    sw += frac  # u_a + n u_cl
    sw[off] = -np.inf
    return sw


def _first_max(sw, rows, cols, width: int):
    """The dense argmax among the cells ``sw`` at the grid indices
    (rows, cols), which broadcast to its shape, as (value, row, column):
    a NaN first, else the largest value; ties go to the smallest c index,
    then to the smallest s index, as in C order."""
    tied = np.isnan(sw)
    if not tied.any():
        tied = sw == np.max(sw)
    at = np.unravel_index(np.flatnonzero(tied), sw.shape)
    i, j = np.broadcast_to(rows, sw.shape)[at], np.broadcast_to(cols, sw.shape)[at]
    k = int(np.argmin(i * width + j))
    return sw[at][k], i[k], j[k]


def _grid_homogeneous(p: ModelParams, res: float):
    """Symmetric-slice grid (all customers equal) plus exact face lines.

    For fixed s the welfare is separable and strictly concave in each
    c_i with identical coefficients, so its maximizer over the customers
    is always symmetric; the 2-D slice therefore contains the optimum.

    Profile and value are the dense s x c array's, bit for bit: each cell
    is computed with the dense operations (_cells), and the winner is the
    dense argmax (_first_max). Column j's feasible cells are its rows
    i <= j: the axis steps by at least 1e-4, and _axis appends its last
    point 1 only when the point before lies below fl(1 - 1e-15) =
    1 - 9 ulp; adding 1e-15 (9.007 ulp) to a point at least 10 ulp below
    1 rounds below 1, so every later row lies above s_j + 1e-15.

    Only cells below a cell already evaluated are skipped, so none can be
    the argmax or tie with it. Column by column (see _column_tops):
    - seed: the cell at the vertex row; the columns whose top lies below
      the best seed are skipped;
    - window: the five rows around the vertex row. The column's cells are
      values of a concave quadratic, within ``slack``: if the lowest two
      rise by more than 2 slack, so does the quadratic, so every lower row
      is at most the lowest + 2 slack, below the second lowest, and is
      skipped; the same holds above. Columns of up to five rows, among
      them the two without a quadratic, need no such test;
    - whole: each column that fails the test and whose top reaches the
      best cell, in passes of at most GRID_PASS cells.
    The vertex is only a hint: a wrong one costs time, never the answer.
    Without a slack (see _one_coordinate_terms) every column is whole.
    """
    axis = _axis(p.d, 1.0, res)  # both the s and the c axis
    count = len(axis) * len(axis)
    if count > MAX_GRID_POINTS:
        raise GridTooLarge(f"{count} grid points exceed the {MAX_GRID_POINTS} budget")

    # Terms that depend on one coordinate only, computed once.
    s_term, c_term, slack = _one_coordinate_terms(p, axis)
    found = []  # the winner of each pass

    def evaluate(rows, cols):
        sw = _cells(p, s_term, c_term, axis, rows, cols)
        found.append(_first_max(sw, rows, cols, len(axis)))
        return sw

    whole = np.arange(len(axis))
    if slack is not None:
        tops, hint = _column_tops(p, s_term, axis, slack)
        best = np.max(evaluate(hint, whole))
        # A NaN top compares below no cell, so its column is kept.
        j = np.flatnonzero(~(tops < best))
        lo = np.clip(hint[j] - 2, 0, np.maximum(j - 4, 0))
        sw = evaluate(np.minimum(lo[:, None] + np.arange(5), j[:, None]), j[:, None])
        best = max(best, np.max(sw))
        # Rounding is monotone, so a computed difference above 2 slack
        # means the exact one is.
        below = (lo == 0) | (sw[:, 1] - sw[:, 0] > 2 * slack)
        above = (lo + 4 >= j) | (sw[:, 3] - sw[:, 4] > 2 * slack)
        whole = j[~((below & above) | (tops[j] < best))]

    # A pass's rows stop at its last column, the largest: the columns ascend.
    width = max(1, GRID_PASS // len(axis))
    for k in range(0, len(whole), width):
        evaluate(np.arange(whole[k : k + width][-1] + 1)[:, None], whole[k : k + width])

    value, i, j = _first_max(*map(np.array, zip(*found)), len(axis))
    return OpinionProfile.uniform(float(axis[i]), float(axis[j]), p.n), float(value)


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


def _lattice(trials: int, seed: int) -> np.ndarray:
    """The fractions (k + u0) / trials, k = 0 .. trials - 1, of a player's
    interval at which the deviation check probes it. The offset u0 in
    [0, 1) is the top 53 bits of the seed's 64-bit Fibonacci hash, taken
    with integer arithmetic, so any non-negative int is a seed and u0 is
    exact."""
    u0 = (seed * FIBONACCI_MULTIPLIER % 2**64 >> 11) / 2**53
    return (np.arange(trials) + u0) / trials


def perturbation_check(params, q: OpinionProfile, trials: int, seed: int = 0) -> bool:
    """Direct Nash check: no unilateral deviation on a lattice may improve
    a player by more than ``IMPROVEMENT_TOL``.

    Each player is probed at ``trials`` evenly spaced points of its
    interval, [0, 1] for the advisor and [d_i, max(s, d_i)] for customer
    i, all shifted by the same seeded offset (see ``_lattice``). So every
    interval of profitable deviations longer than one spacing holds a
    probe, whatever the seed. Customers with the same parameters and
    opinion get the same probes and are checked once. trials <= 0 is
    vacuously true and flagged with a warning. Deterministic for a fixed
    seed.
    """
    if trials <= 0:
        warnings.warn("trials <= 0: the Nash check is vacuous", RuntimeWarning)
        return True
    fractions = _lattice(trials, seed)
    base_a = advisor_utility(params, q)
    # Chunks of deviations keep the (deviation x customer) array small.
    step = max(1, DEVIATION_CELLS // len(q.c))
    for k in range(0, trials, step):
        if np.any(advisor_utilities(params, q.c, fractions[k : k + step]) > base_a + IMPROVEMENT_TOL):
            return False
    # In order of first appearance, so the first error raised is unchanged.
    for sl, c_i in dict.fromkeys(zip(params.customers(), q.c)):
        base_i = customer_utility(sl, c_i, q.s)
        c_dev = sl.d + (max(q.s, sl.d) - sl.d) * fractions
        if np.any(customer_utility(sl, c_dev, q.s) > base_i + IMPROVEMENT_TOL):
            return False
    return True
