"""Roots of the welfare quartic p(y) = w4 y^4 + w3 y^3 + w2 y^2 + w1 y + w0,
one quartic per row of an (rows, 5) array of coefficients w0 ... w4.

``interior_root_arrays`` finds the real roots that the welfare kernel
needs, those in (0, top], with +, -, * and / alone (no LAPACK call): each
lies in a grid cell where the quartic changes sign and has one convexity,
Newton's method reaches it from that cell's Fourier end, and one last
Newton step on a compensated value of p puts it within an ulp of the
exact root of the float coefficients. ``root_arrays`` gives all four
complex roots from companion matrices and ``eigvals``; only
``welfare.solve_quartic`` and ``welfare.classify_quartic`` call it, and
the tests cross-check the two.
"""

from __future__ import annotations

import numpy as np

from .batch import RowErrors
from .errors import DegenerateLeadingCoefficient, NumericalContractError

QUARTIC_RESIDUAL_TOL = 1e-8
REAL_ROOT_IMAG_TOL = 1e-9


def check_finite(omega: np.ndarray, errors: RowErrors) -> np.ndarray:
    """Rows whose coefficients are not all finite fail; returns the others."""
    finite = np.isfinite(omega).all(axis=1)
    errors.add(~finite, lambda i: NumericalContractError(
        f"quartic coefficients {tuple(omega[i].tolist())!r} are not finite"))
    return finite


def near_real(roots: np.ndarray) -> np.ndarray:
    return np.abs(roots.imag) <= REAL_ROOT_IMAG_TOL * (1.0 + np.abs(roots.real))


def root_arrays(omega: np.ndarray, errors: RowErrors) -> np.ndarray:
    """All four complex roots of every row's quartic, with multiplicity.

    Roots come from companion matrices, as ``np.roots`` builds them
    (trailing zero coefficients are dropped and give zero roots), with one
    batched ``eigvals`` per matrix size; near-real roots are polished with
    up to four Newton steps on the real axis, each kept only when it does
    not raise |p| or lands within 1e-8 * sum|omega_i|. The residual
    contract is |p(root)| <= 1e-8 * sum|omega_i| * max(1, |root|)^4; the
    magnitude factor only matters for roots far outside the unit disc,
    where bare evaluation round-off already exceeds the unscaled bound.
    A row whose companion matrix has an entry that overflows fails.
    """
    leading = omega[:, 4]
    tiny = np.abs(leading) <= 1e-300
    # The first row of the size-4 companion matrix, -omega_3 / omega_4 down
    # to -omega_0 / omega_4; a smaller matrix takes its first entries.
    top = -omega[:, 3::-1] / omega[:, 4:]
    solvable = ~tiny & np.isfinite(omega).all(axis=1) & np.isfinite(top).all(axis=1)
    roots = np.empty((len(omega), 4), dtype=complex)
    # Usually every row is solvable with no trailing zero coefficient, and
    # one slice stands for all the rows of the one matrix size.
    groups = [(0, slice(None))]
    if np.count_nonzero(solvable & (omega[:, 0] != 0.0)) < len(omega):
        # A row keeps its first error, so the last call adds only overflows.
        errors.add(tiny, lambda i: DegenerateLeadingCoefficient(f"leading coefficient {leading[i].item()!r}"))
        check_finite(omega, errors)
        errors.add(~solvable, lambda i: NumericalContractError(
            f"the companion matrix of the quartic coefficients {tuple(omega[i].tolist())!r} overflows"))
        roots[:] = np.nan
        trailing = np.cumprod(omega[:, :4] == 0.0, axis=1).sum(axis=1)
        groups = [(zeros, solvable & (trailing == zeros)) for zeros in sorted(set(trailing.tolist()))]
    for zeros, rows in groups:
        size = 4 - zeros
        roots[rows, size:] = 0.0
        block = top[rows, :size]
        if size and len(block):
            companion = np.zeros((len(block), size, size))
            companion[:, 0, :] = block
            below = np.arange(size - 1)
            companion[:, below + 1, below] = 1.0
            roots[rows, :size] = np.linalg.eigvals(companion)

    w0, w1, w2, w3, w4 = omega.T[:, :, None]

    def p(z):
        return (((w4 * z + w3) * z + w2) * z + w1) * z + w0

    floor = (QUARTIC_RESIDUAL_TOL * np.abs(omega).sum(axis=1))[:, None]
    near = near_real(roots)
    if np.count_nonzero(near):
        z = roots.real.copy()
        value = p(z)
        active = near.copy()
        w4_4, w3_3, w2_2 = 4.0 * w4, 3.0 * w3, 2.0 * w2
        for _ in range(4):
            slope = ((w4_4 * z + w3_3) * z + w2_2) * z + w1
            active &= slope != 0.0
            step = value / slope
            moved = z - step
            trial = p(moved)
            # A step that raises |p| is kept only inside the contract, so
            # Newton cannot leave a tiny root for a distant non-root.
            active &= (np.abs(trial) <= np.abs(value)) | (np.abs(trial) <= floor)
            z = np.where(active, moved, z)
            value = np.where(active, trial, value)
            active &= ~(np.abs(step) <= 1e-16 * (1.0 + np.abs(z)))
            if not np.count_nonzero(active):
                break
        roots.real[near] = z[near]
        roots.imag[near] = 0.0

    residual = np.abs(p(roots))
    tol = floor * np.square(np.square(np.maximum(np.abs(roots), 1.0)))
    bad = solvable[:, None] & (residual > tol)

    def violation(i):
        j = int(np.argmax(bad[i]))
        return NumericalContractError(
            f"quartic residual at root {roots[i, j].item()!r} exceeds {tol[i, j].item()!r}")

    errors.add(bad.any(axis=1), violation)
    return roots


# Newton steps allowed per root or minimum. From a Fourier point the
# iterates approach the root monotonically, quadratically near a simple
# root and about linearly near a double one (each step then roughly halves
# the distance); a row of the benchmark pools takes at most 16 and the
# slowest row of 2 000 seeded draws at weights 10^+-20 took 87.
NEWTON_STEPS = 4000
# Cells of the grid on each convexity piece of (0, top].
GRID_CELLS = 16
_U = [k / GRID_CELLS for k in range(GRID_CELLS + 1)]
# Grid point k is a * mid + b * top: k/G * mid on the concave piece and
# (1 - u) * mid + u * top on the convex one, so that 0, mid and top are exact.
_AT_MID = np.array(_U + [1.0 - u for u in _U[1:]])
_AT_TOP = np.array([0.0] * (GRID_CELLS + 1) + _U[1:])
# Veltkamp's constant: a * (2^27 + 1) splits a double into two halves
# whose products are exact.
_SPLIT = 2.0**27 + 1.0


def _sign(v):
    """np.sign(v), from the comparisons and ``where`` that the welfare
    kernel runs anyway: the first call of a numpy loop that no other step
    of a CLI command runs costs about 60 KB of resident memory."""
    return np.where(v > 0.0, 1.0, np.where(v < 0.0, -1.0, 0.0))


def _descend(x, f_and_df):
    """Newton's method from the points x, each a Fourier point of a root to
    its left (NaN where there is none): there the iterates approach the
    root monotonically and never pass it in exact arithmetic.
    ``f_and_df(x)`` gives f and f' at x. An entry stops when a step would
    not move it left, as happens once rounding makes it turn back or
    vanish; it then stays where it is, so that where it stops does not
    depend on the other entries. Returns the last points, NaN for an entry
    still moving after NEWTON_STEPS steps."""
    for _ in range(NEWTON_STEPS):
        value, slope = f_and_df(x)
        moved = x - value / slope
        moving = moved < x
        if not np.count_nonzero(moving):
            return x
        x = np.fmin(moved, x)
    return np.where(moving, np.nan, x)


def _compensated_value(w, x):
    """p(x) for the coefficients w = (w4, w3, w2, w1, w0), as accurate as
    if evaluated in twice the working precision and rounded once: the
    rounding error of every product (Dekker's exact product) and every sum
    (Knuth's two-sum) of Horner's scheme is carried in a second Horner
    scheme. With |w_k| <= 1 and |x| <= 2 no split
    overflows."""
    high = _SPLIT * x
    x_hi = high - (high - x)
    x_lo = x - x_hi
    value, error = w[0], 0.0
    for coefficient in w[1:]:
        product = value * x
        high = _SPLIT * value
        hi = high - (high - value)
        lo = value - hi
        product_error = lo * x_lo - (((product - hi * x_hi) - lo * x_hi) - hi * x_lo)
        value = product + coefficient
        back = value - product
        error = error * x + (product_error + (product - (value - back)) + (coefficient - back))
    return value + error


def _quotient(a, b):
    """a / b, infinite or NaN where b is 0, as numpy divides."""
    return a / b if b else np.float64(a) / b


def _root_from(w0, w1, w2, w3, w4, x):
    """The root of p(y) = w4 y^4 + w3 y^3 + w1 y + w0 (w2 = 0) to the left
    of its Fourier point x, in Python floats, which round as numpy's
    float64 does: Newton's method runs until rounding stops it, up to a few
    ulps from an ill-conditioned root, where p is only known to within a
    few units of rounding of sum |w_k x^k|; one more step, on the
    compensated value of p, lands within an ulp of the root. None if
    Newton's method still moves after NEWTON_STEPS steps."""
    w3_3 = 3.0 * w3
    for _ in range(NEWTON_STEPS):
        x2, lead = x * x, w4 * x
        slope = (4.0 * lead + w3_3) * x2 + w1
        moved = x - _quotient(((lead + w3) * x2 + w1) * x + w0, slope)
        if not moved < x:
            return x - _quotient(_compensated_value((w4, w3, w2, w1, w0), x), slope)
        x = moved
    return None


def interior_root_arrays(omega: np.ndarray, top: np.ndarray, errors: RowErrors) -> np.ndarray:
    """The real roots in (0, top] of every row's quartic
    p(y) = w4 y^4 + w3 y^3 + w1 y + w0, for rows with w0 >= 0 < w4 as
    ``welfare.coefficient_arrays`` gives them, from +, -, * and / alone.

    Returns a (2, rows) array, NaN where a root is absent: p has at most
    two positive roots (Descartes' rule of signs), and slot 0 holds the
    smaller. As w2 = 0, p'' = 6 y (2 w4 y + w3) vanishes only at 0 and at
    t = -w3 / (2 w4), so p is concave on (0, mid] and convex on
    (mid, top], where mid is t clamped to [0, top]. Each piece is cut into
    GRID_CELLS equal cells. A cell whose ends differ in sign holds exactly
    one root, as a second one would make three, and p has one convexity on
    it, so Newton's method approaches the root monotonically from any point
    of the cell where p has the sign of p'' (a Fourier point). It starts
    from the Fourier end of the cell, with the nearer of the tangents at
    the two ends that cross zero inside the cell as its first step. Where p
    vanishes at 0 or at mid, the sign just right of it is that of p'.
    Evaluated in doubles, p is only known to within a few units of
    rounding of sum |w_k y^k|, so Newton's method stops up to a few ulps
    from an ill-conditioned root; one more step, on the compensated value
    of p, lands within an ulp of it (see ``_root_from``).

    Both roots of the convex piece can lie in the one cell that holds the
    minimum of p, with p positive at both ends. Unless the tangents at the
    two ends meet above zero, Newton's method for p' (increasing and
    convex there) finds the minimum c, and p(c) < 0 splits the cell into
    two brackets. A minimum with 0 <= p(c) <= p''(c) / 2 *
    (REAL_ROOT_IMAG_TOL * (1 + c))^2 counts as a double root at c: there
    the roots c +- i sqrt(2 p(c) / p''(c)) are a near-real pair in the
    sense of ``welfare.classify_quartic``.

    A row fails with a tiny leading coefficient, a coefficient that is not
    finite or a quotient w_k / w4 that overflows, in that order, as in
    ``root_arrays``. Each other row is scaled by the power of two that
    brings max |w_k| into [1/2, 1), which changes no root and no rounding
    and keeps every value finite. A row also fails where one of its Newton
    searches still moves after NEWTON_STEPS steps; the other rows keep
    their roots.
    """
    roots = np.full((2, len(omega)), np.nan)
    size, leading = np.abs(omega).max(axis=1), np.abs(omega[:, 4])
    # A finite max |w_k| / |w4| makes every coefficient and every quotient
    # w_k / w4 finite.
    solvable = (leading > 1e-300) & (size / leading < np.inf)
    if np.count_nonzero(solvable) < len(omega):
        # A row keeps its first error, so the last call adds only overflows.
        errors.add(leading <= 1e-300, lambda i: DegenerateLeadingCoefficient(
            f"leading coefficient {omega[i, 4].item()!r}"))
        check_finite(omega, errors)
        errors.add(~solvable, lambda i: NumericalContractError(
            f"the companion matrix of the quartic coefficients {tuple(omega[i].tolist())!r} overflows"))
        rows = np.flatnonzero(solvable)
        solved = RowErrors()
        roots[:, rows] = interior_root_arrays(omega[rows], top[rows], solved)
        errors.merge(solved, rows)
        return roots
    given, omega = omega, np.ldexp(omega, -np.frexp(size)[1][:, None])
    stalled = np.zeros(len(omega), dtype=bool)
    G = GRID_CELLS
    # One row of 2 G + 1 grid points per quartic; the coefficients as columns.
    w0, w1, _, w3, w4 = omega.T[:, :, None]
    t = -0.5 * w3 / w4
    mid = np.minimum(np.maximum(t, 0.0), top[:, None])
    # p = ((w4 y + w3) y^2 + w1) y + w0 and p' = (4 w4 y + 3 w3) y^2 + w1,
    # in place, so that a block of rows holds few grids at a time.
    y = mid * _AT_MID
    y += top[:, None] * _AT_TOP
    y2, p = y * y, w4 * y
    dp = 4.0 * p
    dp += 3.0 * w3
    dp *= y2
    dp += w1
    p += w3
    p *= y2
    p += w1
    p *= y
    p += w0
    del y2
    sign = _sign(p)
    left = sign[:, 0:G + 1:G]
    if np.count_nonzero(left == 0.0):
        # Where p vanishes at 0 or at mid, a root there belongs to the cell on
        # its left; a piece of no length has no cell.
        left[...] = np.where(left == 0.0, _sign(dp[:, 0:G + 1:G]), left)
        sign[:, :G] = np.where(mid > 0.0, sign[:, :G], sign[:, G:G + 1])
        sign[:, G + 1:] = np.where(mid < top[:, None], sign[:, G + 1:], sign[:, G:G + 1])
    root = (sign[:, :-1] != 0.0) & (sign[:, 1:] != sign[:, :-1])
    # A convex cell where p is positive at both ends, falls at the left one
    # and rises at the right one holds the minimum of the convex piece.
    dip = (dp[:, G:-1] < 0.0) & (dp[:, G + 1:] > 0.0) & (sign[:, G:-1] > 0.0) & (sign[:, G + 1:] > 0.0)
    if not np.count_nonzero(root) and not np.count_nonzero(dip):
        return roots
    y, p, dp = y.ravel(), p.ravel(), dp.ravel()

    def cells(row, cell):
        """The grid values at both ends of cell ``cell`` of row ``row``."""
        at = row * (2 * G + 1) + cell
        return tuple(array[end] for array in (y, p, dp) for end in (at, at + 1))

    row, cell = np.nonzero(root)
    lo, hi, p_lo, p_hi, dp_lo, dp_hi = cells(row, cell)
    # The Fourier end is the right one on the concave piece, where p falls
    # through zero, and on the convex piece the one where p >= 0. The search
    # starts at the nearer of the zeros of the tangents at the two ends
    # that lie on that side of the root, inside the cell.
    leftward = (cell < G) | (p_hi >= 0.0)
    from_lo, from_hi = lo - p_lo / dp_lo, hi - p_hi / dp_hi
    start = np.where(leftward, np.fmin(from_hi, np.where(from_lo >= lo, from_lo, np.nan)),
                     np.fmax(from_lo, np.where(from_hi <= hi, from_hi, np.nan)))
    # Slot 1 holds a root whose row already has one.
    slot = np.where(row == np.append(-1, row[:-1]), 1, 0)
    double_rows = double_at = None
    if np.count_nonzero(dip):
        drow, cell = np.nonzero(dip)
        a, b, p_a, p_b, dp_a, dp_b = cells(drow, cell + G)
        d3, d4 = omega[drow, 3], omega[drow, 4]
        # p lies above the tangents at a and at b, which meet at a + u; a
        # meeting point clear of zero and of the double-root bound leaves
        # no root.
        u = (p_b - p_a - dp_b * (b - a)) / (dp_a - dp_b)
        fall = dp_a * u
        d2p_b = (12.0 * d4 * b + 6.0 * d3) * b
        near_zero = ~(p_a + fall > 2.0 * REAL_ROOT_IMAG_TOL**2 * d2p_b + 1e-14 * (p_a - fall))
        if np.count_nonzero(near_zero):
            drow, a, b, p_a, p_b, dp_a, dp_b, d2p_b = (
                v[near_zero] for v in (drow, a, b, p_a, p_b, dp_a, dp_b, d2p_b))
            d0, d1, _, d3, d4 = omega[drow].T

            def dp_and_d2p(x):
                x2, lead = x * x, 4.0 * d4 * x
                return (lead + 3.0 * d3) * x2 + d1, (3.0 * lead + 6.0 * d3) * x

            # p' is increasing and convex here: b is a Fourier point, and so
            # is the zero of its tangent at a when that lies in the cell.
            from_a = a - dp_a / ((12.0 * d4 * a + 6.0 * d3) * a)
            c = _descend(np.fmin(b, np.where(from_a >= a, from_a, np.nan)), dp_and_d2p)
            stalled[drow[np.isnan(c)]] = True
            c2 = c * c
            p_c = ((d4 * c + d3) * c2 + d1) * c + d0
            crossing = p_c < 0.0
            double = ~crossing & (p_c <= 0.5 * REAL_ROOT_IMAG_TOL**2 * (12.0 * d4 * c + 6.0 * d3) * c
                                  * np.square(1.0 + c))
            double_rows, double_at = drow[double], c[double]
            if np.count_nonzero(crossing):
                # A root on each side of c, from the tangents at a and at b.
                k = np.flatnonzero(crossing)
                row = np.concatenate((row, drow[k], drow[k]))
                slot = np.concatenate((slot, np.repeat([0, 1], len(k))))
                leftward = np.concatenate((leftward, np.zeros(len(k), dtype=bool), np.ones(len(k), dtype=bool)))
                start = np.concatenate((start, a[k] - p_a[k] / dp_a[k], b[k] - p_b[k] / dp_b[k]))
    if len(row):
        # A search that moves right runs on p(-y), whose iterates are
        # exactly the negated ones.
        direction = np.where(leftward, 1.0, -1.0)
        oriented = omega[row]
        oriented[:, 1::2] *= direction[:, None]
        start = direction * start
        found = [_root_from(*w, x) for w, x in zip(oriented.tolist(), start.tolist())]
        if None in found:
            stalled[row[[x is None for x in found]]] = True
        roots[slot, row] = direction * np.array(found, dtype=float)
    if double_rows is not None:
        roots[:, double_rows] = double_at
    errors.add(stalled, lambda i: NumericalContractError(
        f"Newton's method did not converge in {NEWTON_STEPS} steps on the quartic coefficients "
        f"{tuple(given[i].tolist())!r}"))
    return roots
