"""Social-welfare maximization over the feasible set and Price of Stability.

Interior candidates come from a quartic in y = s - d (with the customer
coordinate recovered from the stationarity system); boundary candidates
come from the three symmetric faces c = d, s = 1 and c = s, on each of
which the welfare is a concave quadratic in one variable, solved in
closed form as its vertex clamped to the face. For fixed s
the welfare is separable and strictly concave in each c_i with identical
coefficients, so the maximizer over the customers has all c_i equal or
pinned to the same face; the symmetric reduction is therefore exact for
homogeneous parameters.

As in ``equilibria``, the closed forms are written once over a
``ParamBatch`` (the ``*_arrays`` kernels) and the public functions run
them on a batch of one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .batch import ParamBatch, RowErrors, one_row, power, repeat_sum, where_max, where_min
from .errors import (
    DegenerateDenominator,
    DegenerateLeadingCoefficient,
    MissingEquilibrium,
    NumericalContractError,
)
from .params import EPS_DEN, ModelParams, OpinionProfile
from .equilibria import EquilibriumArrays, EquilibriumPair, equilibrium_arrays

QUARTIC_RESIDUAL_TOL = 1e-8
REAL_ROOT_IMAG_TOL = 1e-9
POS_TIE_TOL = 1e-12

LOCATIONS = ("interior", "face:c=d", "face:s=1", "face:c=s")


class PosFlag(enum.Enum):
    NEGATIVE_DENOMINATOR = "NegativeDenominator"
    ZERO_DENOMINATOR = "ZeroDenominator"
    NO_EQUILIBRIA = "NoEquilibria"


@dataclass(frozen=True)
class QuarticAnalysis:
    """Coefficients, classification invariants and roots of the welfare quartic."""

    omega: Tuple[float, float, float, float, float]
    delta_big: float
    d_big: float
    p_big: float
    r_big: float
    roots: Tuple[complex, complex, complex, complex]
    all_nonreal: bool
    # Coefficient-region test only; real roots of members lie outside the
    # unit disc, non-real conjugate pairs of members may lie inside it.
    omega_member: bool
    sign_precondition_ok: bool


@dataclass(frozen=True)
class WelfareReport:
    sw_max: float
    argmax: OpinionProfile
    location: str  # "interior" or "face:c=d" / "face:s=1" / "face:c=s"
    sw_at_star: Optional[float]
    sw_at_dagger: Optional[float]
    pos: Optional[float]
    pos_flags: frozenset
    equilibria: EquilibriumPair
    quartic: QuarticAnalysis


class QuarticArrays(NamedTuple):
    """Coefficients, invariants and polished roots of every row's quartic."""

    omega: np.ndarray  # (rows, 5): omega_0 .. omega_4
    delta_big: np.ndarray
    d_big: np.ndarray
    p_big: np.ndarray
    r_big: np.ndarray
    roots: np.ndarray  # (rows, 4) complex, in the order np.roots gives them
    near_real: np.ndarray  # (rows, 4): |Im| <= REAL_ROOT_IMAG_TOL (1 + |Re|)

    def analysis(self, i: int) -> QuarticAnalysis:
        omega = tuple(self.omega[i].tolist())
        w0, w1, _w2, w3, w4 = omega
        delta_big, d_big = self.delta_big[i].item(), self.d_big[i].item()
        return QuarticAnalysis(
            omega=omega,
            delta_big=delta_big,
            d_big=d_big,
            p_big=self.p_big[i].item(),
            r_big=self.r_big[i].item(),
            roots=tuple(self.roots[i]),
            all_nonreal=not self.near_real[i].any(),
            omega_member=(
                w4 - abs(w1) - abs(w3) + w0 > 0.0
                and 4.0 * w4 - abs(w1) - 3.0 * abs(w3) < 0.0
                and (delta_big <= 0.0 or d_big <= 0.0)
            ),
            sign_precondition_ok=w0 > 0.0 and w4 > 0.0 and w1 * w3 > 0.0,
        )


def coefficient_arrays(P: ParamBatch) -> np.ndarray:
    """(omega_0, ..., omega_4) of the interior-stationarity quartic in
    y = s - d, one row per game."""
    gz = P.gamma + P.zeta
    bgz = P.beta + gz
    return np.stack(
        [
            P.n * power(P.r_d - P.r_s, 2),
            2.0 * P.beta * P.n * (P.r_d - P.r_s) * (P.d - P.w),
            np.zeros(len(P)),
            4.0 * (P.beta * P.n * (P.d - P.w) * gz + P.alpha * (P.d - P.x) * bgz),
            4.0 * (P.beta * P.n * gz + P.alpha * bgz),
        ],
        axis=1,
    )


def quartic_coefficients(p: ModelParams) -> Tuple[float, float, float, float, float]:
    """(omega_0, ..., omega_4) of the interior-stationarity quartic in y = s - d."""
    return tuple(coefficient_arrays(ParamBatch.of([p]))[0].tolist())


def _check_finite(omega: np.ndarray, errors: RowErrors) -> np.ndarray:
    """Rows whose coefficients are not all finite fail; returns the others."""
    finite = np.isfinite(omega).all(axis=1)
    errors.add(~finite, lambda i: NumericalContractError(
        f"quartic coefficients {tuple(omega[i].tolist())!r} are not finite"))
    return finite


def _near_real(roots: np.ndarray) -> np.ndarray:
    return np.abs(roots.imag) <= REAL_ROOT_IMAG_TOL * (1.0 + np.abs(roots.real))


def root_arrays(omega: np.ndarray, errors: RowErrors) -> np.ndarray:
    """All four complex roots of every row's quartic, with multiplicity.

    Roots come from companion matrices, as ``np.roots`` builds them
    (trailing zero coefficients are dropped and give zero roots), with one
    batched ``eigvals`` per matrix size; near-real roots are polished with
    up to four Newton steps on the real axis. The residual contract is
    |p(root)| <= 1e-8 * sum|omega_i| * max(1, |root|)^4; the magnitude
    factor only matters for roots far outside the unit disc, where bare
    evaluation round-off already exceeds the unscaled bound.
    """
    leading = omega[:, 4]
    tiny = np.abs(leading) <= 1e-300
    errors.add(tiny, lambda i: DegenerateLeadingCoefficient(f"leading coefficient {leading[i].item()!r}"))
    solvable = _check_finite(omega, errors) & ~tiny
    roots = np.full((len(omega), 4), np.nan, dtype=complex)
    trailing, sizes = np.zeros(len(omega), dtype=np.intp), [0]
    if np.count_nonzero(omega[:, 0] == 0.0):
        trailing = np.cumprod(omega[:, :4] == 0.0, axis=1).sum(axis=1)
        sizes = np.unique(trailing).tolist()
    for zeros in sizes:
        rows = solvable & (trailing == zeros)
        size = 4 - zeros
        roots[rows, size:] = 0.0
        if size and np.count_nonzero(rows):
            lead = omega[rows][:, :zeros - 1 if zeros else None:-1]  # omega_4 down to the last nonzero
            companion = np.zeros((len(lead), size, size))
            companion[:, 0, :] = -lead[:, 1:] / lead[:, :1]
            below = np.arange(size - 1)
            companion[:, below + 1, below] = 1.0
            roots[rows, :size] = np.linalg.eigvals(companion)

    w0, w1, w2, w3, w4 = omega.T[:, :, None]
    near = _near_real(roots)
    if np.count_nonzero(near):
        z = roots.real.copy()
        active = near.copy()
        w4_4, w3_3, w2_2 = 4.0 * w4, 3.0 * w3, 2.0 * w2
        for _ in range(4):
            slope = ((w4_4 * z + w3_3) * z + w2_2) * z + w1
            active &= slope != 0.0
            step = ((((w4 * z + w3) * z + w2) * z + w1) * z + w0) / slope
            z = np.where(active, z - step, z)
            active &= ~(np.abs(step) <= 1e-16 * (1.0 + np.abs(z)))
            if not np.count_nonzero(active):
                break
        roots.real[near] = z[near]
        roots.imag[near] = 0.0

    # The residual as numpy's complex scalars evaluate it, one rounding per
    # operation: (w + 0j) * z leaves w * z, and adding a real coefficient
    # leaves the imaginary part. (numpy's vectorized complex product fuses
    # its multiply-adds and differs in the last bit.)
    re, im = roots.real, roots.imag
    acc_re, acc_im = w4 * re, w4 * im
    for w in (w3, w2, w1):
        acc_re = acc_re + w
        acc_re, acc_im = acc_re * re - acc_im * im, acc_re * im + acc_im * re
    residual = np.hypot(acc_re + w0, acc_im)
    modulus = np.hypot(re, im)
    far = modulus > 1.0
    growth = np.ones_like(modulus)
    if np.count_nonzero(far):
        growth[far] = power(modulus[far], 4)
    tol = (QUARTIC_RESIDUAL_TOL * np.abs(omega).sum(axis=1))[:, None] * growth
    bad = solvable[:, None] & (residual > tol)

    def violation(i):
        j = int(np.argmax(bad[i]))
        bound = np.float64(tol[i, j]) if far[i, j] else tol[i, j].item()
        return NumericalContractError(f"quartic residual at root {roots[i, j]!r} exceeds {bound!r}")

    errors.add(bad.any(axis=1), violation)
    return roots


def _coefficient_row(omega) -> np.ndarray:
    return np.array([[float(v) for v in omega]])


def solve_quartic(omega) -> np.ndarray:
    """All four complex roots (with multiplicity) of the quartic.

    Roots come from the companion matrix; near-real roots are polished
    with a few Newton steps on the real axis. The residual contract is
    |p(root)| <= 1e-8 * sum|omega_i| * max(1, |root|)^4; the magnitude
    factor only matters for roots far outside the unit disc, where bare
    evaluation round-off already exceeds the unscaled bound. Coefficients
    that are not finite raise NumericalContractError.
    """
    return one_row(root_arrays, _coefficient_row(omega))[0]


def quartic_arrays(omega: np.ndarray, errors: RowErrors) -> QuarticArrays:
    """Invariants and roots of every row's quartic.

    A row fails with NumericalContractError when its coefficients or its
    invariants are not finite.
    """
    _check_finite(omega, errors)
    w0, w1, _w2, w3, w4 = omega.T
    w0_2, w1_2, w3_2, w4_2 = power(omega.T[[0, 1, 3, 4]], 2)
    w0_3, w1_3, w3_3, w4_3 = power(omega.T[[0, 1, 3, 4]], 3)
    w1_4, w3_4 = power(omega.T[[1, 3]], 4)
    delta_big = (
        256.0 * w4_3 * w0_3
        - 192.0 * w4_2 * w3 * w1 * w0_2
        - 27.0 * w4_2 * w1_4
        - 6.0 * w4 * w3_2 * w1_2 * w0
        - 27.0 * w3_4 * w0_2
        - 4.0 * w3_3 * w1_3
    )
    d_big = 64.0 * w4_3 * w0 - 16.0 * w4_2 * w3 * w1 - 3.0 * w3_4
    p_big = -3.0 * w3_2
    r_big = w3_3 + 8.0 * w1 * w4_2
    invariants = (delta_big, d_big, p_big, r_big)
    errors.add(~np.logical_and.reduce([np.isfinite(v) for v in invariants]), lambda i: NumericalContractError(
        "quartic invariants Delta, D, P, R = "
        f"{tuple(v[i].item() for v in invariants)!r} are not finite"))
    roots = root_arrays(omega, errors)
    return QuarticArrays(omega, delta_big, d_big, p_big, r_big, roots, _near_real(roots))


def classify_quartic(omega) -> QuarticAnalysis:
    """Discriminant-style invariants plus root-based classification.

    The all-nonreal verdict always comes from the computed roots; the
    sign-based equivalence (Delta > 0 and D > 0) is recorded for
    cross-checking but never trusted on its own. Coefficients or
    invariants that are not finite raise NumericalContractError.

    ``omega_member`` tests the coefficients against the region Omega and
    says nothing about the roots by itself. What holds for members is
    that their real roots lie outside the unit disc (|y| > 1). Their
    non-real conjugate pairs may lie inside it, so the claim that every
    root of a member leaves the unit disc is false.
    """
    return one_row(quartic_arrays, _coefficient_row(omega)).analysis(0)


def boundary_membership(p: ModelParams, q: OpinionProfile, tol: float = 1e-12) -> bool:
    """Whether ``q`` lies on the boundary of the feasible set.

    The boundary is the set of feasible points where at least one factor
    of prod_i (c_i - d)(s - c_i) * (s - 1) vanishes.
    """
    c = q.c_array()
    s = q.s
    if not (
        np.all(c >= p.d - tol)
        and np.all(c <= 1.0 + tol)
        and p.d - tol <= s <= 1.0 + tol
        and np.max(c, initial=p.d) <= s + tol
    ):
        return False
    return bool(
        np.any(np.abs(c - p.d) <= tol)
        or np.any(np.abs(s - c) <= tol)
        or abs(s - 1.0) <= tol
    )


def _stationary_customer(P: ParamBatch, s, ratio):
    """The customers' stationary opinion at stated opinion ``s``, where
    ``ratio`` is (r_s - r_d) / (s - d) (0 when r_s == r_d)."""
    gz = P.gamma + P.zeta
    return (2.0 * P.beta * P.w + 2.0 * gz * s + ratio) / (2.0 * P.beta + 2.0 * gz)


def _uniform_welfare(P: ParamBatch, c, s):
    """``model.social_welfare`` at the all-equal profiles (c, s), with
    its sums over the n customers; rows must keep s - d off 0 unless
    r_s == r_d."""
    sums = repeat_sum(np.array([np.square(P.w - c), np.square(s - c), c - P.d]).T, P.n)
    base = (
        -P.alpha * power(s - P.x, 2)
        - P.beta * sums[:, 0]
        - (P.gamma + P.zeta) * sums[:, 1]
        + P.r_d * P.n
    )
    return np.where(P.equal, base, base + P.dr / (s - P.d) * sums[:, 2])


class WelfareArrays(NamedTuple):
    """The welfare optimum and PoS bookkeeping of every row of a batch.

    ``location`` indexes ``LOCATIONS``; ``sw_at_star``/``sw_at_dagger``
    are meaningful where that equilibrium is admissible, and ``pos`` where
    no flag is set.
    """

    sw_max: np.ndarray
    location: np.ndarray
    arg_c: np.ndarray
    arg_s: np.ndarray
    sw_at_star: np.ndarray
    sw_at_dagger: np.ndarray
    pos: np.ndarray
    no_equilibria: np.ndarray
    negative: np.ndarray
    zero: np.ndarray
    equilibria: EquilibriumArrays
    quartic: QuarticArrays

    def report(self, i: int, n: int) -> WelfareReport:
        eq = self.equilibria.pair(i, n)
        flags = set()
        if self.no_equilibria[i]:
            flags.add(PosFlag.NO_EQUILIBRIA)
        if self.negative[i]:
            flags.add(PosFlag.NEGATIVE_DENOMINATOR)
        elif self.zero[i]:
            flags.add(PosFlag.ZERO_DENOMINATOR)
        return WelfareReport(
            sw_max=self.sw_max[i].item(),
            argmax=OpinionProfile.uniform(self.arg_c[i], self.arg_s[i], n),
            location=LOCATIONS[self.location[i]],
            sw_at_star=self.sw_at_star[i].item() if eq.star_admissible else None,
            sw_at_dagger=self.sw_at_dagger[i].item() if eq.dagger_admissible else None,
            pos=None if flags else self.pos[i].item(),
            pos_flags=frozenset(flags),
            equilibria=eq,
            quartic=self.quartic.analysis(i),
        )


def welfare_arrays(P: ParamBatch, errors: RowErrors) -> WelfareArrays:
    """Global welfare maximum of every row, plus PoS bookkeeping.

    Interior candidates are the real quartic roots y in (0, 1 - d] with
    their reconstructed customer coordinate inside (d, s); the three
    symmetric faces are each solved in closed form: the welfare along a
    face is a concave quadratic, maximized at its vertex clamped to the
    face's interval.
    """
    quartic = quartic_arrays(coefficient_arrays(P), errors)
    size = len(P)
    gz = P.gamma + P.zeta

    y = quartic.roots.real
    rows, cols = np.nonzero(quartic.near_real & (EPS_DEN < y) & (y <= 1.0 - P.d[:, None] + 1e-15))
    c = s = np.zeros(0)
    if rows.size:
        at = P.take(rows)
        s = at.d + y[rows, cols]
        c = _stationary_customer(at, s, np.where(at.equal, 0.0, at.dr / (s - at.d)))
        inside = (at.d < c) & (c < s)
        rows, cols, c, s = rows[inside], cols[inside], c[inside], where_min(s[inside], 1.0)
        singular = ~P.equal[rows] & (np.abs(s - P.d[rows]) <= EPS_DEN)
        errors.add(singular, lambda i: DegenerateDenominator(
            f"s = {s[i].item()} is within {EPS_DEN} of d = {P.d[rows[i]].item()}"), rows)

    # Face c = d: the interpolation term is exactly zero.
    gzn, bn = gz * P.n, P.beta * P.n
    s_cd = where_min(where_max((P.alpha * P.x + gzn * P.d) / (P.alpha + gzn), P.d), 1.0)
    # Face s = 1 (skipped when the domain collapses to the corner d = 1).
    top = 1.0 - P.d > EPS_DEN
    slope = np.where(P.equal, 0.0, P.dr / (1.0 - P.d))
    c_top = where_min(where_max(_stationary_customer(P, 1.0, slope), P.d), 1.0)
    # Face c = s: the interpolation term equals n (r_s - r_d) identically.
    lo = np.where(P.equal, P.d, where_min(P.d + 1e-9, 1.0))
    s_cs = where_min(where_max((P.alpha * P.x + bn * P.w) / (P.alpha + bn), lo), 1.0)
    sq = power(np.array([
        s_cd - P.x, P.w - P.d, s_cd - P.d,
        1.0 - P.x, P.w - c_top, 1.0 - c_top,
        s_cs - P.x, P.w - s_cs,
    ]), 2)
    r_dn = P.r_d * P.n
    f_cd = -P.alpha * sq[0] - bn * sq[1] - gzn * sq[2] + r_dn
    f_top = -P.alpha * sq[3] - bn * sq[4] - gzn * sq[5] + r_dn + slope * P.n * (c_top - P.d)
    f_cs = -P.alpha * sq[6] - bn * sq[7] + r_dn + P.n * P.dr

    eq = equilibrium_arrays(P, errors)
    star, dagger = (np.flatnonzero(v) for v in eq.geometric)
    sw_at_star, sw_at_dagger = np.full((2, size), np.nan)
    at = np.concatenate([rows, star, dagger])
    if at.size:
        values = _uniform_welfare(
            P.take(at),
            np.concatenate([c, eq.c[0, star], eq.c[1, dagger]]),
            np.concatenate([s, eq.roots[0, star], eq.roots[1, dagger]]),
        )
        k, m = len(rows), len(rows) + len(star)
        interior, sw_at_star[star], sw_at_dagger[dagger] = values[:k], values[k:m], values[m:]

    # Candidates in the scalar order: interior (by root), then the faces
    # c = d, s = 1 and c = s. The first one a row has is taken whatever its
    # value (NaN included); a later one wins only when strictly greater.
    candidates = []  # (present, value, location, c, s)
    for j in range(4):
        on = cols == j
        if np.count_nonzero(on):
            present, value, cc, ss = np.zeros(size, dtype=bool), np.zeros(size), np.zeros(size), np.zeros(size)
            present[rows[on]] = True
            value[rows[on]], cc[rows[on]], ss[rows[on]] = interior[on], c[on], s[on]
            candidates.append((present, value, 0, cc, ss))
    candidates += [(True, f_cd, 1, P.d, s_cd), (top, f_top, 2, c_top, 1.0), (True, f_cs, 3, s_cs, s_cs)]
    have = np.zeros(size, dtype=bool)
    sw_max, winner = np.full(size, np.nan), np.zeros(size, dtype=np.intp)
    for k, (present, value, _, _, _) in enumerate(candidates):
        take = present & (~have | (value > sw_max))
        if np.count_nonzero(take):
            sw_max = np.where(take, value, sw_max)
            winner = np.where(take, k, winner)
        have = have | present
    location = np.choose(winner, [cand[2] for cand in candidates])
    arg_c = np.choose(winner, [cand[3] for cand in candidates])
    arg_s = np.choose(winner, [cand[4] for cand in candidates])

    star_geo, dagger_geo = eq.geometric
    no_equilibria = ~star_geo & ~dagger_geo
    negative = sw_max < 0.0
    zero = ~negative & (np.abs(sw_max) <= POS_TIE_TOL)
    best = np.where(star_geo, np.where(dagger_geo, where_max(sw_at_star, sw_at_dagger), sw_at_star), sw_at_dagger)
    pos = np.where(no_equilibria | negative | zero, np.nan, best / sw_max)
    return WelfareArrays(
        sw_max=sw_max,
        location=location,
        arg_c=arg_c,
        arg_s=arg_s,
        sw_at_star=sw_at_star,
        sw_at_dagger=sw_at_dagger,
        pos=pos,
        no_equilibria=no_equilibria,
        negative=negative,
        zero=zero,
        equilibria=eq,
        quartic=quartic,
    )


def maximize_welfare(p: ModelParams) -> WelfareReport:
    """Global welfare maximum over the feasible set, plus PoS bookkeeping.

    Interior candidates are the real quartic roots y in (0, 1 - d] with
    their reconstructed customer coordinate inside (d, s); the three
    symmetric faces are each solved in closed form: the welfare along a
    face is a concave quadratic, maximized at its vertex clamped to the
    face's interval.
    """
    return one_row(welfare_arrays, ParamBatch.of([p])).report(0, p.n)


@dataclass(frozen=True)
class EquilibriumUtilities:
    u_a_star: Optional[float]
    u_cl_star: Optional[float]
    u_a_dagger: Optional[float]
    u_cl_dagger: Optional[float]


def utilities_at_equilibria(p: ModelParams, eq: EquilibriumPair) -> EquilibriumUtilities:
    """Closed-form payoffs at P* and P+ (per-customer value for u_cl)."""
    if eq.p_star is None and eq.p_dagger is None:
        raise MissingEquilibrium("neither equilibrium is present")

    def pair(root):
        ratio = 0.0 if p.r_s == p.r_d else (p.r_s - p.r_d) / (root - p.d)
        u_cl = p.r_s + ratio**2 / (4.0 * p.zeta)
        u_a = (
            -p.alpha * (root - p.x) ** 2
            - p.beta * p.n * (p.w - ratio / (2.0 * p.zeta) - root) ** 2
            - p.gamma * p.n * ratio**2 / (4.0 * p.zeta**2)
        )
        return u_a, u_cl

    u_a_s = u_cl_s = u_a_d = u_cl_d = None
    if eq.p_star is not None:
        u_a_s, u_cl_s = pair(eq.roots.a)
    if eq.p_dagger is not None:
        u_a_d, u_cl_d = pair(eq.roots.b)
    return EquilibriumUtilities(u_a_s, u_cl_s, u_a_d, u_cl_d)


def price_of_stability(p: ModelParams) -> WelfareReport:
    """Alias of :func:`maximize_welfare`, kept as public API.

    The report it returns already carries the PoS ratio (or its flags).
    """
    return maximize_welfare(p)
