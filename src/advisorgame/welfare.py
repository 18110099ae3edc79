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
them on a batch of one. The welfare kernel needs only the quartic's
roots; its classification invariants are computed by ``classify_quartic``
alone, so an invariant that overflows fails only that call.

``welfare_arrays`` holds every profile it evaluates as one (slot, row)
array of all-equal profiles (c, s): slots 0-3 are the quartic's roots,
4-6 the optima of the faces c = d, s = 1 and c = s, 7 and 8 the
equilibria P* and P+. One expression gives the welfare of every slot,

    -alpha (s - x)^2 - beta n (w - c)^2 - (gamma + zeta) n (s - c)^2
        + r_d n + n (c - d) (r_s - r_d) / (s - d),

whose last term is taken as 0 on the face c = d, as n (r_s - r_d) on the
face c = s and as 0 on rows with r_s == r_d. The maximum is chosen among
slots 0-6, and the PoS divides the welfare of slot 7 or 8 by it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .batch import ParamBatch, RowErrors, one_row, where_max, where_min
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
EQUILIBRIUM_WELFARE_TOL = 1e-9
POS_TIE_TOL = 1e-12
# Distance within which boundary_membership puts a point on a face.
BOUNDARY_TOL = 1e-12

LOCATIONS = ("interior", "face:c=d", "face:s=1", "face:c=s")


class PosFlag(enum.Enum):
    """Why a row has no PoS. The members are in the order of their tokens
    in the CLI ``flags`` column, which is the order of the rows of
    ``WelfareArrays.flags``."""

    NEGATIVE_DENOMINATOR = "NegativeDenominator"
    NO_EQUILIBRIA = "NoEquilibria"
    ZERO_DENOMINATOR = "ZeroDenominator"


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


def coefficient_arrays(P: ParamBatch) -> np.ndarray:
    """(omega_0, ..., omega_4) of the interior-stationarity quartic in
    y = s - d, one row per game."""
    gz = P.gamma + P.zeta
    bgz = P.beta + gz
    return np.stack(
        [
            P.n * np.square(P.r_d - P.r_s),
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
    up to four Newton steps on the real axis, each kept only when it does
    not raise |p| or lands within 1e-8 * sum|omega_i|. The residual
    contract is |p(root)| <= 1e-8 * sum|omega_i| * max(1, |root|)^4; the
    magnitude factor only matters for roots far outside the unit disc,
    where bare evaluation round-off already exceeds the unscaled bound.
    A row whose companion matrix has an entry that overflows fails.
    """
    leading = omega[:, 4]
    tiny = np.abs(leading) <= 1e-300
    errors.add(tiny, lambda i: DegenerateLeadingCoefficient(f"leading coefficient {leading[i].item()!r}"))
    solvable = _check_finite(omega, errors) & ~tiny
    # The first row of the size-4 companion matrix, -omega_3 / omega_4 down
    # to -omega_0 / omega_4; a smaller matrix takes its first entries.
    top = -omega[:, 3::-1] / omega[:, 4:]
    overflow = solvable & ~np.isfinite(top).all(axis=1)
    errors.add(overflow, lambda i: NumericalContractError(
        f"the companion matrix of the quartic coefficients {tuple(omega[i].tolist())!r} overflows"))
    solvable &= ~overflow
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
            companion = np.zeros((np.count_nonzero(rows), size, size))
            companion[:, 0, :] = top[rows, :size]
            below = np.arange(size - 1)
            companion[:, below + 1, below] = 1.0
            roots[rows, :size] = np.linalg.eigvals(companion)

    w0, w1, w2, w3, w4 = omega.T[:, :, None]

    def p(z):
        return (((w4 * z + w3) * z + w2) * z + w1) * z + w0

    floor = (QUARTIC_RESIDUAL_TOL * np.abs(omega).sum(axis=1))[:, None]
    near = _near_real(roots)
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


def _coefficient_row(omega) -> np.ndarray:
    return np.array([[float(v) for v in omega]])


def solve_quartic(omega) -> np.ndarray:
    """All four complex roots (with multiplicity) of the quartic.

    Roots come from the companion matrix; near-real roots are polished
    with a few Newton steps on the real axis. The residual contract is
    |p(root)| <= 1e-8 * sum|omega_i| * max(1, |root|)^4; the magnitude
    factor only matters for roots far outside the unit disc, where bare
    evaluation round-off already exceeds the unscaled bound. Coefficients
    that are not finite, or whose companion matrix overflows, raise
    NumericalContractError.
    """
    return one_row(root_arrays, _coefficient_row(omega))[0]


def classify_quartic(omega) -> QuarticAnalysis:
    """Discriminant-style invariants plus root-based classification.

    This is the only code that computes the invariants Delta, D, P and R;
    the welfare kernel needs just the roots. The all-nonreal verdict
    always comes from the computed roots; the sign-based equivalence
    (Delta > 0 and D > 0) is recorded for cross-checking but never trusted
    on its own. Coefficients or invariants that are not finite raise
    NumericalContractError.

    ``omega_member`` tests the coefficients against the region Omega and
    says nothing about the roots by itself. What holds for members is
    that their real roots lie outside the unit disc (|y| > 1). Their
    non-real conjugate pairs may lie inside it, so the claim that every
    root of a member leaves the unit disc is false.
    """

    def kernel(row, errors):
        _check_finite(row, errors)
        w0, w1, _w2, w3, w4 = row.T
        squares = np.square(row.T[[0, 1, 3, 4]])
        w0_2, w1_2, w3_2, w4_2 = squares
        w0_3, w1_3, w3_3, w4_3 = squares * row.T[[0, 1, 3, 4]]
        w1_4, w3_4 = np.square(squares[[1, 2]])
        invariants = (
            256.0 * w4_3 * w0_3
            - 192.0 * w4_2 * w3 * w1 * w0_2
            - 27.0 * w4_2 * w1_4
            - 6.0 * w4 * w3_2 * w1_2 * w0
            - 27.0 * w3_4 * w0_2
            - 4.0 * w3_3 * w1_3,
            64.0 * w4_3 * w0 - 16.0 * w4_2 * w3 * w1 - 3.0 * w3_4,
            -3.0 * w3_2,
            w3_3 + 8.0 * w1 * w4_2,
        )
        invariants = tuple(v.item() for v in invariants)
        errors.add(not np.isfinite(invariants).all(), lambda i: NumericalContractError(
            f"quartic invariants Delta, D, P, R = {invariants!r} are not finite"))
        return invariants, root_arrays(row, errors)[0]

    row = _coefficient_row(omega)
    (delta_big, d_big, p_big, r_big), roots = one_row(kernel, row)
    omega = tuple(row[0].tolist())
    w0, w1, _w2, w3, w4 = omega
    return QuarticAnalysis(
        omega=omega,
        delta_big=delta_big,
        d_big=d_big,
        p_big=p_big,
        r_big=r_big,
        roots=tuple(roots),
        all_nonreal=not _near_real(roots).any(),
        omega_member=(
            w4 - abs(w1) - abs(w3) + w0 > 0.0
            and 4.0 * w4 - abs(w1) - 3.0 * abs(w3) < 0.0
            and (delta_big <= 0.0 or d_big <= 0.0)
        ),
        sign_precondition_ok=w0 > 0.0 and w4 > 0.0 and w1 * w3 > 0.0,
    )


def boundary_membership(p: ModelParams, q: OpinionProfile) -> bool:
    """Whether ``q`` lies on the boundary of the feasible set.

    The boundary is the set of feasible points where at least one factor
    of prod_i (c_i - d)(s - c_i) * (s - 1) vanishes, each to within
    ``BOUNDARY_TOL``.
    """
    c = q.c_array()
    s = q.s
    tol = BOUNDARY_TOL
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


class WelfareArrays(NamedTuple):
    """The welfare optimum and PoS bookkeeping of every row of a batch.

    ``location`` indexes ``LOCATIONS``; ``sw_at_star``/``sw_at_dagger``
    are meaningful where that equilibrium is admissible. ``flags`` holds
    one row per ``PosFlag`` member, in member order, and ``pos`` is
    meaningful where no flag is set.
    """

    sw_max: np.ndarray
    location: np.ndarray
    arg_c: np.ndarray
    arg_s: np.ndarray
    sw_at_star: np.ndarray
    sw_at_dagger: np.ndarray
    pos: np.ndarray
    flags: np.ndarray
    equilibria: EquilibriumArrays

    def report(self, i: int, n: int) -> WelfareReport:
        eq = self.equilibria.pair(i, n)
        flags = frozenset(flag for flag, on in zip(PosFlag, self.flags[:, i].tolist()) if on)
        return WelfareReport(
            sw_max=self.sw_max[i].item(),
            argmax=OpinionProfile.uniform(self.arg_c[i], self.arg_s[i], n),
            location=LOCATIONS[self.location[i]],
            sw_at_star=self.sw_at_star[i].item() if eq.star_admissible else None,
            sw_at_dagger=self.sw_at_dagger[i].item() if eq.dagger_admissible else None,
            pos=None if flags else self.pos[i].item(),
            pos_flags=flags,
            equilibria=eq,
        )


def welfare_arrays(P: ParamBatch, errors: RowErrors) -> WelfareArrays:
    """Global welfare maximum of every row, plus PoS bookkeeping.

    Interior candidates are the real quartic roots y in (0, 1 - d] with
    their reconstructed customer coordinate inside (d, s); the three
    symmetric faces are each solved in closed form: the welfare along a
    face is a concave quadratic, maximized at its vertex clamped to the
    face's interval. The maximum is the first largest candidate. A row
    fails with NumericalContractError when a candidate's welfare or that
    of an admissible equilibrium is not finite, or when the latter exceeds
    the maximum by more than EQUILIBRIUM_WELFARE_TOL * max(1, |welfare|).
    """
    roots = root_arrays(coefficient_arrays(P), errors).T
    gz = P.gamma + P.zeta
    gzn, bn = gz * P.n, P.beta * P.n

    # Slots 0-3: the quartic roots, each with its stationary customer.
    y = roots.real
    s_root = P.d + y
    c_root = _stationary_customer(P, s_root, np.where(P.equal, 0.0, P.dr / (s_root - P.d)))
    interior = (_near_real(roots) & (EPS_DEN < y) & (y <= 1.0 - P.d + 1e-15)
                & (P.d < c_root) & (c_root < s_root))
    s_root = where_min(s_root, 1.0)
    singular = interior & ~P.equal & (np.abs(s_root - P.d) <= EPS_DEN)
    errors.add(singular.any(axis=0), lambda i: DegenerateDenominator(
        f"s = {s_root[np.argmax(singular[:, i]), i].item()} is within {EPS_DEN} of d = {P.d[i].item()}"))

    # Slot 4, face c = d; slot 5, face s = 1 (skipped when the domain
    # collapses to the corner d = 1); slot 6, face c = s.
    s_cd = where_min(where_max((P.alpha * P.x + gzn * P.d) / (P.alpha + gzn), P.d), 1.0)
    slope = np.where(P.equal, 0.0, P.dr / (1.0 - P.d))
    c_top = where_min(where_max(_stationary_customer(P, 1.0, slope), P.d), 1.0)
    lo = np.where(P.equal, P.d, where_min(P.d + 1e-9, 1.0))
    s_cs = where_min(where_max((P.alpha * P.x + bn * P.w) / (P.alpha + bn), lo), 1.0)

    # Slots 7 and 8: the equilibria P* and P+.
    eq = equilibrium_arrays(P, errors)
    c = np.concatenate([c_root, [P.d, c_top, s_cs], eq.c])
    s = np.concatenate([s_root, [s_cd, np.ones(len(P)), s_cs], eq.roots])
    # The interpolation term n (c - d) (r_s - r_d) / (s - d) is set exactly
    # on the faces: 0 on c = d, where s may equal d, and n (r_s - r_d) on
    # c = s.
    ret = P.dr / (s - P.d) * P.n * (c - P.d)
    ret[4], ret[6] = 0.0, P.n * P.dr
    value = (
        -P.alpha * np.square(s - P.x)
        - bn * np.square(P.w - c)
        - gzn * np.square(s - c)
        + P.r_d * P.n
        + np.where(P.equal, 0.0, ret)
    )

    star_geo, dagger_geo = eq.geometric
    present = np.ones((9, len(P)), dtype=bool)
    present[:4], present[5], present[7:] = interior, 1.0 - P.d > EPS_DEN, eq.geometric
    broken = present & ~np.isfinite(value)

    def not_finite(i):
        j = int(np.argmax(broken[:, i]))
        name = ("P*", "P+")[j - 7] if j >= 7 else LOCATIONS[max(j - 3, 0)]
        return NumericalContractError(f"welfare {value[j, i].item()!r} at {name} is not finite")

    errors.add(broken.any(axis=0), not_finite)
    cols = np.arange(len(P))
    winner = np.argmax(np.where(present[:7], value[:7], -np.inf), axis=0)
    sw_max = value[winner, cols]
    sw_at_star, sw_at_dagger = value[7:]

    # The maximum bounds the welfare of every admissible equilibrium.
    for admissible, welfare, name in ((star_geo, sw_at_star, "P*"), (dagger_geo, sw_at_dagger, "P+")):
        above = admissible & (welfare > sw_max + EQUILIBRIUM_WELFARE_TOL * np.maximum(1.0, np.abs(welfare)))
        errors.add(above, lambda i, welfare=welfare, name=name: NumericalContractError(
            f"welfare {welfare[i].item()!r} at {name} exceeds the maximum {sw_max[i].item()!r}"))
    negative = sw_max < 0.0
    flags = np.array([negative, ~star_geo & ~dagger_geo, ~negative & (np.abs(sw_max) <= POS_TIE_TOL)])
    best = np.where(star_geo, np.where(dagger_geo, where_max(sw_at_star, sw_at_dagger), sw_at_star), sw_at_dagger)
    pos = np.where(flags.any(axis=0), np.nan, best / sw_max)
    return WelfareArrays(
        sw_max=sw_max,
        location=np.maximum(winner - 3, 0),
        arg_c=c[winner, cols],
        arg_s=s[winner, cols],
        sw_at_star=sw_at_star,
        sw_at_dagger=sw_at_dagger,
        pos=pos,
        flags=flags,
        equilibria=eq,
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
