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

The interior candidates are the quartic's real roots in (0, 1 - d],
found by ``quartic.interior_root_arrays`` with +, -, * and / alone (no
LAPACK call). ``solve_quartic`` and ``classify_quartic`` give all four
complex roots from ``quartic.root_arrays`` (the companion matrix and
``eigvals``); the tests cross-check the interior roots against them.

``welfare_arrays`` holds every profile it evaluates as one (slot, row)
array of all-equal profiles (c, s): slots 0 and 1 are the quartic's
roots, 2-4 the optima of the faces c = d, s = 1 and c = s, 5 and 6 the
equilibria P* and P+. One expression gives the welfare of every slot,

    -alpha (s - x)^2 - beta n (w - c)^2 - (gamma + zeta) n (s - c)^2
        + r_d n + n (c - d) (r_s - r_d) / (s - d),

whose last term is taken as 0 on the face c = d, as n (r_s - r_d) on the
face c = s and as 0 on rows with r_s == r_d. The maximum is chosen among
slots 0-4, and the PoS divides the welfare of slot 5 or 6 by it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .batch import ParamBatch, RowErrors, one_row, where_max, where_min
from .errors import DegenerateDenominator, NumericalContractError
from .params import EPS_DEN, ModelParams, OpinionProfile
from .equilibria import EquilibriumArrays, EquilibriumPair, equilibrium_arrays
from .quartic import check_finite, interior_root_arrays, near_real, root_arrays

EQUILIBRIUM_WELFARE_TOL = 1e-9
POS_TIE_TOL = 1e-12

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
    pos_flags: Tuple[PosFlag, ...]  # in PosFlag order
    equilibria: EquilibriumPair


def coefficient_arrays(P: ParamBatch) -> np.ndarray:
    """(omega_0, ..., omega_4) of the interior-stationarity quartic in
    y = s - d, one row per game."""
    gz = P.gamma + P.zeta
    bgz = P.beta + gz
    omega = np.empty((len(P), 5))
    omega[:, 0] = P.n * np.square(P.r_d - P.r_s)
    omega[:, 1] = 2.0 * P.beta * P.n * (P.r_d - P.r_s) * (P.d - P.w)
    omega[:, 2] = 0.0
    omega[:, 3] = 4.0 * (P.beta * P.n * (P.d - P.w) * gz + P.alpha * (P.d - P.x) * bgz)
    omega[:, 4] = 4.0 * (P.beta * P.n * gz + P.alpha * bgz)
    return omega


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
        check_finite(row, errors)
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
        all_nonreal=not near_real(roots).any(),
        omega_member=(
            w4 - abs(w1) - abs(w3) + w0 > 0.0
            and 4.0 * w4 - abs(w1) - 3.0 * abs(w3) < 0.0
            and (delta_big <= 0.0 or d_big <= 0.0)
        ),
        sign_precondition_ok=w0 > 0.0 and w4 > 0.0 and w1 * w3 > 0.0,
    )


def _stationary_customer(P: ParamBatch, s, ratio):
    """The customers' stationary opinion at stated opinion ``s``, where
    ``ratio`` is (r_s - r_d) / (s - d) (0 when r_s == r_d)."""
    gz = P.gamma + P.zeta
    return (2.0 * P.beta * P.w + 2.0 * gz * s + ratio) / (2.0 * P.beta + 2.0 * gz)


def _unless_equal(P: ParamBatch, value, equal):
    """``value``, with ``equal`` on the rows where r_s == r_d."""
    return np.where(P.equal, equal, value) if P.any_equal else value


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
        flags = tuple(flag for flag, on in zip(PosFlag, self.flags[:, i].tolist()) if on)
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
    y = interior_root_arrays(coefficient_arrays(P), 1.0 - P.d + 1e-15, errors)
    gz = P.gamma + P.zeta
    gzn, bn = gz * P.n, P.beta * P.n

    # Slots 0 and 1: the quartic's roots, each with its stationary customer.
    s_root = P.d + y
    c_root = _stationary_customer(P, s_root, _unless_equal(P, P.dr / (s_root - P.d), 0.0))
    interior = (EPS_DEN < y) & (P.d < c_root) & (c_root < s_root)
    s_root = where_min(s_root, 1.0)
    if np.count_nonzero(interior):
        singular = _unless_equal(P, interior, False) & (np.abs(s_root - P.d) <= EPS_DEN)
        errors.add(singular.any(axis=0), lambda i: DegenerateDenominator(
            f"s = {s_root[np.argmax(singular[:, i]), i].item()} is within {EPS_DEN} of d = {P.d[i].item()}"))

    # Slot 2, face c = d; slot 3, face s = 1 (skipped when the domain
    # collapses to the corner d = 1); slot 4, face c = s.
    s_cd = where_min(where_max((P.alpha * P.x + gzn * P.d) / (P.alpha + gzn), P.d), 1.0)
    slope = _unless_equal(P, P.dr / (1.0 - P.d), 0.0)
    c_top = where_min(where_max(_stationary_customer(P, 1.0, slope), P.d), 1.0)
    lo = _unless_equal(P, where_min(P.d + 1e-9, 1.0), P.d)
    s_cs = where_min(where_max((P.alpha * P.x + bn * P.w) / (P.alpha + bn), lo), 1.0)

    # Slots 5 and 6: the equilibria P* and P+.
    eq = equilibrium_arrays(P, errors)
    c, s = np.empty((2, 7, len(P)))
    c[:2], c[2], c[3], c[4], c[5:] = c_root, P.d, c_top, s_cs, eq.c
    s[:2], s[2], s[3], s[4], s[5:] = s_root, s_cd, 1.0, s_cs, eq.roots
    # The interpolation term n (c - d) (r_s - r_d) / (s - d) is set exactly
    # on the faces: 0 on c = d, where s may equal d, and n (r_s - r_d) on
    # c = s.
    ret = P.dr / (s - P.d) * P.n * (c - P.d)
    ret[2], ret[4] = 0.0, P.n * P.dr
    value = (
        -P.alpha * np.square(s - P.x)
        - bn * np.square(P.w - c)
        - gzn * np.square(s - c)
        + P.r_d * P.n
        + _unless_equal(P, ret, 0.0)
    )

    star_geo, dagger_geo = eq.geometric
    present = np.ones((7, len(P)), dtype=bool)
    present[:2], present[3], present[5:] = interior, 1.0 - P.d > EPS_DEN, eq.geometric
    broken = present & ~np.isfinite(value)

    def not_finite(i):
        j = int(np.argmax(broken[:, i]))
        name = ("P*", "P+")[j - 5] if j >= 5 else LOCATIONS[max(j - 1, 0)]
        return NumericalContractError(f"welfare {value[j, i].item()!r} at {name} is not finite")

    errors.add(broken.any(axis=0), not_finite)
    cols = np.arange(len(P))
    winner = np.argmax(np.where(present[:5], value[:5], -np.inf), axis=0)
    sw_max = value[winner, cols]
    sw_at_star, sw_at_dagger = value[5:]

    negative = sw_max < 0.0
    flags = np.array([negative, ~star_geo & ~dagger_geo, ~negative & (np.abs(sw_max) <= POS_TIE_TOL)])
    pos = np.full(len(P), np.nan)
    if np.count_nonzero(eq.geometric):
        # The maximum bounds the welfare of every admissible equilibrium.
        for admissible, welfare, name in ((star_geo, sw_at_star, "P*"), (dagger_geo, sw_at_dagger, "P+")):
            above = admissible & (welfare > sw_max + EQUILIBRIUM_WELFARE_TOL * np.maximum(1.0, np.abs(welfare)))
            errors.add(above, lambda i, welfare=welfare, name=name: NumericalContractError(
                f"welfare {welfare[i].item()!r} at {name} exceeds the maximum {sw_max[i].item()!r}"))
        best = np.where(star_geo, np.where(dagger_geo, where_max(sw_at_star, sw_at_dagger), sw_at_star),
                        sw_at_dagger)
        pos = np.where(flags.any(axis=0), np.nan, best / sw_max)
    return WelfareArrays(
        sw_max=sw_max,
        location=np.maximum(winner - 1, 0),
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
