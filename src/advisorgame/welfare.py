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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (
    DegenerateLeadingCoefficient,
    MissingEquilibrium,
    NumericalContractError,
)
from .model import social_welfare
from .params import EPS_DEN, ModelParams, OpinionProfile
from .equilibria import EquilibriumPair, nash_equilibria

QUARTIC_RESIDUAL_TOL = 1e-8
REAL_ROOT_IMAG_TOL = 1e-9
POS_TIE_TOL = 1e-12


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


def quartic_coefficients(p: ModelParams) -> Tuple[float, float, float, float, float]:
    """(omega_0, ..., omega_4) of the interior-stationarity quartic in y = s - d."""
    gz = p.gamma + p.zeta
    bgz = p.beta + gz
    return (
        p.n * (p.r_d - p.r_s) ** 2,
        2.0 * p.beta * p.n * (p.r_d - p.r_s) * (p.d - p.w),
        0.0,
        4.0 * (p.beta * p.n * (p.d - p.w) * gz + p.alpha * (p.d - p.x) * bgz),
        4.0 * (p.beta * p.n * gz + p.alpha * bgz),
    )


def _poly_eval(omega, z):
    w0, w1, w2, w3, w4 = omega
    return (((w4 * z + w3) * z + w2) * z + w1) * z + w0


def _poly_deriv(omega, z):
    w0, w1, w2, w3, w4 = omega
    return ((4.0 * w4 * z + 3.0 * w3) * z + 2.0 * w2) * z + w1


def solve_quartic(omega) -> np.ndarray:
    """All four complex roots (with multiplicity) of the quartic.

    Roots come from the companion matrix; near-real roots are polished
    with a few Newton steps on the real axis. The residual contract is
    |p(root)| <= 1e-8 * sum|omega_i| * max(1, |root|)^4; the magnitude
    factor only matters for roots far outside the unit disc, where bare
    evaluation round-off already exceeds the unscaled bound.
    """
    omega = tuple(float(v) for v in omega)
    if abs(omega[4]) <= 1e-300:
        raise DegenerateLeadingCoefficient(f"leading coefficient {omega[4]!r}")
    roots = np.roots([omega[4], omega[3], omega[2], omega[1], omega[0]])
    roots = np.asarray(roots, dtype=complex)
    scale = sum(abs(v) for v in omega)
    polished = []
    for r in roots:
        if abs(r.imag) <= REAL_ROOT_IMAG_TOL * (1.0 + abs(r.real)):
            z = r.real
            for _ in range(4):
                dp = _poly_deriv(omega, z)
                if dp == 0.0:
                    break
                step = _poly_eval(omega, z) / dp
                z -= step
                if abs(step) <= 1e-16 * (1.0 + abs(z)):
                    break
            r = complex(z, 0.0)
        polished.append(r)
    roots = np.array(polished, dtype=complex)
    for r in roots:
        tol = QUARTIC_RESIDUAL_TOL * scale * max(1.0, abs(r)) ** 4
        if abs(_poly_eval(omega, r)) > tol:
            raise NumericalContractError(
                f"quartic residual at root {r!r} exceeds {tol!r}"
            )
    return roots


def classify_quartic(omega) -> QuarticAnalysis:
    """Discriminant-style invariants plus root-based classification.

    The all-nonreal verdict always comes from the computed roots; the
    sign-based equivalence (Delta > 0 and D > 0) is recorded for
    cross-checking but never trusted on its own.

    ``omega_member`` tests the coefficients against the region Omega and
    says nothing about the roots by itself. What holds for members is
    that their real roots lie outside the unit disc (|y| > 1). Their
    non-real conjugate pairs may lie inside it, so the claim that every
    root of a member leaves the unit disc is false.
    """
    omega = tuple(float(v) for v in omega)
    w0, w1, _w2, w3, w4 = omega
    delta_big = (
        256.0 * w4**3 * w0**3
        - 192.0 * w4**2 * w3 * w1 * w0**2
        - 27.0 * w4**2 * w1**4
        - 6.0 * w4 * w3**2 * w1**2 * w0
        - 27.0 * w3**4 * w0**2
        - 4.0 * w3**3 * w1**3
    )
    d_big = 64.0 * w4**3 * w0 - 16.0 * w4**2 * w3 * w1 - 3.0 * w3**4
    p_big = -3.0 * w3**2
    r_big = w3**3 + 8.0 * w1 * w4**2
    roots = solve_quartic(omega)
    all_nonreal = not any(
        abs(r.imag) <= REAL_ROOT_IMAG_TOL * (1.0 + abs(r.real)) for r in roots
    )
    omega_member = (
        w4 - abs(w1) - abs(w3) + w0 > 0.0
        and 4.0 * w4 - abs(w1) - 3.0 * abs(w3) < 0.0
        and (delta_big <= 0.0 or d_big <= 0.0)
    )
    sign_ok = w0 > 0.0 and w4 > 0.0 and w1 * w3 > 0.0
    return QuarticAnalysis(
        omega=omega,
        delta_big=delta_big,
        d_big=d_big,
        p_big=p_big,
        r_big=r_big,
        roots=tuple(roots),
        all_nonreal=all_nonreal,
        omega_member=omega_member,
        sign_precondition_ok=sign_ok,
    )


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


def _stationary_customer(p: ModelParams, s: float) -> float:
    ratio = 0.0 if p.r_s == p.r_d else (p.r_s - p.r_d) / (s - p.d)
    gz = p.gamma + p.zeta
    return (2.0 * p.beta * p.w + 2.0 * gz * s + ratio) / (2.0 * p.beta + 2.0 * gz)


def maximize_welfare(p: ModelParams) -> WelfareReport:
    """Global welfare maximum over the feasible set, plus PoS bookkeeping.

    Interior candidates are the real quartic roots y in (0, 1 - d] with
    their reconstructed customer coordinate inside (d, s); the three
    symmetric faces are each solved in closed form: the welfare along a
    face is a concave quadratic, maximized at its vertex clamped to the
    face's interval.
    """
    analysis = classify_quartic(quartic_coefficients(p))
    gz = p.gamma + p.zeta
    candidates = []  # (value, profile, location)

    for r in analysis.roots:
        if abs(r.imag) > REAL_ROOT_IMAG_TOL * (1.0 + abs(r.real)):
            continue
        y = r.real
        if not (EPS_DEN < y <= 1.0 - p.d + 1e-15):
            continue
        s = p.d + y
        c = _stationary_customer(p, s)
        if not (p.d < c < s):
            continue
        q = OpinionProfile.uniform(c, min(s, 1.0), p.n)
        candidates.append((social_welfare(p, q), q, "interior"))

    # Face c = d: the interpolation term is exactly zero.
    def f_cd(s):
        return (
            -p.alpha * (s - p.x) ** 2
            - p.beta * p.n * (p.w - p.d) ** 2
            - gz * p.n * (s - p.d) ** 2
            + p.r_d * p.n
        )

    s_best = min(max((p.alpha * p.x + gz * p.n * p.d) / (p.alpha + gz * p.n), p.d), 1.0)
    candidates.append((f_cd(s_best), OpinionProfile.uniform(p.d, s_best, p.n), "face:c=d"))

    # Face s = 1 (skipped when the domain collapses to the corner d = 1).
    if 1.0 - p.d > EPS_DEN:
        slope = 0.0 if p.r_s == p.r_d else (p.r_s - p.r_d) / (1.0 - p.d)

        def f_s1(c):
            return (
                -p.alpha * (1.0 - p.x) ** 2
                - p.beta * p.n * (p.w - c) ** 2
                - gz * p.n * (1.0 - c) ** 2
                + p.r_d * p.n
                + slope * p.n * (c - p.d)
            )

        c_best = min(max(_stationary_customer(p, 1.0), p.d), 1.0)
        candidates.append((f_s1(c_best), OpinionProfile.uniform(c_best, 1.0, p.n), "face:s=1"))

    # Face c = s: the interpolation term equals n (r_s - r_d) identically.
    def f_cs(s):
        return (
            -p.alpha * (s - p.x) ** 2
            - p.beta * p.n * (p.w - s) ** 2
            + p.r_d * p.n
            + p.n * (p.r_s - p.r_d)
        )

    lo = p.d if p.r_s == p.r_d else min(p.d + 1e-9, 1.0)
    s_best = min(max((p.alpha * p.x + p.beta * p.n * p.w) / (p.alpha + p.beta * p.n), lo), 1.0)
    candidates.append((f_cs(s_best), OpinionProfile.uniform(s_best, s_best, p.n), "face:c=s"))

    sw_max, argmax, location = max(candidates, key=lambda t: t[0])

    eq = nash_equilibria(p)
    sw_at_star = social_welfare(p, eq.p_star) if eq.star_admissible else None
    sw_at_dagger = social_welfare(p, eq.p_dagger) if eq.dagger_admissible else None

    flags = set()
    if sw_at_star is None and sw_at_dagger is None:
        flags.add(PosFlag.NO_EQUILIBRIA)
    if sw_max < 0.0:
        flags.add(PosFlag.NEGATIVE_DENOMINATOR)
    elif abs(sw_max) <= POS_TIE_TOL:
        flags.add(PosFlag.ZERO_DENOMINATOR)

    pos = None
    if not flags:
        best = max(v for v in (sw_at_star, sw_at_dagger) if v is not None)
        pos = best / sw_max

    return WelfareReport(
        sw_max=sw_max,
        argmax=argmax,
        location=location,
        sw_at_star=sw_at_star,
        sw_at_dagger=sw_at_dagger,
        pos=pos,
        pos_flags=frozenset(flags),
        equilibria=eq,
        quartic=analysis,
    )


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
