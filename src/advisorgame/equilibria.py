"""Nash equilibria of the homogeneous game and their admissibility.

Substituting the customers' best response into the advisor's yields a
quadratic in the stated opinion s:

    2 alpha s^2 - 2 alpha (d + x) s + 2 alpha x d - (gamma n / zeta) (r_s - r_d) = 0

whose roots a >= b generate the two candidate equilibria P* and P+.
A candidate is admissible when it lies in the acceptance triangle
d <= c <= s <= 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import (
    DegenerateDenominator,
    EqualReturns,
    NumericalContractError,
    UnsupportedN,
)
from .params import EPS_DEN, ModelParams, OpinionProfile

ROOT_RESIDUAL_TOL = 1e-10
CRITICAL_ZETA_TOL = 1e-9


class AdmissibilitySource(enum.Enum):
    GEOMETRIC = "geometric"
    REGION_FORMULA = "region_formula"
    BOTH = "both"


class LimitRegime(enum.Enum):
    ZETA_INF = "zeta_inf"
    ALPHA_INF = "alpha_inf"
    GAMMA_ZERO = "gamma_zero"


@dataclass(frozen=True)
class QuadraticRoots:
    """Roots of the equilibrium quadratic; absent when the discriminant
    (inside the square root of the closed form) is negative."""

    a: Optional[float]
    b: Optional[float]
    discriminant: float

    @property
    def real(self) -> bool:
        return self.a is not None

    @property
    def degenerate(self) -> bool:
        return self.a is not None and self.a == self.b


@dataclass(frozen=True)
class AdmissibilityThresholds:
    """Width of the r_s windows below r_d in which P* / P+ stay feasible."""

    r_d_1: float  # alpha zeta / (2 gamma n) (x - d)^2
    r_d_2: float  # 2 zeta alpha^2 ((x - d) / (alpha + gamma n))^2


@dataclass(frozen=True)
class CriticalZeta:
    """Dissonance level at which the P+ customer coordinate hits c = d (n = 1)."""

    zeta_bar: float
    last_useful_equilibrium: Tuple[float, float]
    positive: bool


@dataclass(frozen=True)
class EquilibriumPair:
    p_star: Optional[OpinionProfile]
    p_dagger: Optional[OpinionProfile]
    star_admissible: bool
    dagger_admissible: bool
    admissibility_source: AdmissibilitySource
    roots: QuadraticRoots
    degenerate: bool = False
    # Individual verdicts; the region entries stay None when r_s == r_d.
    star_geometric: bool = False
    dagger_geometric: bool = False
    star_region: Optional[bool] = None
    dagger_region: Optional[bool] = None


def quadratic_discriminant(p: ModelParams) -> float:
    """The expression under the square root of the root closed form.

    Raises DegenerateDenominator when alpha * zeta underflows to 0.
    """
    alpha_zeta = p.alpha * p.zeta
    if alpha_zeta == 0.0:
        raise DegenerateDenominator(f"alpha * zeta = {p.alpha!r} * {p.zeta!r} underflows to 0")
    return (p.d - p.x) ** 2 + (2.0 * p.gamma * p.n) / alpha_zeta * (p.r_s - p.r_d)


def _residual_check(p: ModelParams, root: float) -> None:
    coeffs = (
        2.0 * p.alpha,
        -2.0 * p.alpha * (p.d + p.x),
        2.0 * p.alpha * p.x * p.d - (p.gamma * p.n / p.zeta) * (p.r_s - p.r_d),
    )
    res = (coeffs[0] * root + coeffs[1]) * root + coeffs[2]
    scale = max(1.0, max(abs(c) for c in coeffs))
    if abs(res) > ROOT_RESIDUAL_TOL * scale:
        raise NumericalContractError(
            f"quadratic residual {res!r} exceeds {ROOT_RESIDUAL_TOL} * {scale}"
        )


def solve_quadratic(p: ModelParams) -> QuadraticRoots:
    """Both candidate stated opinions, or none when they are complex.

    ``a`` is always the '+' root of the closed form. The smaller root is
    recovered from the product of roots to avoid cancellation, and the
    r_s == r_d case short-circuits to the exact values max(d, x) and
    min(d, x).
    """
    disc = quadratic_discriminant(p)
    if p.r_s == p.r_d:
        # Correction term is exactly zero; keep the roots exact.
        return QuadraticRoots(a=max(p.d, p.x), b=min(p.d, p.x), discriminant=disc)
    if disc < 0.0:
        return QuadraticRoots(a=None, b=None, discriminant=disc)
    mid = 0.5 * (p.d + p.x)
    half = 0.5 * math.sqrt(disc)
    a = mid + half
    if a == 0.0:
        b = mid - half
    else:
        product = p.x * p.d - p.gamma * p.n * (p.r_s - p.r_d) / (2.0 * p.alpha * p.zeta)
        b = product / a
    _residual_check(p, a)
    _residual_check(p, b)
    return QuadraticRoots(a=a, b=b, discriminant=disc)


def _profile_at_root(p: ModelParams, root: float) -> Optional[OpinionProfile]:
    if p.r_s == p.r_d:
        return OpinionProfile.uniform(root, root, p.n)
    if abs(root - p.d) <= EPS_DEN:
        return None
    c = (p.r_s - p.r_d) / (2.0 * p.zeta * (root - p.d)) + root
    return OpinionProfile.uniform(c, root, p.n)


def nash_equilibria(p: ModelParams) -> EquilibriumPair:
    """Builds P* and P+ from the quadratic roots and judges admissibility.

    Candidates falling outside the acceptance triangle are constructed
    and marked inadmissible rather than suppressed, so parameter sweeps
    can show their excursion out of the feasible region.
    """
    roots = solve_quadratic(p)
    if not roots.real:
        return EquilibriumPair(
            p_star=None,
            p_dagger=None,
            star_admissible=False,
            dagger_admissible=False,
            admissibility_source=AdmissibilitySource.GEOMETRIC,
            roots=roots,
        )

    p_star = _profile_at_root(p, roots.a)
    degenerate = roots.degenerate
    p_dagger = p_star if degenerate else _profile_at_root(p, roots.b)

    star_geo = p_star is not None and p_star.in_domain(p.d)
    dagger_geo = p_dagger is not None and p_dagger.in_domain(p.d)

    star_region = dagger_region = None
    source = AdmissibilitySource.GEOMETRIC
    if p.r_s != p.r_d:
        star_region, dagger_region, _ = check_admissibility_regions(p)
        if star_region == star_geo and dagger_region == dagger_geo:
            source = AdmissibilitySource.BOTH

    return EquilibriumPair(
        p_star=p_star,
        p_dagger=p_dagger,
        star_admissible=star_geo,
        dagger_admissible=dagger_geo,
        admissibility_source=source,
        roots=roots,
        degenerate=degenerate,
        star_geometric=star_geo,
        dagger_geometric=dagger_geo,
        star_region=star_region,
        dagger_region=dagger_region,
    )


def admissibility_thresholds(p: ModelParams) -> AdmissibilityThresholds:
    gn = p.gamma * p.n
    span = p.x - p.d
    return AdmissibilityThresholds(
        r_d_1=p.alpha * p.zeta / (2.0 * gn) * span**2,
        r_d_2=2.0 * p.zeta * p.alpha**2 * (span / (p.alpha + gn)) ** 2,
    )


def check_admissibility_regions(p: ModelParams):
    """Closed-form admissibility verdicts for P* and P+ (r_s != r_d).

    Returns (star, dagger, thresholds).
    """
    if p.r_s == p.r_d:
        raise EqualReturns("region formulas require r_s != r_d")
    thr = admissibility_thresholds(p)
    gn = p.gamma * p.n
    star = dagger = False
    if p.d < p.x:
        if p.alpha < gn:
            star = p.r_d - thr.r_d_1 <= p.r_s < p.r_d
            dagger = p.r_d - thr.r_d_1 <= p.r_s <= p.r_d - thr.r_d_2
        else:
            star = p.r_d - thr.r_d_2 <= p.r_s < p.r_d
    return star, dagger, thr


def limit_equilibria(p: ModelParams, which: LimitRegime):
    """Limit positions of the equilibria for extreme parameter values.

    ZETA_INF is the two-point limit (n = 1 only); ALPHA_INF and
    GAMMA_ZERO each leave a single surviving equilibrium at s = x.
    """
    if which is LimitRegime.ZETA_INF:
        if p.n != 1:
            raise UnsupportedN("the zeta -> inf closed forms are stated for n = 1")
        mid = 0.5 * (p.d + p.x)
        half = 0.5 * abs(p.d - p.x)
        gap = p.x - p.d
        s_star = mid + half
        s_dag = mid - half
        c_star = s_star - p.alpha * (gap - abs(gap)) / (2.0 * p.gamma)
        c_dag = s_dag - p.alpha * (gap + abs(gap)) / (2.0 * p.gamma)
        return [
            OpinionProfile.uniform(c_star, s_star, p.n),
            OpinionProfile.uniform(c_dag, s_dag, p.n),
        ]
    if which is LimitRegime.ALPHA_INF:
        return [OpinionProfile.uniform(p.x, p.x, p.n)]
    if which is LimitRegime.GAMMA_ZERO:
        if p.x == p.d:
            raise DegenerateDenominator("the gamma -> 0 customer coordinate needs x != d")
        c = (p.r_s - p.r_d) / (2.0 * p.zeta * (p.x - p.d)) + p.x
        return [OpinionProfile.uniform(c, p.x, p.n)]
    raise ValueError(f"unknown limit regime {which!r}")


def critical_zeta(p: ModelParams) -> CriticalZeta:
    """Dissonance threshold past which P+ leaves the acceptance triangle.

    Only defined for n = 1 and x != d. When r_s >= r_d the value is
    non-positive and flagged; no threshold exists in that regime.
    """
    if p.n != 1:
        raise UnsupportedN("the critical dissonance value is stated for n = 1")
    gap_sq = (p.x - p.d) ** 2
    if gap_sq == 0.0:
        raise DegenerateDenominator(f"the critical dissonance value needs (x - d)^2 > 0, got {gap_sq!r}")
    zeta_bar = -0.5 * ((p.alpha + p.gamma) / p.alpha) ** 2 * (p.r_s - p.r_d) / gap_sq
    if not math.isfinite(zeta_bar):
        raise DegenerateDenominator(f"the critical dissonance value overflows at (x - d)^2 = {gap_sq!r}")
    last = (
        0.5 * (p.d + p.x) - 0.5 * abs((p.d - p.x) * (p.alpha - p.gamma)) / (p.alpha + p.gamma),
        p.d,
    )
    positive = zeta_bar > 0.0
    if positive and p.d < p.x:
        # At zeta = zeta_bar one equilibrium's customer coordinate must sit
        # on c = d: the lower branch when alpha <= gamma, the upper branch
        # otherwise (the face-hitting root switches with the sign of
        # alpha - gamma).
        at_bar = nash_equilibria(p.replace(zeta=zeta_bar))
        profiles = [q for q in (at_bar.p_star, at_bar.p_dagger) if q is not None]
        if not profiles and at_bar.roots.discriminant > -CRITICAL_ZETA_TOL:
            # alpha = gamma makes the discriminant at zeta_bar exactly zero;
            # rounding can push it barely negative. Use the double root.
            mid = 0.5 * (p.d + p.x)
            at_mid = _profile_at_root(p.replace(zeta=zeta_bar), mid)
            profiles = [at_mid] if at_mid is not None else []
        if not profiles:
            raise NumericalContractError(
                "both equilibria vanished at the critical dissonance value"
            )
        miss = min(abs(q.c[0] - p.d) for q in profiles)
        if miss > CRITICAL_ZETA_TOL:
            raise NumericalContractError(
                f"no customer coordinate is on c = d at zeta_bar (miss {miss!r})"
            )
    return CriticalZeta(zeta_bar=zeta_bar, last_useful_equilibrium=last, positive=positive)
