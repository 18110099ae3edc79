"""Nash equilibria of the homogeneous game and their admissibility.

Substituting the customers' best response into the advisor's yields a
quadratic in the stated opinion s:

    2 alpha s^2 - 2 alpha (d + x) s + 2 alpha x d - (gamma n / zeta) (r_s - r_d) = 0

whose roots a >= b generate the two candidate equilibria P* and P+.
A candidate is admissible when it lies in the acceptance triangle
d <= c <= s <= 1.

The closed forms are written once, over a ``ParamBatch`` of many games
(the ``*_arrays`` kernels, called under ``np.errstate(all="ignore")``
with a ``RowErrors`` that collects each row's first error); the public
functions are the same kernels on a batch of one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .batch import ParamBatch, RowErrors, one_row, where_max, where_min
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
    # The closed-form verdicts; None when r_s == r_d.
    star_region: Optional[bool] = None
    dagger_region: Optional[bool] = None


class EquilibriumArrays(NamedTuple):
    """The equilibrium pair of every row of a batch.

    The (2, rows) arrays hold P* in row 0 and P+ in row 1: ``roots`` are
    the stated opinions a and b (NaN where the roots are complex),
    ``present`` whether the profile exists, ``c`` its customer coordinate,
    ``geometric`` the triangle verdict and ``region_verdict`` the
    closed-form one, which is meaningful only where ``region`` (real roots
    and r_s != r_d). ``agree`` marks the ``region`` rows whose two verdicts
    match for both equilibria. ``thresholds`` holds (r_d_1, r_d_2) of every
    row, or None when no row has a region verdict.
    """

    disc: np.ndarray
    real: np.ndarray
    degenerate: np.ndarray
    roots: np.ndarray
    present: np.ndarray
    c: np.ndarray
    geometric: np.ndarray
    region: np.ndarray
    region_verdict: np.ndarray
    agree: np.ndarray
    thresholds: Optional[Tuple[np.ndarray, np.ndarray]]

    def pair(self, i: int, n: int) -> EquilibriumPair:
        """Row ``i`` as an ``EquilibriumPair`` with ``n`` customers."""
        a, b = self.roots[:, i].tolist() if self.real[i] else (None, None)
        c_star, c_dagger = self.c[:, i].tolist()
        has_star, has_dagger = self.present[:, i].tolist()
        star_geo, dagger_geo = self.geometric[:, i].tolist()
        p_star = OpinionProfile.uniform(c_star, a, n) if has_star else None
        p_dagger = OpinionProfile.uniform(c_dagger, b, n) if has_dagger else None
        star_region, dagger_region = self.region_verdict[:, i].tolist() if self.region[i] else (None, None)
        source = AdmissibilitySource.BOTH if self.agree[i] else AdmissibilitySource.GEOMETRIC
        return EquilibriumPair(
            p_star=p_star,
            p_dagger=p_dagger,
            star_admissible=star_geo,
            dagger_admissible=dagger_geo,
            admissibility_source=source,
            roots=QuadraticRoots(a=a, b=b, discriminant=self.disc[i].item()),
            degenerate=bool(self.degenerate[i]),
            star_region=star_region,
            dagger_region=dagger_region,
        )


def discriminant_arrays(P: ParamBatch, errors: RowErrors) -> np.ndarray:
    """The expression under the square root of the root closed form.

    A row fails with DegenerateDenominator when alpha * zeta underflows
    to 0, and with NumericalContractError when the expression is not
    finite.
    """
    alpha_zeta = P.alpha * P.zeta
    errors.add(alpha_zeta == 0.0, lambda i: DegenerateDenominator(
        f"alpha * zeta = {P.alpha[i].item()!r} * {P.zeta[i].item()!r} underflows to 0"))
    disc = np.square(P.d - P.x) + (2.0 * P.gamma * P.n) / alpha_zeta * P.dr
    errors.add(~np.isfinite(disc), lambda i: NumericalContractError(
        f"quadratic discriminant {disc[i].item()!r} is not finite"))
    return disc


def quadratic_discriminant(p: ModelParams) -> float:
    """The expression under the square root of the root closed form.

    Raises DegenerateDenominator when alpha * zeta underflows to 0 and
    NumericalContractError when the expression is not finite.
    """
    return one_row(discriminant_arrays, ParamBatch.of([p]))[0].item()


def _residual_check(P: ParamBatch, roots, rows, errors: RowErrors, two_alpha, d_plus_x) -> None:
    """Rows in the ``rows`` mask fail when a root (a first, then b)
    leaves the quadratic's residual contract."""
    c1 = -two_alpha * d_plus_x
    c2 = two_alpha * P.x * P.d - (P.gn / P.zeta) * P.dr
    res = (two_alpha * roots + c1) * roots + c2
    size = np.abs(res)
    # The bound, ROOT_RESIDUAL_TOL * max(1, |c0|, |c1|, |c2|), is never
    # below ROOT_RESIDUAL_TOL, so smaller residuals pass without it.
    if not np.count_nonzero(size > ROOT_RESIDUAL_TOL):
        return
    # Where a coefficient is NaN, so is the residual, and no comparison
    # with it holds whatever the scale.
    scale = np.maximum(np.abs(np.array([two_alpha, c1, c2])).max(axis=0), 1.0)
    bad = rows & (size > ROOT_RESIDUAL_TOL * scale)
    errors.add(bad[0] | bad[1], lambda i: NumericalContractError(
        f"quadratic residual {res[0 if bad[0, i] else 1, i].item()!r} "
        f"exceeds {ROOT_RESIDUAL_TOL} * {scale[i].item()}"))


def quadratic_arrays(P: ParamBatch, errors: RowErrors):
    """(discriminant, real, roots) of every row: ``roots`` holds a and b,
    NaN where they are complex.

    ``a`` is always the '+' root of the closed form. The smaller root is
    recovered from the product of roots to avoid cancellation, and rows
    with r_s == r_d take the exact values max(d, x) and min(d, x).
    """
    disc = discriminant_arrays(P, errors)
    real = solved = ~(disc < 0.0)
    if P.any_equal:
        real, solved = real | P.equal, real & ~P.equal
    if np.count_nonzero(solved):
        # Rows with disc < 0 get NaN roots from the square root.
        two_alpha = 2.0 * P.alpha
        d_plus_x = P.d + P.x
        mid = 0.5 * d_plus_x
        half = 0.5 * np.sqrt(disc)
        a = mid + half
        product = P.x * P.d - P.gn * P.dr / (two_alpha * P.zeta)
        b = product / a
        if np.count_nonzero(a == 0.0):
            b = np.where(a == 0.0, mid - half, b)
        roots = np.array([a, b])
        _residual_check(P, roots, solved, errors, two_alpha, d_plus_x)
    else:
        roots = np.full((2, len(P)), np.nan)
    if P.any_equal:
        roots = np.where(P.equal, np.array([where_max(P.d, P.x), where_min(P.d, P.x)]), roots)
    return disc, real, roots


def solve_quadratic(p: ModelParams) -> QuadraticRoots:
    """Both candidate stated opinions, or none when they are complex.

    ``a`` is always the '+' root of the closed form. The smaller root is
    recovered from the product of roots to avoid cancellation, and the
    r_s == r_d case short-circuits to the exact values max(d, x) and
    min(d, x).
    """
    disc, real, roots = one_row(quadratic_arrays, ParamBatch.of([p]))
    if not real[0]:
        return QuadraticRoots(a=None, b=None, discriminant=disc[0].item())
    a, b = roots[:, 0].tolist()
    return QuadraticRoots(a=a, b=b, discriminant=disc[0].item())


def _customer_at(P: ParamBatch, root):
    """(present, c): the customer coordinate of the profile at ``root``,
    absent at the s = d singularity unless r_s == r_d (then c = s)."""
    offset = root - P.d
    present = ~(np.abs(offset) <= EPS_DEN)
    c = P.dr / (2.0 * P.zeta * offset) + root
    if P.any_equal:
        present, c = present | P.equal, np.where(P.equal, root, c)
    return present, c


def threshold_arrays(P: ParamBatch):
    """(r_d_1, r_d_2) of every row."""
    span = P.x - P.d
    span_sq, alpha_sq, ratio_sq = np.square(np.array([span, P.alpha, span / (P.alpha + P.gn)]))
    return P.alpha * P.zeta / (2.0 * P.gn) * span_sq, 2.0 * P.zeta * alpha_sq * ratio_sq


def check_thresholds(r_d_1, r_d_2, rows, errors: RowErrors) -> None:
    """Rows in the ``rows`` mask fail where a threshold is not finite."""
    errors.add(rows & ~(np.isfinite(r_d_1) & np.isfinite(r_d_2)), lambda i: NumericalContractError(
        f"admissibility thresholds r_d_1 = {r_d_1[i].item()!r}, r_d_2 = {r_d_2[i].item()!r} are not finite"))


def _region_verdicts(P: ParamBatch, r_d_1, r_d_2):
    """The (star, dagger) verdicts of the closed-form windows."""
    weak = P.alpha < P.gn
    low_1 = P.r_d - r_d_1 <= P.r_s
    low_2 = P.r_d - r_d_2
    opens = P.d < P.x
    star = opens & (P.r_s < P.r_d) & np.where(weak, low_1, low_2 <= P.r_s)
    dagger = opens & weak & low_1 & (P.r_s <= low_2)
    return np.array([star, dagger])


def equilibrium_arrays(P: ParamBatch, errors: RowErrors) -> EquilibriumArrays:
    """P* and P+ of every row, with their geometric and region verdicts.

    A row fails with NumericalContractError when the customer coordinate
    of a present equilibrium is not finite. Stages that no row of the
    batch needs are skipped.
    """
    disc, real, roots = quadratic_arrays(P, errors)
    region = real & ~P.equal if P.any_equal else real
    present, geometric, region_verdict = np.zeros((3, 2, len(P)), dtype=bool)
    agree = np.zeros(len(P), dtype=bool)
    c, thresholds = roots, None
    real_rows = np.count_nonzero(real)
    if real_rows:
        present, c = _customer_at(P, roots)
        if real_rows < len(P):
            present &= real
        broken = present & ~np.isfinite(c)
        errors.add(broken.any(axis=0), lambda i: NumericalContractError(
            f"customer coordinate {c[0 if broken[0, i] else 1, i].item()!r} of "
            f"{'P*' if broken[0, i] else 'P+'} is not finite"))
        geometric = present & (c >= P.d) & (c <= roots) & (roots <= 1.0)
    if np.count_nonzero(region):
        thresholds = threshold_arrays(P)
        check_thresholds(*thresholds, region, errors)
        region_verdict = _region_verdicts(P, *thresholds)
        agree = region & (region_verdict == geometric).all(axis=0)
    return EquilibriumArrays(
        disc=disc,
        real=real,
        degenerate=real & (roots[0] == roots[1]),
        roots=roots,
        present=present,
        c=c,
        geometric=geometric,
        region=region,
        region_verdict=region_verdict,
        agree=agree,
        thresholds=thresholds,
    )


def nash_equilibria(p: ModelParams) -> EquilibriumPair:
    """Builds P* and P+ from the quadratic roots and judges admissibility.

    Candidates falling outside the acceptance triangle are constructed
    and marked inadmissible rather than suppressed, so parameter sweeps
    can show their excursion out of the feasible region.
    """
    return one_row(equilibrium_arrays, ParamBatch.of([p])).pair(0, p.n)


def admissibility_thresholds(p: ModelParams) -> AdmissibilityThresholds:
    """The r_s windows below r_d in which P* and P+ stay feasible; raises
    NumericalContractError when a threshold is not finite."""

    def kernel(P, errors):
        r_d_1, r_d_2 = threshold_arrays(P)
        check_thresholds(r_d_1, r_d_2, True, errors)
        return r_d_1, r_d_2

    r_d_1, r_d_2 = one_row(kernel, ParamBatch.of([p]))
    return AdmissibilityThresholds(r_d_1=r_d_1[0].item(), r_d_2=r_d_2[0].item())


def check_admissibility_regions(p: ModelParams):
    """Closed-form admissibility verdicts for P* and P+ (r_s != r_d).

    Returns (star, dagger, thresholds).
    """
    if p.r_s == p.r_d:
        raise EqualReturns("region formulas require r_s != r_d")
    thresholds = admissibility_thresholds(p)
    verdicts = _region_verdicts(ParamBatch.of([p]), thresholds.r_d_1, thresholds.r_d_2)
    star, dagger = verdicts[:, 0].tolist()
    return star, dagger, thresholds


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


def critical_zeta_arrays(P: ParamBatch, errors: RowErrors):
    """(zeta_bar, last useful stated opinion, positive) of every row, for
    rows with n = 1 and x != d.

    Where zeta_bar > 0 and d < x, the equilibria are solved again at
    zeta_bar, and one customer coordinate must sit on c = d there: the
    lower branch when alpha <= gamma, the upper branch otherwise (the
    face-hitting root switches with the sign of alpha - gamma). That root
    is d + (x - d) alpha / (alpha + gamma), which can lie within EPS_DEN
    of d, where its equilibrium is absent; so both real roots are
    measured, present or not.
    """
    gap_sq, ratio_sq = np.square(np.array([P.x - P.d, (P.alpha + P.gamma) / P.alpha]))
    errors.add(gap_sq == 0.0, lambda i: DegenerateDenominator(
        f"the critical dissonance value needs (x - d)^2 > 0, got {gap_sq[i].item()!r}"))
    zeta_bar = -0.5 * ratio_sq * P.dr / gap_sq
    errors.add(~np.isfinite(zeta_bar), lambda i: DegenerateDenominator(
        f"the critical dissonance value overflows at (x - d)^2 = {gap_sq[i].item()!r}"))
    last = 0.5 * (P.d + P.x) - 0.5 * np.abs((P.d - P.x) * (P.alpha - P.gamma)) / (P.alpha + P.gamma)
    positive = zeta_bar > 0.0
    rows = np.flatnonzero(positive & (P.d < P.x) & np.isfinite(zeta_bar))
    if rows.size:
        Q = P.take(rows).replace(zeta=zeta_bar[rows])
        at_bar_errors = RowErrors()
        at_bar = equilibrium_arrays(Q, at_bar_errors)
        # alpha = gamma makes the discriminant at zeta_bar exactly zero;
        # rounding can push it barely negative. Use the double root.
        double = ~at_bar.real & (at_bar.disc > -CRITICAL_ZETA_TOL)
        at_bar_errors.add(~at_bar.real & ~double, lambda i: NumericalContractError(
            "both equilibria vanished at the critical dissonance value"))
        c = np.where(double, _customer_at(Q, 0.5 * (Q.d + Q.x))[1], at_bar.c)
        miss = np.fmin(*np.abs(c - Q.d))
        at_bar_errors.add(~(miss <= CRITICAL_ZETA_TOL), lambda i: NumericalContractError(
            f"no customer coordinate is on c = d at zeta_bar (miss {miss[i].item()!r})"))
        errors.merge(at_bar_errors, rows)
    return zeta_bar, last, positive


def critical_zeta(p: ModelParams) -> CriticalZeta:
    """Dissonance threshold past which P+ leaves the acceptance triangle.

    Only defined for n = 1 and x != d. When r_s >= r_d the value is
    non-positive and flagged; no threshold exists in that regime.
    """
    if p.n != 1:
        raise UnsupportedN("the critical dissonance value is stated for n = 1")
    zeta_bar, last, positive = one_row(critical_zeta_arrays, ParamBatch.of([p]))
    return CriticalZeta(
        zeta_bar=zeta_bar[0].item(),
        last_useful_equilibrium=(last[0].item(), p.d),
        positive=bool(positive[0]),
    )
