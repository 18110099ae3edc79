"""Quadratic roots, equilibrium admissibility, limits and the critical
dissonance threshold."""

import numpy as np
import pytest

from advisorgame import (
    AdmissibilitySource,
    EPS_DEN,
    DegenerateDenominator,
    EqualReturns,
    ModelParams,
    NumericalContractError,
    OpinionProfile,
    UnsupportedN,
    advisor_best_response,
    check_admissibility_regions,
    critical_zeta,
    customer_best_response,
    nash_equilibria,
    solve_quadratic,
)

from conftest import draw_params


class TestQuadraticRoots:
    def test_two_equilibria_configuration(self, fig1):
        roots = solve_quadratic(fig1)
        assert roots.discriminant == pytest.approx(0.01, rel=1e-12)
        assert roots.a == pytest.approx(0.3, abs=1e-12)
        assert roots.b == pytest.approx(0.2, abs=1e-12)
        assert roots.a >= roots.b

    def test_high_dissonance_has_no_roots(self, fig1):
        roots = solve_quadratic(fig1.replace(zeta=5.0))
        assert roots.discriminant == pytest.approx(-0.07, rel=1e-12)
        assert roots.discriminant < 0.0
        assert roots.a is None and roots.b is None

    def test_high_influence_has_no_roots(self, fig1):
        roots = solve_quadratic(fig1.replace(gamma=0.3))
        assert roots.discriminant == pytest.approx(-0.03, rel=1e-12)
        assert roots.discriminant < 0.0

    def test_vanishing_upper_root_keeps_the_lower_root(self):
        # At d = x = 0 the discriminant underflows to 0, so a = 0 and the
        # product of the roots, 0 / 0, cannot give b.
        p = ModelParams(d=0.0, x=0.0, w=0.5, n=1, alpha=1e300, beta=0.1, gamma=1e-300, zeta=1.0,
                        r_d=0.3, r_s=0.4)
        roots = solve_quadratic(p)
        assert (roots.a, roots.b, roots.discriminant) == (0.0, 0.0, 0.0)

    def test_residuals_on_random_draws(self, fig1):
        rng = np.random.default_rng(3)
        count = 0
        while count < 300:
            p = draw_params(rng)
            roots = solve_quadratic(p)
            if not roots.real:
                continue
            count += 1
            for root in (roots.a, roots.b):
                res = (2 * p.alpha * root**2
                       - 2 * p.alpha * (p.d + p.x) * root
                       + 2 * p.alpha * p.x * p.d
                       - (p.gamma * p.n / p.zeta) * (p.r_s - p.r_d))
                scale = max(1.0, 2 * p.alpha * (1 + p.d + p.x + p.x * p.d),
                            p.gamma * p.n / p.zeta)
                assert abs(res) <= 1e-10 * scale

    def test_residual_contract_catches_a_wrong_root(self, fig1, monkeypatch):
        # A square root 0.01 too large moves a to 0.305 and b with it, off
        # the roots 0.3 and 0.2 of the quadratic.
        sqrt = np.sqrt
        monkeypatch.setattr(np, "sqrt", lambda x: sqrt(x) + 0.01)
        with pytest.raises(NumericalContractError, match="^quadratic residual"):
            solve_quadratic(fig1)

    def test_discriminant_monotone_in_dissonance(self, fig1):
        zetas = np.linspace(5.0, 40.0, 50)
        discs = [solve_quadratic(fig1.replace(zeta=z)).discriminant for z in zetas]
        assert all(d2 > d1 for d1, d2 in zip(discs, discs[1:]))


class TestNashEquilibria:
    def test_two_equilibria_configuration(self, fig1):
        eq = nash_equilibria(fig1)
        assert eq.p_star.s == pytest.approx(0.3, abs=1e-9)
        assert eq.p_star.c[0] == pytest.approx(0.275, abs=1e-9)
        assert eq.p_dagger.s == pytest.approx(0.2, abs=1e-9)
        assert eq.p_dagger.c[0] == pytest.approx(0.15, abs=1e-9)
        assert eq.star_admissible and eq.dagger_admissible
        assert eq.admissibility_source is AdmissibilitySource.BOTH
        assert not eq.degenerate

    def test_absent_when_discriminant_negative(self, fig1):
        eq = nash_equilibria(fig1.replace(zeta=5.0))
        assert eq.p_star is None and eq.p_dagger is None
        assert not eq.star_admissible and not eq.dagger_admissible

    def test_equal_returns_exact_points(self, fig1):
        eq = nash_equilibria(fig1.replace(r_s=0.3))
        assert eq.p_star == OpinionProfile.uniform(0.4, 0.4, 1)
        assert eq.p_dagger == OpinionProfile.uniform(0.1, 0.1, 1)
        assert eq.star_admissible and eq.dagger_admissible
        assert eq.admissibility_source is AdmissibilitySource.GEOMETRIC

    def test_equal_returns_coincident_point(self, fig1):
        eq = nash_equilibria(fig1.replace(r_s=0.3, d=0.4))
        assert eq.degenerate
        assert eq.p_star == eq.p_dagger == OpinionProfile.uniform(0.4, 0.4, 1)

    def test_equal_returns_baseline_above_internal(self, fig1):
        eq = nash_equilibria(fig1.replace(r_s=0.3, d=0.6))
        assert eq.p_star == OpinionProfile.uniform(0.6, 0.6, 1)
        assert eq.star_admissible
        # The second candidate sits below the baseline and is rejected.
        assert eq.p_dagger == OpinionProfile.uniform(0.4, 0.4, 1)
        assert not eq.dagger_admissible

    def test_equilibria_are_best_response_fixed_points(self):
        rng = np.random.default_rng(5)
        count = 0
        while count < 500:
            p = draw_params(rng)
            eq = nash_equilibria(p)
            if not eq.roots.real:
                continue
            for prof in (eq.p_star, eq.p_dagger):
                if prof is None or abs(prof.s - p.d) <= 1e-6:
                    continue
                count += 1
                assert advisor_best_response(p, prof.c) == pytest.approx(
                    prof.s, abs=1e-9)
                assert customer_best_response(p.customer(), prof.s) == pytest.approx(
                    prof.c[0], abs=1e-9)


class TestAdmissibilityRegions:
    def test_two_equilibria_thresholds(self, fig1):
        star, dagger, (r_d_1, r_d_2) = check_admissibility_regions(fig1)
        assert r_d_1 == pytest.approx(0.1125, rel=1e-12)
        assert r_d_2 == pytest.approx(0.072, rel=1e-12)
        assert star and dagger

    def test_baseline_above_internal_rejects_both(self, fig1):
        star, dagger, _ = check_admissibility_regions(fig1.replace(d=0.6))
        assert not star and not dagger

    def test_strong_truthfulness_keeps_only_the_upper_point(self, fig1):
        p = fig1.replace(alpha=1.0)
        star, dagger, _ = check_admissibility_regions(p)
        assert star and not dagger
        eq = nash_equilibria(p)
        assert eq.star_admissible and not eq.dagger_admissible

    def test_equal_returns_rejected(self, fig1):
        with pytest.raises(EqualReturns):
            check_admissibility_regions(fig1.replace(r_s=0.3))

    def test_threshold_ordering(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            p = draw_params(rng)
            if p.r_s == p.r_d:
                continue
            _, _, (r_d_1, r_d_2) = check_admissibility_regions(p)
            assert r_d_1 >= 0.0 and r_d_2 >= 0.0
            if p.alpha <= p.gamma * p.n:
                assert r_d_2 <= r_d_1 * (1 + 1e-12)

    def test_region_formula_matches_geometry(self):
        rng = np.random.default_rng(19)
        count = 0
        while count < 500:
            p = draw_params(rng)
            if p.r_s == p.r_d:
                continue
            eq = nash_equilibria(p)
            if not eq.roots.real:
                continue
            count += 1
            assert eq.star_region == eq.star_admissible
            assert eq.dagger_region == eq.dagger_admissible
            assert eq.admissibility_source is AdmissibilitySource.BOTH


class TestLimits:
    # The equilibria at extreme parameter values, against the limits
    # worked out by hand for fig1: as zeta -> inf the roots tend to x and
    # d and each customer coordinate to its best response there; as
    # alpha -> inf or gamma -> 0 the advisor states s = x.
    def test_infinite_dissonance_two_points(self, fig1):
        eq = nash_equilibria(fig1.replace(zeta=1e8))
        assert eq.p_star.c[0] == pytest.approx(0.4, abs=1e-7)
        assert eq.p_star.s == pytest.approx(0.4, abs=1e-7)
        assert eq.p_dagger.c[0] == pytest.approx(0.025, abs=1e-7)
        assert eq.p_dagger.s == pytest.approx(0.1, abs=1e-7)

    def test_infinite_dissonance_is_approached(self, fig1):
        limits = np.array([0.4, 0.4, 0.025, 0.1])
        misses = []
        for zeta in (1e4, 1e6, 1e8):
            eq = nash_equilibria(fig1.replace(zeta=zeta))
            point = [eq.p_star.c[0], eq.p_star.s, eq.p_dagger.c[0], eq.p_dagger.s]
            misses.append(np.max(np.abs(np.array(point) - limits)))
        assert misses[0] > 10.0 * misses[1] > 100.0 * misses[2]

    def test_infinite_dissonance_reversed_opinions(self, fig1):
        # With d > x the two branches swap: P+ now holds c = s = x, and P*
        # sits at s = d with c above it.
        eq = nash_equilibria(fig1.replace(d=0.6, zeta=1e8))
        assert eq.p_star.c[0] == pytest.approx(0.65, abs=1e-7)
        assert eq.p_star.s == pytest.approx(0.6, abs=1e-7)
        assert eq.p_dagger.c[0] == pytest.approx(0.4, abs=1e-7)
        assert eq.p_dagger.s == pytest.approx(0.4, abs=1e-7)

    def test_infinite_truthfulness_single_point(self, fig1):
        # Only P* survives in the triangle; P+ sits at s = d, with its
        # customer coordinate diverging.
        eq = nash_equilibria(fig1.replace(alpha=1e8))
        assert eq.p_star.s == pytest.approx(0.4, abs=1e-9)
        assert eq.p_star.c[0] == pytest.approx(0.4 - 1.0 / 60.0, abs=1e-9)
        assert eq.star_admissible and not eq.dagger_admissible

    def test_vanishing_influence_single_point(self, fig1):
        eq = nash_equilibria(fig1.replace(gamma=1e-9))
        assert eq.p_star.s == pytest.approx(0.4, abs=1e-8)
        assert eq.p_star.c[0] == pytest.approx(0.4 - 1.0 / 60.0, abs=1e-8)
        assert eq.star_admissible and not eq.dagger_admissible


class TestCriticalZeta:
    def test_two_equilibria_configuration(self, fig1):
        crit = critical_zeta(fig1)
        assert crit.zeta_bar == pytest.approx(12.5 * (0.1 / 0.09), rel=1e-12)
        assert crit.positive
        assert crit.last_useful_equilibrium[0] == pytest.approx(0.16, rel=1e-12)
        assert crit.last_useful_equilibrium[1] == pytest.approx(0.1, rel=1e-14)

    def test_lower_branch_exits_through_the_baseline_face(self, fig1):
        crit = critical_zeta(fig1)
        below = nash_equilibria(fig1.replace(zeta=0.99 * crit.zeta_bar))
        above = nash_equilibria(fig1.replace(zeta=1.01 * crit.zeta_bar))
        assert below.p_dagger.c[0] > fig1.d
        assert below.dagger_admissible
        assert above.p_dagger.c[0] < fig1.d
        assert not above.dagger_admissible

    def test_equal_returns_flagged(self, fig1):
        crit = critical_zeta(fig1.replace(r_s=0.3))
        assert crit.zeta_bar == 0.0
        assert not crit.positive

    def test_positive_iff_proposed_below_desired(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            p = draw_params(rng, n=1)
            if p.x == p.d:
                continue
            crit = critical_zeta(p)
            assert crit.positive == (p.r_s < p.r_d)

    def test_face_root_within_eps_den_of_the_baseline(self, fig1):
        # At zeta_bar the face root is d + (x - d) alpha / (alpha + gamma)
        # = d + 3e-14: within EPS_DEN of d, so its equilibrium is absent,
        # and the other root misses c = d by 0.3.
        crit = critical_zeta(fig1.replace(alpha=1e-13, gamma=1.0))
        assert crit.zeta_bar == 5.5555555555566616e+25
        assert crit.positive

    def test_absent_face_root_meets_the_contract(self):
        # alpha / gamma in [1e-15, 1e-11] puts most face roots within
        # EPS_DEN of d. A root less than a few ulps above d can round onto
        # d, where c = d cannot be told from a miss, so those are skipped.
        rng = np.random.default_rng(41)
        absent = 0
        for _ in range(300):
            d, x = np.sort(rng.uniform(0.0, 1.0, 2)).tolist()
            r_s, r_d = np.sort(rng.uniform(0.0, 1.0, 2)).tolist()
            gamma = 10.0 ** rng.uniform(-3.0, 3.0)
            alpha = gamma * 10.0 ** rng.uniform(-15.0, -11.0)
            face = (x - d) * alpha / (alpha + gamma)
            if not face > 4.0 * np.spacing(d):
                continue
            p = ModelParams(d=d, x=x, w=0.5, n=1, alpha=alpha, beta=1.0, gamma=gamma,
                            zeta=1.0, r_d=r_d, r_s=r_s)
            assert critical_zeta(p).positive
            absent += face <= EPS_DEN
        assert absent > 100

    def test_unsupported_preconditions(self, fig1):
        with pytest.raises(UnsupportedN):
            critical_zeta(fig1.replace(n=2))
        with pytest.raises(DegenerateDenominator):
            critical_zeta(fig1.replace(d=0.4))
