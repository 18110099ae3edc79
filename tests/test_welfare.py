"""Welfare quartic, global maximization, equilibrium payoffs and the
Price of Stability."""

import numpy as np
import pytest

from advisorgame import (
    EPS_DEN,
    GridSpec,
    MissingEquilibrium,
    ModelParams,
    NumericalContractError,
    OpinionProfile,
    PosFlag,
    boundary_membership,
    classify_quartic,
    customer_utility,
    grid_max_welfare,
    lipschitz_bound,
    maximize_welfare,
    nash_equilibria,
    quartic_coefficients,
    social_welfare,
    social_welfare_gradient,
    solve_quartic,
    total_utility,
    utilities_at_equilibria,
)

from conftest import draw_params

# Points where a face vertex is clamped to an end of its face, the corner
# d = 1 and the equal-returns case, as overrides of the fig1 configuration.
FACE_EDGE_CASES = [
    dict(d=0.6, x=0.0, w=0.3),  # c = d vertex below d
    dict(d=0.8, x=0.1, w=0.1),  # c = d and c = s vertices below d
    dict(x=1.0, w=1.0),  # c = s vertex at s = 1
    dict(d=0.9, r_d=1.0, r_s=0.0, beta=0.1, gamma=0.1, zeta=0.1),  # s = 1 vertex below d
    dict(d=0.9, r_d=0.0, r_s=1.0, beta=0.1, gamma=0.1, zeta=0.1),  # s = 1 vertex above 1
    dict(d=0.2, x=1.0, w=0.9, n=3, alpha=1.5, beta=3.0, gamma=0.15, zeta=1.2,
         r_d=0.95, r_s=0.05),  # optimum inside the s = 1 face
    dict(d=1.0),
    dict(d=1.0, r_s=0.3),
    dict(d=1.0, x=1.0, w=1.0),  # c = d vertex at s = 1
    dict(r_s=0.3),
    dict(r_s=0.3, n=1000),
]


def _face_profiles(p, samples=201):
    """Dense grids along the faces c = d, c = s and s = 1.

    When r_s != r_d the welfare is singular at s = d, so the grids along
    c = d and c = s start 1e-9 above s = d, where social_welfare sums
    c_i - d before dividing by s - d and stays exact to rounding.
    """
    lo = p.d if p.r_s == p.r_d else p.d + 1e-9
    if lo <= 1.0:
        for s in np.linspace(lo, 1.0, samples):
            yield OpinionProfile.uniform(p.d, s, p.n)
            yield OpinionProfile.uniform(s, s, p.n)
    if p.r_s == p.r_d or 1.0 - p.d > EPS_DEN:
        for c in np.linspace(p.d, 1.0, samples):
            yield OpinionProfile.uniform(c, 1.0, p.n)


def _bisection_roots(omega, lo, hi, step=1e-6):
    """Independent real-root locator: sign scan plus bisection."""

    def f(z):
        return (((omega[4] * z + omega[3]) * z + omega[2]) * z + omega[1]) * z + omega[0]

    xs = np.arange(lo, hi + step, step)
    vals = f(xs)
    roots = []
    for k in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
        a, b = xs[k], xs[k + 1]
        for _ in range(60):
            m = 0.5 * (a + b)
            if f(a) * f(m) <= 0:
                b = m
            else:
                a = m
        roots.append(0.5 * (a + b))
    return roots


class TestQuarticCoefficients:
    def test_reference_configuration(self, fig1):
        w0, w1, w2, w3, w4 = quartic_coefficients(fig1)
        assert w0 == pytest.approx(0.01, rel=1e-12)
        assert w1 == pytest.approx(-0.008, rel=1e-12)
        assert w2 == 0.0
        assert w3 == pytest.approx(-2.25, rel=1e-12)
        assert w4 == pytest.approx(6.14, rel=1e-12)

    def test_all_difference_factors_vanish(self, fig1):
        p = fig1.replace(r_s=0.3, w=0.1, x=0.1)
        w0, w1, _, w3, w4 = quartic_coefficients(p)
        assert w0 == w1 == w3 == 0.0
        assert w4 > 0.0

    def test_sign_propagation(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            p = draw_params(rng)
            if not (p.w > p.d and p.x > p.d and p.r_d > p.r_s):
                continue
            _, w1, _, w3, w4 = quartic_coefficients(p)
            assert w1 < 0.0 and w3 < 0.0 and w4 > 0.0


class TestSolveQuartic:
    def test_quadruple_zero(self):
        roots = solve_quartic((0.0, 0.0, 0.0, 0.0, 1.0))
        assert len(roots) == 4
        assert max(abs(r) for r in roots) <= 1e-9

    def test_eighth_roots_of_unity(self):
        roots = solve_quartic((1.0, 0.0, 0.0, 0.0, 1.0))
        for r in roots:
            assert abs(abs(r) - 1.0) <= 1e-12
            assert abs(r.imag) > 1e-3

    def test_reference_roots_against_bisection(self, fig1):
        omega = quartic_coefficients(fig1)
        expected = _bisection_roots(omega, 0.0, 1.0)
        assert len(expected) == 2
        real = sorted(r.real for r in solve_quartic(omega)
                      if abs(r.imag) <= 1e-9 and 0.0 < r.real < 1.0)
        assert len(real) == 2
        for got, want in zip(real, expected):
            assert got == pytest.approx(want, abs=1e-6)

    def test_residual_contract_catches_a_wrong_root(self, fig1, monkeypatch):
        # A root moved well off the real axis is not polished by Newton, so
        # only the residual contract stands between it and the caller.
        eigvals = np.linalg.eigvals

        def moved(matrices):
            roots = eigvals(matrices).astype(complex)
            roots[..., 0] += 0.5j
            return roots

        monkeypatch.setattr(np.linalg, "eigvals", moved)
        with pytest.raises(NumericalContractError, match="^quartic residual at root"):
            solve_quartic(quartic_coefficients(fig1))


class TestClassifyQuartic:
    def test_nonreal_verdict_matches_sign_test(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            omega = (rng.uniform(1e-3, 5.0), sign * rng.uniform(1e-3, 5.0), 0.0,
                     sign * rng.uniform(1e-3, 5.0), rng.uniform(1e-3, 5.0))
            q = classify_quartic(omega)
            assert q.sign_precondition_ok
            assert q.p_big <= 0.0
            assert q.all_nonreal == (q.delta_big > 0.0 and q.d_big > 0.0)

    def test_real_roots_of_omega_members_leave_the_unit_disc(self):
        rng = np.random.default_rng(37)
        members = 0
        while members < 200:
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            omega = (rng.uniform(1e-3, 5.0), sign * rng.uniform(1e-3, 5.0), 0.0,
                     sign * rng.uniform(1e-3, 5.0), rng.uniform(1e-3, 5.0))
            q = classify_quartic(omega)
            if not q.omega_member:
                continue
            members += 1
            for r in q.roots:
                if abs(r.imag) <= 1e-9 * (1 + abs(r.real)):
                    assert abs(r.real) > 1.0 - 1e-9

    def test_overflowing_invariants_raise(self):
        # maximize_welfare and analyze succeed on this point (see test_cli);
        # only the classification needs the invariants.
        p = ModelParams(d=0.05754184505787924, x=0.4703541388242204, w=0.6961366347622424, n=2,
                        alpha=1295749196264.3904, beta=1.0488151042308345e+38,
                        gamma=7.304077022015147e+30, zeta=50134874757.81474,
                        r_d=0.8976226523941698, r_s=0.444446689866281)
        with pytest.raises(NumericalContractError, match="quartic invariants"):
            classify_quartic(quartic_coefficients(p))
        assert np.isfinite(maximize_welfare(p).sw_max)

    def test_complex_pairs_of_omega_members_can_enter_the_unit_disc(self):
        # The unit-disc exclusion is a real-root property only: this member
        # of the coefficient region has a conjugate pair of modulus ~0.60,
        # confirmed here at 50-digit precision.
        mp = pytest.importorskip("mpmath")
        omega = (1.0387841623336405, -0.014357165334647495, 0.0,
                 -3.6672825963604256, 2.6455256134771106)
        q = classify_quartic(omega)
        assert q.omega_member
        moduli = [abs(r) for r in q.roots]
        assert min(moduli) < 1.0
        with mp.workdps(50):
            exact = mp.polyroots([omega[4], omega[3], omega[2], omega[1],
                                  omega[0]], maxsteps=200)
            exact_min = min(abs(r) for r in exact)
        assert float(exact_min) == pytest.approx(min(moduli), rel=1e-9)
        assert float(exact_min) < 1.0


class TestBoundary:
    def test_faces_and_interior(self, fig1):
        assert boundary_membership(fig1, OpinionProfile.uniform(0.1, 0.5, 1))
        assert boundary_membership(fig1, OpinionProfile.uniform(0.3, 0.3, 1))
        assert not boundary_membership(fig1, OpinionProfile.uniform(0.2, 0.5, 1))

    def test_top_face_and_outside_points(self, fig1):
        assert boundary_membership(fig1, OpinionProfile.uniform(0.5, 1.0, 1))
        assert not boundary_membership(fig1, OpinionProfile.uniform(0.05, 0.5, 1))


class TestMaximizeWelfare:
    def test_reference_configuration_against_grid(self, fig1):
        report = maximize_welfare(fig1)
        _, grid_val = grid_max_welfare(fig1, GridSpec(1e-3))
        assert abs(report.sw_max - grid_val) <= 1e-4
        assert report.argmax.in_domain(fig1.d, tol=1e-9)

    def test_no_penalty_configuration(self, fig1):
        p = fig1.replace(r_s=0.3, w=0.4)  # r_s = r_d, w = x, d < x
        report = maximize_welfare(p)
        assert report.sw_max == pytest.approx(p.n * p.r_d, abs=1e-9)
        assert report.argmax.s == pytest.approx(p.x, abs=1e-4)
        assert report.argmax.c[0] == pytest.approx(p.x, abs=1e-4)

    def test_optimum_dominates_random_points(self, fig1):
        rng = np.random.default_rng(41)
        for p in (fig1, fig1.replace(zeta=5.0), fig1.replace(n=3)):
            report = maximize_welfare(p)
            s = rng.uniform(p.d + 1e-6, 1.0, size=20_000)
            c = rng.uniform(p.d, s)
            for k in range(len(s)):
                q = OpinionProfile.uniform(c[k], s[k], p.n)
                assert social_welfare(p, q) <= report.sw_max + 1e-9

    def test_face_optima_dominate_dense_face_grids(self, fig1):
        rng = np.random.default_rng(59)
        points = [fig1] + [fig1.replace(**edge) for edge in FACE_EDGE_CASES]
        points += [draw_params(rng) for _ in range(200)]
        locations = set()
        for p in points:
            report = maximize_welfare(p)
            locations.add(report.location)
            slack = 1e-12 * max(1.0, abs(report.sw_max))
            for q in _face_profiles(p):
                assert social_welfare(p, q) <= report.sw_max + slack
            if p.r_s == p.r_d or report.argmax.s - p.d > EPS_DEN:
                # The reported value is the sum of the individual utilities
                # at the reported argmax.
                assert total_utility(p, report.argmax) == pytest.approx(
                    report.sw_max, rel=1e-12, abs=1e-12)
        assert {"face:c=d", "face:s=1", "face:c=s"} <= locations

    def test_optimum_dominates_equilibria(self):
        rng = np.random.default_rng(43)
        hits = 0
        for k in range(150):
            p = draw_params(rng)
            if k % 2 == 0:
                # Bias half the draws into the narrow admissibility window.
                p = p.replace(r_s=max(0.0, p.r_d - rng.uniform(0.0, 0.1)))
            report = maximize_welfare(p)
            for value in (report.sw_at_star, report.sw_at_dagger):
                if value is None:
                    continue
                hits += 1
                assert report.sw_max >= value - 1e-9
        assert hits >= 30

    def test_interior_candidates_are_stationary(self):
        # Reconstruct every interior candidate (real quartic root plus its
        # stationary customer coordinate) and verify the analytic gradient.
        rng = np.random.default_rng(47)
        hits = 0
        for _ in range(1000):
            p = draw_params(rng)
            omega = quartic_coefficients(p)
            if abs(omega[4]) < 1e-12:
                continue
            gz = p.gamma + p.zeta
            for r in solve_quartic(omega):
                if abs(r.imag) > 1e-9 * (1 + abs(r.real)):
                    continue
                y = r.real
                if not (1e-6 < y <= 1.0 - p.d):
                    continue
                s = p.d + y
                ratio = 0.0 if p.r_s == p.r_d else (p.r_s - p.r_d) / y
                c = (2 * p.beta * p.w + 2 * gz * s + ratio) / (2 * p.beta + 2 * gz)
                if not (p.d < c < s):
                    continue
                hits += 1
                grad = social_welfare_gradient(p, OpinionProfile.uniform(c, s, p.n))
                scale = max(1.0, sum(abs(v) for v in omega) / max(y, 1e-3) ** 3)
                assert np.max(np.abs(grad)) <= 1e-7 * scale
        assert hits > 50

    def test_no_equilibria_flag(self, fig1):
        report = maximize_welfare(fig1.replace(zeta=5.0))
        assert report.pos is None
        assert PosFlag.NO_EQUILIBRIA in report.pos_flags

    def test_negative_denominator_flag(self, fig1):
        # r_d = 0 pins the attainable welfare below zero away from c = s = x = w.
        p = fig1.replace(r_d=0.0, r_s=0.0, w=0.9, x=0.1, alpha=5.0, beta=5.0)
        report = maximize_welfare(p)
        assert report.sw_max < 0.0
        assert PosFlag.NEGATIVE_DENOMINATOR in report.pos_flags
        assert report.pos is None

    def test_zero_denominator_flag(self):
        # With x = w and no returns, the optimum c = s = x has welfare
        # exactly 0, so the PoS would divide by zero.
        p = ModelParams(d=0.0, x=0.5, w=0.5, n=2, alpha=1.0, beta=1.0, gamma=1.0,
                        zeta=1.0, r_d=0.0, r_s=0.0)
        report = maximize_welfare(p)
        assert report.sw_max == 0.0
        assert report.pos_flags == {PosFlag.ZERO_DENOMINATOR}
        assert report.pos is None


class TestEquilibriumUtilities:
    def test_equal_returns_customer_payoff(self, fig1):
        p = fig1.replace(r_s=0.3)
        util = utilities_at_equilibria(p, nash_equilibria(p))
        assert util.u_cl_star == pytest.approx(p.r_s, abs=1e-15)

    def test_reference_customer_payoff(self, fig1):
        util = utilities_at_equilibria(fig1, nash_equilibria(fig1))
        assert util.u_cl_star == pytest.approx(0.2 + 0.00625, rel=1e-12)

    def test_closed_form_matches_direct_evaluation(self):
        rng = np.random.default_rng(53)
        count = 0
        while count < 300:
            p = draw_params(rng)
            eq = nash_equilibria(p)
            if eq.p_star is None or abs(eq.roots.a - p.d) <= 1e-6:
                continue
            count += 1
            util = utilities_at_equilibria(p, eq)
            sl = p.customer()
            direct_cl = customer_utility(sl, eq.p_star.c[0], eq.p_star.s)
            assert util.u_cl_star == pytest.approx(direct_cl, rel=1e-10, abs=1e-10)

    def test_missing_equilibria_raises(self, fig1):
        p = fig1.replace(zeta=5.0)
        with pytest.raises(MissingEquilibrium):
            utilities_at_equilibria(p, nash_equilibria(p))


class TestPriceOfStability:
    def test_best_equilibrium_over_optimum(self, fig1):
        report = maximize_welfare(fig1)
        best = max(report.sw_at_star, report.sw_at_dagger)
        assert report.pos == pytest.approx(best / report.sw_max, rel=1e-14)
        assert 0.0 < report.pos <= 1.0

    def test_reference_value_against_grid(self, fig1):
        report = maximize_welfare(fig1)
        _, grid_val = grid_max_welfare(fig1, GridSpec(1e-3))
        best = max(report.sw_at_star, report.sw_at_dagger)
        slack = 1e-3 * lipschitz_bound(fig1)
        assert report.pos == pytest.approx(best / grid_val, abs=slack)

    def test_unity_when_optimum_is_an_equilibrium(self, fig1):
        p = fig1.replace(r_s=0.3, w=0.4)
        report = maximize_welfare(p)
        assert report.pos == pytest.approx(1.0, abs=1e-9)

    def test_unity_when_the_optimum_is_the_equal_returns_equilibrium(self):
        # n = 84 of the golden sweep n-2.csv: with r_s = r_d and d > x, P*
        # sits at c = s = d and is the face:c=d optimum.
        p = ModelParams(d=0.6730048172682889, x=0.25507013604866857, w=0.24835892172156948,
                        n=84, alpha=0.9341032125302025, beta=1.2564041391803007,
                        gamma=0.08350186146115848, zeta=19.758997575275608,
                        r_d=0.23142996817631167, r_s=0.23142996817631167)
        report = maximize_welfare(p)
        assert report.location == "face:c=d"
        assert report.sw_at_star == report.sw_max
        assert report.pos == 1.0

    def test_an_optimal_equilibrium_has_the_optimum_welfare(self):
        # One formula evaluates the welfare of every candidate and of both
        # equilibria, so a profile gets one value wherever it appears.
        rng = np.random.default_rng(59)
        hits = 0
        for k in range(1000):
            r_d = rng.uniform()
            p = ModelParams(
                d=rng.uniform(), x=rng.uniform(), w=rng.uniform(),
                n=int(rng.choice([1, 2, 3, 10, 84, 1000])),
                alpha=10.0 ** rng.uniform(-2, 2), beta=10.0 ** rng.uniform(-2, 2),
                gamma=10.0 ** rng.uniform(-2, 2), zeta=10.0 ** rng.uniform(-2, 2),
                r_d=r_d, r_s=r_d if k % 2 else rng.uniform(),
            )
            report = maximize_welfare(p)
            eq = report.equilibria
            for profile, value, admissible in (
                (eq.p_star, report.sw_at_star, eq.star_admissible),
                (eq.p_dagger, report.sw_at_dagger, eq.dagger_admissible),
            ):
                if admissible and profile == report.argmax:
                    hits += 1
                    assert value == report.sw_max
            assert report.pos is None or report.pos <= 1.0
        assert hits >= 100
