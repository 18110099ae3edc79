"""Brute-force cross-checks: welfare grid, best-response dynamics and
random-deviation Nash verification."""

import tracemalloc

import numpy as np
import pytest

from advisorgame import (
    EPS_DEN,
    DegenerateDenominator,
    GridSpec,
    GridTooLarge,
    HeterogeneousParams,
    InvalidParameter,
    ModelParams,
    OpinionProfile,
    advisor_best_response,
    advisor_utilities,
    advisor_utility,
    best_response_dynamics,
    customer_best_response,
    customer_utility,
    grid_max_welfare,
    lipschitz_bound,
    maximize_welfare,
    nash_equilibria,
    perturbation_check,
    total_utility,
)
from advisorgame import oracle
from advisorgame.oracle import GRID_BLOCK, _axis, _one_coordinate_terms, _row_bounds

from conftest import draw_domain_point, draw_params


def _hetero_like(p, n=2):
    return HeterogeneousParams(
        x=p.x, w=p.w, alpha=p.alpha, beta=p.beta, gamma=p.gamma,
        zeta=p.zeta, r_s=p.r_s, d_i=(p.d,) * n, r_d_i=(p.r_d,) * n,
    )


class TestGrid:
    def test_resolution_bounds(self):
        with pytest.raises(InvalidParameter):
            GridSpec(1e-5)
        with pytest.raises(InvalidParameter):
            GridSpec(0.5)

    def test_budget_guard(self, fig1):
        with pytest.raises(GridTooLarge):
            grid_max_welfare(fig1.replace(d=0.0), GridSpec(1e-4))

    def test_heterogeneous_dimensionality_guard(self, fig1):
        with pytest.raises(GridTooLarge):
            grid_max_welfare(_hetero_like(fig1, n=4), GridSpec(1e-2))

    def test_known_optimum(self, fig1):
        p = fig1.replace(r_s=0.3, w=0.4)  # all penalties vanish at c = s = x
        point, value = grid_max_welfare(p, GridSpec(1e-3))
        assert value == pytest.approx(p.n * p.r_d, abs=1e-4)
        assert point.c[0] == pytest.approx(p.x, abs=2e-3)
        assert point.s == pytest.approx(p.x, abs=2e-3)

    def test_collapsed_domain(self, fig1):
        from advisorgame import advisor_utility

        p = fig1.replace(d=1.0)
        point, value = grid_max_welfare(p, GridSpec(1e-3))
        assert point == OpinionProfile.uniform(1.0, 1.0, 1)
        # On the c = s corner the interpolated return is exactly r_s.
        assert value == pytest.approx(advisor_utility(p, point) + p.r_s, rel=1e-12)

    def test_matches_analytic_maximum(self, fig1):
        for p in (fig1, fig1.replace(n=2), fig1.replace(r_s=0.35, zeta=3.0)):
            _, grid_val = grid_max_welfare(p, GridSpec(1e-3))
            report = maximize_welfare(p)
            assert abs(report.sw_max - grid_val) <= 1e-3 * lipschitz_bound(p)
            assert grid_val <= report.sw_max + 1e-9

    def test_heterogeneous_matches_homogeneous(self, fig1):
        hom = fig1.replace(n=2)
        _, v_hom = grid_max_welfare(hom, GridSpec(1e-2))
        _, v_het = grid_max_welfare(_hetero_like(hom, n=2), GridSpec(1e-2))
        assert v_het == pytest.approx(v_hom, rel=1e-10, abs=1e-10)

    def test_truly_heterogeneous_beats_worst_slice(self, fig1):
        het = HeterogeneousParams(
            x=0.4, w=0.5, alpha=0.05, beta=0.1, gamma=0.2, zeta=10.0,
            r_s=0.2, d_i=(0.1, 0.3), r_d_i=(0.3, 0.25),
        )
        point, value = grid_max_welfare(het, GridSpec(1e-2))
        assert point.c[0] >= 0.1 and point.c[1] >= 0.3
        assert value == pytest.approx(total_utility(het, point), rel=1e-10)


def _dense_welfare(p, res):
    """The axis and the whole s x c welfare array, -inf off the feasible set."""
    s_axis = _axis(p.d, 1.0, res)
    c_axis = s_axis.copy()
    s = s_axis[None, :]
    c = c_axis[:, None]
    mask = c <= s + 1e-15
    gap = s - p.d
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(gap > EPS_DEN, (c - p.d) / np.where(gap > EPS_DEN, gap, 1.0), 0.0)
    frac = np.where(np.abs(c - s) <= 1e-15, 1.0, frac)
    with np.errstate(over="ignore", invalid="ignore"):
        u_cl = p.r_d + frac * (p.r_s - p.r_d) - p.zeta * (s - c) ** 2
        u_a = (
            -p.alpha * (s - p.x) ** 2
            - p.beta * p.n * (p.w - c) ** 2
            - p.gamma * p.n * (s - c) ** 2
        )
        sw = np.where(mask, u_a + p.n * u_cl, -np.inf)
    return s_axis, sw


def _dense_grid(p, res):
    """The whole s x c welfare array at once, argmax in C order: the
    reference the streamed grid must reproduce bit for bit."""
    axis, sw = _dense_welfare(p, res)
    i, j = np.unravel_index(int(np.argmax(sw)), sw.shape)
    return OpinionProfile.uniform(float(axis[i]), float(axis[j]), p.n), float(sw[i, j])


def _assert_matches_dense(p, res):
    point, value = grid_max_welfare(p, GridSpec(res))
    ref_point, ref_value = _dense_grid(p, res)
    assert point == ref_point
    assert value == ref_value or (np.isnan(value) and np.isnan(ref_value))


def _block_bounds(p, axis, j0, j1, rows):
    """_row_bounds of one block, from the grid's one-coordinate terms and
    its gap arrays: c - d, and s - d with 1 where s - d <= EPS_DEN."""
    s_term, c_term, slack = _one_coordinate_terms(p, axis)
    assert slack is not None
    c_gap = axis - p.d
    s_gap = np.where(c_gap > EPS_DEN, c_gap, 1.0)
    return _row_bounds(p, s_term, c_term, c_gap, s_gap, axis, j0, j1, rows, slack)


def _d_for_axis_length(length, res):
    """A baseline d whose grid axis at ``res`` has ``length`` points."""
    d = 1.0 - (length - 1) * res
    assert len(_axis(d, 1.0, res)) == length
    return d


def _return_bound_cases(fig1):
    """Points and resolutions at the edges of the row bounds' return term."""
    # The last arange point lies 2e-15 below 1, so the appended s = 1
    # column has a row just over 1e-15 off the diagonal, outside the
    # c = s override, with a fraction just below 1.
    near = 0.5 - 2e-15
    axis = _axis(near, 1.0, 1 / 64)
    assert 1e-15 < axis[-1] - axis[-2] < 3e-15
    rng = np.random.default_rng(9)
    lower = [draw_params(rng, n=1000) for _ in range(10)]
    cases = [(p.replace(r_d=max(p.r_d, p.r_s), r_s=min(p.r_d, p.r_s)), 1e-2) for p in lower]
    cases += [(fig1.replace(d=near, r_d=0.9, r_s=0.1, zeta=0.05), 1 / 64),
              (fig1.replace(d=near, r_d=0.9, r_s=0.1, zeta=0.05, n=1000), 1 / 64),
              (fig1.replace(d=near, x=0.9, w=0.9, r_d=0.9, r_s=0.1, zeta=1e-3), 1 / 64)]
    # r_s > r_d and r_s == r_d, where every row keeps n max(r_d, r_s).
    cases += [(fig1.replace(r_s=0.35), 1e-2), (fig1.replace(r_s=0.9, zeta=0.05), 1e-2),
              (fig1.replace(r_s=fig1.r_d), 1e-2), (fig1.replace(r_s=0.9, n=1000), 1e-3)]
    # d close to 1: one block holds the s = d column and the last column,
    # and at 1 - 5e-13 the axis is [d, 1] with both columns s - d <= EPS_DEN.
    for d in (0.97, 1.0 - 5e-13):
        cases += [(fig1.replace(d=d, x=1.0, w=1.0, r_d=0.9, r_s=0.1, zeta=1e-3), 1e-2),
                  (fig1.replace(d=d, r_s=0.9), 1e-2)]
    return cases


class TestBlockedGrid:
    """The streamed grid against the dense s x c evaluation, with ==."""

    @pytest.mark.parametrize("res, count", [(1e-2, 60), (1e-3, 24), (5e-4, 6)])
    def test_seeded_points(self, res, count):
        rng = np.random.default_rng(int(1 / res))
        for _ in range(count):
            _assert_matches_dense(draw_params(rng, n=int(rng.choice([1, 3, 7, 1000]))), res)

    @pytest.mark.parametrize("res", [1e-2, 1e-3])
    def test_fig1_variants(self, fig1, res):
        for p in (fig1, fig1.replace(n=2), fig1.replace(r_s=0.35, zeta=3.0)):
            _assert_matches_dense(p, res)

    def test_single_cell(self, fig1):
        _assert_matches_dense(fig1.replace(d=1.0), 1e-3)

    def test_equal_returns(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = draw_params(rng)
            _assert_matches_dense(p.replace(r_s=p.r_d), 1e-2)

    @pytest.mark.parametrize(
        "length", [GRID_BLOCK - 1, GRID_BLOCK, GRID_BLOCK + 1, 2 * GRID_BLOCK + 1]
    )
    def test_axis_length_at_block_edges(self, length):
        rng = np.random.default_rng(length)
        for _ in range(5):
            p = draw_params(rng)
            _assert_matches_dense(p.replace(d=_d_for_axis_length(length, 1e-2)), 1e-2)

    def test_ties_take_the_first_cell_in_c_order(self):
        res = 1.0 / 64  # the axis k / 64 and the midpoints below are exact
        tiny = dict(alpha=1e-30, beta=1e-30, gamma=1e-30, zeta=1e-30)
        base = ModelParams(d=0.0, x=0.5, w=0.5, n=1, r_d=0.3, r_s=0.3, **tiny)
        # Every feasible cell evaluates to r_d: the winner is (c, s) = (0, 0).
        point, _ = grid_max_welfare(base, GridSpec(res))
        assert point == OpinionProfile.uniform(0.0, 0.0, 1)
        _assert_matches_dense(base, res)
        # s = 31/64 and 32/64 tie across the first block edge, in row 0.
        p = base.replace(alpha=1.0, x=31.5 / 64)
        point, _ = grid_max_welfare(p, GridSpec(res))
        assert point == OpinionProfile.uniform(0.0, 31 / 64, 1)
        _assert_matches_dense(p, res)
        # Rows c = 40/64 and 41/64 tie over every s from 40/64 on.
        p = base.replace(beta=1.0, w=40.5 / 64)
        point, _ = grid_max_welfare(p, GridSpec(res))
        assert point == OpinionProfile.uniform(40 / 64, 40 / 64, 1)
        _assert_matches_dense(p, res)
        # Weights near one ulp of r_d round many cells to the same value.
        # The first block's best has c index 15; the tied cell with the
        # smallest c index (7) lies in a later block and must win.
        p = base.replace(x=0.6, w=0.5, alpha=2e-16, beta=3e-16, r_d=0.72, r_s=0.72)
        point, _ = grid_max_welfare(p, GridSpec(1e-2))
        assert point.s > _axis(p.d, 1.0, 1e-2)[GRID_BLOCK - 1]
        _assert_matches_dense(p, 1e-2)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflowing_weights_keep_the_dense_nan_rule(self):
        # beta * n overflows, so the row c = w is inf * 0 = NaN and every
        # other cell is -inf: the dense argmax returns the first NaN.
        p = ModelParams(d=0.0, x=0.5, w=40 / 64, n=10, alpha=1.0, beta=1e308,
                        gamma=1.0, zeta=1.0, r_d=0.3, r_s=0.2)
        point, value = grid_max_welfare(p, GridSpec(1.0 / 64))
        assert np.isnan(value)
        assert point == OpinionProfile.uniform(40 / 64, 40 / 64, 10)
        _assert_matches_dense(p, 1.0 / 64)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflowing_weights_take_the_unpruned_path(self, monkeypatch):
        p = ModelParams(d=0.0, x=0.5, w=40 / 64, n=10, alpha=1.0, beta=1e308,
                        gamma=1.0, zeta=1.0, r_d=0.3, r_s=0.2)
        assert _one_coordinate_terms(p, _axis(p.d, 1.0, 1.0 / 64))[2] is None

        def no_bounds(*args):
            raise AssertionError("row bounds used where cells may overflow")

        monkeypatch.setattr(oracle, "_row_bounds", no_bounds)
        point, value = grid_max_welfare(p, GridSpec(1.0 / 64))
        assert np.isnan(value)
        assert point == OpinionProfile.uniform(40 / 64, 40 / 64, 10)

    def test_subnormal_weights_take_the_unpruned_path(self):
        # Each rounding of a subnormal cell may err by a whole subnormal
        # step, far beyond a slack of 1e-12 * scale; pruned by row bounds,
        # this point's winner would be c = 14/64, not the dense 13/64.
        p = ModelParams(d=0.0, x=0.5078031207803458, w=0.1879227373491813, n=3,
                        alpha=1.155e-320, beta=2.17e-322, gamma=6e-323, zeta=1e-323,
                        r_d=0.0, r_s=0.0)
        assert _one_coordinate_terms(p, _axis(p.d, 1.0, 1.0 / 64))[2] is None
        point, _ = grid_max_welfare(p, GridSpec(1.0 / 64))
        assert point == OpinionProfile.uniform(13 / 64, 32 / 64, 3)
        _assert_matches_dense(p, 1.0 / 64)

    def test_cells_lie_below_their_row_bounds(self, fig1):
        rng = np.random.default_rng(100)  # the 1e-2 draws of test_seeded_points
        cases = [(draw_params(rng, n=int(rng.choice([1, 3, 7, 1000]))), 1e-2) for _ in range(60)]
        variants = (fig1, fig1.replace(n=2), fig1.replace(r_s=0.35, zeta=3.0), fig1.replace(n=1000))
        cases += [(q, res) for res in (1e-2, 1e-3) for q in variants]
        # The points of test_ties_take_the_first_cell_in_c_order.
        tiny = dict(alpha=1e-30, beta=1e-30, gamma=1e-30, zeta=1e-30)
        base = ModelParams(d=0.0, x=0.5, w=0.5, n=1, r_d=0.3, r_s=0.3, **tiny)
        cases += [(base, 1 / 64), (base.replace(alpha=1.0, x=31.5 / 64), 1 / 64),
                  (base.replace(beta=1.0, w=40.5 / 64), 1 / 64),
                  (base.replace(x=0.6, w=0.5, alpha=2e-16, beta=3e-16, r_d=0.72, r_s=0.72), 1e-2)]
        cases += _return_bound_cases(fig1)
        for p, res in cases:
            axis, sw = _dense_welfare(p, res)
            for j0 in range(0, len(axis), GRID_BLOCK):
                j1 = min(j0 + GRID_BLOCK, len(axis))
                bound = _block_bounds(p, axis, j0, j1, len(axis))
                assert np.all(sw[:, j0:j1] <= bound[:, None])

    def test_return_bound_cases_match_dense(self, fig1):
        for p, res in _return_bound_cases(fig1):
            _assert_matches_dense(p, res)

    def test_bounds_prune_all_but_the_winning_block(self, fig1):
        # r_s < r_d at fig1: each row's return is bounded through its
        # smallest interpolation fraction in the block. With n max(r_d, r_s)
        # instead, 23 of the 29 blocks reach the grid maximum.
        axis = _axis(fig1.d, 1.0, 1e-3)
        _, top = grid_max_welfare(fig1, GridSpec(1e-3))
        tops = []
        for j0 in range(0, len(axis), GRID_BLOCK):
            j1 = min(j0 + GRID_BLOCK, len(axis))
            tops.append(np.max(_block_bounds(fig1, axis, j0, j1, j1)))
        assert len(tops) == 29
        assert sum(t >= top for t in tops) <= 1

    def test_blocks_combine_in_block_order(self):
        # Every value here is a short dyadic fraction, so each cell is
        # exact. In row c = 30/64 the cells s = 31/64 and 32/64 tie as the
        # best of the grid, on both sides of the first block edge. The
        # second block has the larger row bound and is visited first, but
        # the dense winner is the first block's cell.
        p = ModelParams(d=0.0, x=47 / 64, w=30 / 64, n=1, alpha=3.0, beta=128.0,
                        gamma=15.5, zeta=15.5, r_d=0.5, r_s=0.5)
        axis = _axis(p.d, 1.0, 1.0 / 64)
        first, second = (
            np.max(_block_bounds(p, axis, j0, j0 + GRID_BLOCK, j0 + GRID_BLOCK))
            for j0 in (0, GRID_BLOCK)
        )
        assert second > first
        point, value = grid_max_welfare(p, GridSpec(1.0 / 64))
        assert point == OpinionProfile.uniform(30 / 64, 31 / 64, 1)
        assert value == 0.5 - 799 / 4096
        _assert_matches_dense(p, 1.0 / 64)

    def test_finest_grid_memory_is_bounded(self, fig1):
        tracemalloc.start()
        try:
            grid_max_welfare(fig1, GridSpec(1e-4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100e6


class TestDynamics:
    def test_fixed_point_recognized_immediately(self, fig1):
        eq = nash_equilibria(fig1)
        trace = best_response_dynamics(fig1, eq.p_star)
        assert trace.converged
        assert trace.iterations_used == 1
        assert trace.fixed_point.s == pytest.approx(eq.p_star.s, abs=1e-9)

    def test_converges_to_upper_equilibrium(self, fig1):
        start = OpinionProfile.uniform(0.28, 0.35, 1)
        trace = best_response_dynamics(fig1, start)
        assert trace.converged
        assert trace.fixed_point.s == pytest.approx(0.3, abs=1e-7)
        assert trace.fixed_point.c[0] == pytest.approx(0.275, abs=1e-7)
        assert trace.iterates[0] == start

    def test_no_equilibrium_regime_never_settles(self, fig1):
        p = fig1.replace(zeta=5.0)
        start = OpinionProfile.uniform(0.28, 0.35, 1)
        try:
            trace = best_response_dynamics(p, start, max_iter=2000)
        except DegenerateDenominator:
            return  # the iterates crashed into the s = d singularity
        assert not trace.converged
        assert trace.fixed_point is None
        assert len(trace.iterates) == 2001

    def test_converged_points_satisfy_both_responses(self):
        rng = np.random.default_rng(59)
        checked = 0
        while checked < 100:
            p = draw_params(rng)
            if not nash_equilibria(p).roots.real:
                continue
            s0 = rng.uniform(p.d + 0.05, 1.0)
            start = OpinionProfile.uniform(rng.uniform(p.d, s0), s0, p.n)
            try:
                trace = best_response_dynamics(p, start, max_iter=5000)
            except DegenerateDenominator:
                continue
            if not trace.converged:
                continue
            checked += 1
            q = trace.fixed_point
            from advisorgame import advisor_best_response, customer_best_response

            assert abs(advisor_best_response(p, q.c) - q.s) <= 1e-8
            for c_i in q.c:
                assert abs(customer_best_response(p.customer(), q.s) - c_i) <= 1e-8

    def test_heterogeneous_fixed_point(self, fig1):
        het = HeterogeneousParams(
            x=0.4, w=0.5, alpha=0.05, beta=0.1, gamma=0.2, zeta=10.0,
            r_s=0.2, d_i=(0.1, 0.15), r_d_i=(0.3, 0.28),
        )
        start = OpinionProfile(c=(0.3, 0.3), s=0.4)
        trace = best_response_dynamics(het, start)
        if trace.converged:
            from advisorgame import advisor_best_response, customer_best_response

            q = trace.fixed_point
            assert abs(advisor_best_response(het, q.c) - q.s) <= 1e-8
            for i, c_i in enumerate(q.c):
                assert abs(customer_best_response(het.customer(i), q.s) - c_i) <= 1e-8

    def test_singular_start_rejected(self, fig1):
        with pytest.raises(DegenerateDenominator):
            best_response_dynamics(fig1, OpinionProfile.uniform(0.1, fig1.d, 1))


class TestPerturbation:
    def test_equilibrium_passes(self, fig1):
        eq = nash_equilibria(fig1)
        assert perturbation_check(fig1, eq.p_star, 1000, seed=0)
        assert perturbation_check(fig1, eq.p_dagger, 1000, seed=0)

    def test_customer_that_can_improve_fails(self, fig1):
        # The advisor plays its best response to c = 0.12, so only the
        # customer, whose best response is 0.110, can gain by deviating.
        c = 0.12
        q = OpinionProfile.uniform(c, advisor_best_response(fig1, [c]), 1)
        s_dev = np.linspace(0.0, 1.0, 1001)
        assert advisor_utilities(fig1, q.c, s_dev).max() <= advisor_utility(fig1, q) + 1e-9
        assert customer_best_response(fig1.customer(), q.s) == pytest.approx(0.110, abs=1e-3)
        assert not perturbation_check(fig1, q, 1000)

    def test_non_equilibrium_fails(self, fig1):
        assert not perturbation_check(fig1, OpinionProfile.uniform(0.2, 0.5, 1), 1000)

    def test_zero_trials_is_vacuous_and_flagged(self, fig1):
        with pytest.warns(RuntimeWarning):
            assert perturbation_check(fig1, OpinionProfile.uniform(0.2, 0.5, 1), 0)

    def test_deterministic_for_fixed_seed(self, fig1):
        q = OpinionProfile.uniform(0.27, 0.31, 1)
        runs = {perturbation_check(fig1, q, 50, seed=9) for _ in range(5)}
        assert len(runs) == 1


def _scalar_perturbation_check(params, q, trials, seed=0, improvement_tol=1e-9):
    """One utility call per random deviation, drawn as perturbation_check
    draws them: the reference for its array evaluation."""
    rng = np.random.default_rng(seed)
    if isinstance(params, HeterogeneousParams):
        slices = [params.customer(i) for i in range(params.n)]
    else:
        slices = [params.customer()] * params.n
    base_a = advisor_utility(params, q)
    for s_dev in rng.uniform(0.0, 1.0, size=trials):
        if advisor_utility(params, OpinionProfile(q.c, s_dev)) > base_a + improvement_tol:
            return False
    for i, sl in enumerate(slices):
        base_i = customer_utility(sl, q.c[i], q.s)
        for c_dev in rng.uniform(sl.d, max(q.s, sl.d), size=trials):
            if customer_utility(sl, float(c_dev), q.s) > base_i + improvement_tol:
                return False
    return True


class TestPerturbationMatchesScalarLoop:
    def test_seeded_equilibria_and_other_profiles(self):
        rng = np.random.default_rng(71)
        verdicts = []
        for k in range(150):
            p = draw_params(rng, n=int(rng.choice([1, 2, 3, 50])))
            eq = nash_equilibria(p)
            profiles = [draw_domain_point(rng, p, margin=1e-3)]
            profiles += [
                q for q in (eq.p_star, eq.p_dagger)
                if q is not None and q.in_domain(p.d) and q.s - p.d > 1e-9
            ]
            for q in profiles:
                for seed in (k, k + 1):
                    got = perturbation_check(p, q, 300, seed=seed)
                    assert got == _scalar_perturbation_check(p, q, 300, seed=seed)
                    verdicts.append(got)
        assert True in verdicts and False in verdicts

    def test_heterogeneous_profiles(self):
        het = HeterogeneousParams(
            x=0.4, w=0.5, alpha=0.05, beta=0.1, gamma=0.2, zeta=10.0,
            r_s=0.2, d_i=(0.1, 0.15), r_d_i=(0.3, 0.28),
        )
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = rng.uniform(0.2, 1.0)
            q = OpinionProfile(c=tuple(rng.uniform(0.15, s, size=2)), s=s)
            assert perturbation_check(het, q, 200) == _scalar_perturbation_check(het, q, 200)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_non_positive_trials_warn(self, fig1, trials):
        q = OpinionProfile.uniform(0.2, 0.5, 1)
        with pytest.warns(RuntimeWarning, match=r"^trials <= 0: the Nash check is vacuous$"):
            assert perturbation_check(fig1, q, trials)
