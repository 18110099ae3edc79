"""Brute-force cross-checks: welfare grid, best-response dynamics and
the Nash check on a lattice of deviations."""

import math
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
from advisorgame.oracle import _axis, _cells, _column_tops, _one_coordinate_terms

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

    def test_heterogeneous_budget_guard(self, fig1):
        # 10001 s values times 10001 c values exceed the point budget.
        with pytest.raises(GridTooLarge, match="budget"):
            grid_max_welfare(_hetero_like(fig1.replace(d=0.0), n=1), GridSpec(1e-4))

    def test_heterogeneous_lipschitz_bound_takes_the_largest_return_gap(self, fig1):
        het = HeterogeneousParams(
            x=0.4, w=0.5, alpha=0.05, beta=0.1, gamma=0.2, zeta=10.0,
            r_s=0.2, d_i=(0.1, 0.15), r_d_i=(0.3, 0.28),
        )
        # |r_s - r_d_i| is largest at r_d_i = 0.3, fig1's r_d.
        assert lipschitz_bound(het) == lipschitz_bound(fig1.replace(n=2))

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
    reference the grid must reproduce bit for bit, as (c, s, value)."""
    axis, sw = _dense_welfare(p, res)
    i, j = np.unravel_index(int(np.argmax(sw)), sw.shape)
    return float(axis[i]), float(axis[j]), float(sw[i, j])


def _assert_matches_dense(p, res):
    point, value = grid_max_welfare(p, GridSpec(res))
    c, s, ref_value = _dense_grid(p, res)
    # The profile's fields, as OpinionProfile's == compares them; building
    # a second profile of 10^6 customers would take some 40 ms.
    assert (point.c, point.s) == ((c,) * p.n, s)
    assert value == ref_value or (np.isnan(value) and np.isnan(ref_value))


def _d_for_axis_length(length, res):
    """A baseline d whose grid axis at ``res`` has ``length`` points."""
    d = 1.0 - (length - 1) * res
    assert len(_axis(d, 1.0, res)) == length
    return d


def _return_bound_cases(fig1):
    """Points and resolutions at the edges of the tops' return term."""
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
    # r_s > r_d and r_s == r_d.
    cases += [(fig1.replace(r_s=0.35), 1e-2), (fig1.replace(r_s=0.9, zeta=0.05), 1e-2),
              (fig1.replace(r_s=fig1.r_d), 1e-2), (fig1.replace(r_s=0.9, n=1000), 1e-3)]
    # d close to 1: the axis holds the s = d column and a few more, and at
    # 1 - 5e-13 it is [d, 1] with both columns s - d <= EPS_DEN.
    for d in (0.97, 1.0 - 5e-13):
        cases += [(fig1.replace(d=d, x=1.0, w=1.0, r_d=0.9, r_s=0.1, zeta=1e-3), 1e-2),
                  (fig1.replace(d=d, r_s=0.9), 1e-2)]
    return cases


# beta n is within 4 000x of overflow; (w - c)^2 <= 1.1e-5 over the axis
# keeps the cells finite and the tops in use.
NEAR_OVERFLOW = ModelParams(d=1 - 64e-4, x=0.5, w=1 - 32e-4, n=1, alpha=1.0, beta=5e304,
                            gamma=1.0, zeta=1.0, r_d=0.3, r_s=0.2)


# An oracle pool point whose winner lies deep in the grid, at row 1 148 of
# column 1 540 of 1 745 at 5e-4: the costliest pool point for a search
# that bounds rows.
WORST_POOL_POINT = ModelParams(
    d=0.12822061068860946, x=0.8596915313797533, w=0.8620050717056892, n=1,
    alpha=0.28564969197963364, beta=0.38823378091806743, gamma=0.0671867310409242,
    zeta=0.6356966613163162, r_d=0.6378962062165215, r_s=0.32986080565406506,
)

# Every value at these two points is a short dyadic fraction, so each cell
# is exact. At PASS_TIE, row c = 30/64 has the best cell of the grid at
# s = 31/64 and at 32/64; at SEED_TIE, rows c = 25/64 and 26/64 have it,
# at s = 26/64 and 27/64.
PASS_TIE = ModelParams(d=0.0, x=47 / 64, w=30 / 64, n=1, alpha=3.0, beta=128.0,
                       gamma=15.5, zeta=15.5, r_d=0.5, r_s=0.5)
SEED_TIE = ModelParams(d=0.0, x=73 / 128, w=23 / 64, n=1, alpha=0.5, beta=2.0,
                       gamma=4.0, zeta=1.0, r_d=0.5, r_s=0.5)

# Weights near 1e-14 or 1e-15 against returns near 0.6 or 0.28: each
# column is flat within the slack, and its cells differ by their roundings
# alone. A window test that took any rise or fall of its cells for the
# quadratic's would miss the winner at both, at the second already when
# only its lower rows were tested so.
FLAT = (
    ModelParams(d=0.0, x=0.9, w=0.1, n=1, alpha=1e-14, beta=1e-14, gamma=1e-14,
                zeta=1e-14, r_d=0.6, r_s=0.6),
    ModelParams(d=0.0, x=0.2900122627528693, w=0.9274787497199863, n=1,
                alpha=1.8544862565665403e-15, beta=2.0350294015654794e-15,
                gamma=1.4968239958584489e-15, zeta=1.8627868053879904e-15,
                r_d=0.2835996504844672, r_s=0.2835996504844662),
)


def _grid_cases(fig1):
    """Seeded, fig1, tie, near-overflow and return-term points with their
    resolutions."""
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
    cases += [(p, 1 / 64) for p in FLAT]
    cases += [(PASS_TIE, 1 / 64), (SEED_TIE, 1 / 64), (NEAR_OVERFLOW, 1e-4)]
    return cases + _return_bound_cases(fig1)


def _wide_weight_cases():
    """Seeded points with weights spread over 10^-10..10^10 or
    10^-40..10^40, n from 1 to 10^6, d at 0, near 1 or uniform, and
    r_s = r_d on every tenth draw, at resolutions 1e-2 and 1/64."""
    rng = np.random.default_rng(18)
    cases = []
    for k in range(80):
        span = rng.choice([10.0, 40.0])
        alpha, beta, gamma, zeta = 10.0 ** rng.uniform(-span, span, size=4)
        d = rng.choice([0.0, 0.97, 1.0 - 5e-13, rng.uniform(0.0, 1.0)])
        r_d, r_s = rng.uniform(0.0, 1.0, size=2)
        p = ModelParams(d=d, x=rng.uniform(0.0, 1.0), w=rng.uniform(0.0, 1.0),
                        n=int(rng.choice([1, 3, 1000, 10**6])), alpha=alpha, beta=beta,
                        gamma=gamma, zeta=zeta, r_d=r_d, r_s=r_d if k % 10 == 0 else r_s)
        cases.append((p, (1e-2, 1 / 64)[k % 2]))
    return cases


def _without_slack(monkeypatch):
    """Make the grid evaluate every column whole, as where cells may overflow."""
    def no_slack(p, axis):
        return _one_coordinate_terms(p, axis)[:2] + (None,)

    monkeypatch.setattr(oracle, "_one_coordinate_terms", no_slack)


class TestBlockedGrid:
    """The column-by-column grid against the dense s x c evaluation, with ==."""

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
        for p in FLAT:
            _assert_matches_dense(p, 1 / 64)

    def test_wide_weights_match_dense(self):
        for p, res in _wide_weight_cases():
            _assert_matches_dense(p, res)

    @pytest.mark.parametrize("length", [31, 32, 33, 65])
    def test_axis_length_at_block_edges(self, monkeypatch, length):
        # Whole columns are evaluated in blocks of 32 here: the axis ends
        # just before, at and just after a block edge.
        rng = np.random.default_rng(length)
        points = [draw_params(rng).replace(d=_d_for_axis_length(length, 1e-2)) for _ in range(5)]
        for p in points:
            _assert_matches_dense(p, 1e-2)
        monkeypatch.setattr(oracle, "GRID_PASS", 32 * length)
        _without_slack(monkeypatch)
        for p in points:
            _assert_matches_dense(p, 1e-2)

    def test_ties_take_the_first_cell_in_c_order(self):
        res = 1.0 / 64  # the axis k / 64 and the midpoints below are exact
        tiny = dict(alpha=1e-30, beta=1e-30, gamma=1e-30, zeta=1e-30)
        base = ModelParams(d=0.0, x=0.5, w=0.5, n=1, r_d=0.3, r_s=0.3, **tiny)
        # Every feasible cell evaluates to r_d: the winner is (c, s) = (0, 0).
        point, _ = grid_max_welfare(base, GridSpec(res))
        assert point == OpinionProfile.uniform(0.0, 0.0, 1)
        _assert_matches_dense(base, res)
        # s = 31/64 and 32/64 tie in row 0.
        p = base.replace(alpha=1.0, x=31.5 / 64)
        point, _ = grid_max_welfare(p, GridSpec(res))
        assert point == OpinionProfile.uniform(0.0, 31 / 64, 1)
        _assert_matches_dense(p, res)
        # Rows c = 40/64 and 41/64 tie over every s from 40/64 on.
        p = base.replace(beta=1.0, w=40.5 / 64)
        point, _ = grid_max_welfare(p, GridSpec(res))
        assert point == OpinionProfile.uniform(40 / 64, 40 / 64, 1)
        _assert_matches_dense(p, res)
        # Weights near one ulp of r_d round many cells, over many rows and
        # columns, to the same value; the winner has the smallest c index.
        p = base.replace(x=0.6, w=0.5, alpha=2e-16, beta=3e-16, r_d=0.72, r_s=0.72)
        axis, sw = _dense_welfare(p, 1e-2)
        rows, cols = np.nonzero(sw == np.max(sw))
        assert len(set(rows.tolist())) > 5 and len(set(cols.tolist())) > 5
        point, _ = grid_max_welfare(p, GridSpec(1e-2))
        assert point.c[0] == axis[rows.min()]
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

        def no_tops(*args):
            raise AssertionError("column tops used where cells may overflow")

        monkeypatch.setattr(oracle, "_column_tops", no_tops)
        point, value = grid_max_welfare(p, GridSpec(1.0 / 64))
        assert np.isnan(value)
        assert point == OpinionProfile.uniform(40 / 64, 40 / 64, 10)

    def test_subnormal_weights_take_the_unpruned_path(self):
        # Each rounding of a subnormal cell may err by a whole subnormal
        # step, far beyond a slack of 1e-12 * scale, so no top or window
        # test holds there.
        p = ModelParams(d=0.0, x=0.5078031207803458, w=0.1879227373491813, n=3,
                        alpha=1.155e-320, beta=2.17e-322, gamma=6e-323, zeta=1e-323,
                        r_d=0.0, r_s=0.0)
        assert _one_coordinate_terms(p, _axis(p.d, 1.0, 1.0 / 64))[2] is None
        point, _ = grid_max_welfare(p, GridSpec(1.0 / 64))
        assert point == OpinionProfile.uniform(13 / 64, 32 / 64, 3)
        _assert_matches_dense(p, 1.0 / 64)

    def test_column_tops_bound_their_cells(self, fig1):
        for p, res in _grid_cases(fig1):
            axis, sw = _dense_welfare(p, res)
            s_term, _, slack = _one_coordinate_terms(p, axis)
            assert slack is not None
            tops, rows = _column_tops(p, s_term, axis, slack)
            # The cells of rows i > j are -inf.
            assert np.all(sw <= tops)
            assert np.all((rows >= 0) & (rows <= np.arange(len(axis))))

    def test_return_bound_cases_match_dense(self, fig1):
        for p, res in _return_bound_cases(fig1):
            _assert_matches_dense(p, res)

    def test_near_overflow_weights_match_dense(self):
        _assert_matches_dense(NEAR_OVERFLOW, 1e-4)

    def test_infinite_tops_match_dense(self, fig1, monkeypatch):
        # No column is skipped before its window: each window test decides
        # alone which columns are evaluated whole.
        def no_tops(p, s_term, axis, slack):
            return np.full(len(axis), np.inf), _column_tops(p, s_term, axis, slack)[1]

        monkeypatch.setattr(oracle, "_column_tops", no_tops)
        for p, res in _grid_cases(fig1):
            _assert_matches_dense(p, res)

    @pytest.mark.parametrize("row", ["first", "last"])
    def test_vertex_row_is_only_a_hint(self, fig1, monkeypatch, row):
        # Every vertex row forced to 0, or to j: the windows sit at an end
        # of their columns, and the columns they cannot settle are
        # evaluated whole.
        def forced(p, s_term, axis, slack):
            tops, rows = _column_tops(p, s_term, axis, slack)
            return tops, np.zeros_like(rows) if row == "first" else np.arange(len(axis))

        monkeypatch.setattr(oracle, "_column_tops", forced)
        for p, res in _grid_cases(fig1) + _wide_weight_cases():
            _assert_matches_dense(p, res)

    def test_a_top_that_is_not_finite_is_evaluated(self, fig1, monkeypatch):
        # A NaN top compares below no cell, so its column gets a window.
        axis, sw = _dense_welfare(fig1, 1e-3)
        winner = np.unravel_index(int(np.argmax(sw)), sw.shape)[1]
        windows = []

        def nan_at_winner(*args):
            tops, rows = _column_tops(*args)
            tops[winner] = np.nan
            return tops, rows

        def recorded(p, s_term, c_term, axis, rows, cols):
            if np.ndim(rows) == 2 and np.shape(rows)[1] == 5:
                windows.extend(np.ravel(cols).tolist())
            return _cells(p, s_term, c_term, axis, rows, cols)

        monkeypatch.setattr(oracle, "_column_tops", nan_at_winner)
        monkeypatch.setattr(oracle, "_cells", recorded)
        _assert_matches_dense(fig1, 1e-3)
        assert winner in windows

    def test_blocks_combine_in_block_order(self, monkeypatch):
        # The two best cells lie on both sides of a block edge when whole
        # columns are evaluated in blocks of 32; the dense winner is the
        # first block's.
        res = 1.0 / 64
        point, value = grid_max_welfare(PASS_TIE, GridSpec(res))
        assert point == OpinionProfile.uniform(30 / 64, 31 / 64, 1)
        assert value == 0.5 - 799 / 4096
        monkeypatch.setattr(oracle, "GRID_PASS", 32 * 65)
        _without_slack(monkeypatch)
        assert grid_max_welfare(PASS_TIE, GridSpec(res)) == (point, value)

    def test_seed_row_need_not_hold_the_winner(self, monkeypatch):
        # The best seed is the tied cell c = 26/64 at s = 27/64; the dense
        # winner, c = 25/64 at s = 26/64, is found by its column's window.
        res = 1.0 / 64
        axis, sw = _dense_welfare(SEED_TIE, res)
        rows, cols = np.nonzero(sw == np.max(sw))
        assert rows.tolist() == [25, 26] and cols.tolist() == [26, 27]
        s_term, _, slack = _one_coordinate_terms(SEED_TIE, axis)
        tops, hint = _column_tops(SEED_TIE, s_term, axis, slack)
        seeds = sw[hint, np.arange(len(axis))]
        assert (hint[np.argmax(seeds)], np.argmax(seeds)) == (26, 27)
        point, value = grid_max_welfare(SEED_TIE, GridSpec(res))
        assert point == OpinionProfile.uniform(25 / 64, 26 / 64, 1)
        assert value == 0.5 - 545 / 32768
        _assert_matches_dense(SEED_TIE, res)

        # The slack keeps every top above its column's cells, so no top
        # equals the best cell. With the tightest valid tops, the column
        # maxima, both tied columns' tops equal it, and only skipping the
        # columns whose top is below it keeps them.
        def column_maxima(p, s_term, axis, slack):
            return np.max(sw, axis=0), _column_tops(p, s_term, axis, slack)[1]

        monkeypatch.setattr(oracle, "_column_tops", column_maxima)
        assert grid_max_welfare(SEED_TIE, GridSpec(res)) == (point, value)

    @pytest.mark.parametrize(
        "point, res, most",
        [("fig1", 1e-3, 911), ("fig1", 1e-4, 9011), ("worst", 5e-4, 1760)],
    )
    def test_best_seed_bounds_the_cells_evaluated(self, fig1, monkeypatch, point, res, most):
        # One seed per column, then the windows of the two or three columns
        # whose top reaches the best seed, and no column whole: at fig1,
        # where r_s < r_d, the tops keep only the winning columns.
        p = fig1 if point == "fig1" else WORST_POOL_POINT
        expected = grid_max_welfare(p, GridSpec(res))
        cells = []

        def counted(*args):
            sw = _cells(*args)
            cells.append(sw.size)
            return sw

        monkeypatch.setattr(oracle, "_cells", counted)
        assert grid_max_welfare(p, GridSpec(res)) == expected
        assert len(cells) == 2 and cells[0] == len(_axis(p.d, 1.0, res))
        assert sum(cells) <= most

    def test_finest_grid_memory_is_bounded(self, fig1):
        # Traced peaks: 0.80 MB on fig1 at 1e-4, set by the arrays of one
        # entry per column, and 0.24 MB on the worst pool point.
        for p, res in [(fig1, 1e-4), (WORST_POOL_POINT, 5e-4)]:
            tracemalloc.start()
            try:
                grid_max_welfare(p, GridSpec(res))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1e6

    def test_whole_column_passes_memory_is_bounded(self):
        # Every cell of this 2 001 x 2 001 grid is evaluated, in passes of
        # at most GRID_PASS cells: a traced peak of 0.81 MB.
        p = ModelParams(d=0.0, x=0.5078031207803458, w=0.1879227373491813, n=3,
                        alpha=1.155e-320, beta=2.17e-322, gamma=6e-323, zeta=1e-323,
                        r_d=0.0, r_s=0.0)
        tracemalloc.start()
        try:
            grid_max_welfare(p, GridSpec(5e-4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3e6


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

    def test_singular_iterate_rejected(self, fig1):
        # With x = d and the customers at d, the advisor's best response is s = d.
        p = fig1.replace(x=fig1.d)
        with pytest.raises(DegenerateDenominator, match="iterate drove s"):
            best_response_dynamics(p, OpinionProfile.uniform(p.d, 0.5, 1))


@pytest.fixture
def customer_calls(monkeypatch):
    """The dimension of the opinion argument of each customer_utility call
    that the oracle makes: 0 for a base payoff, 1 for a lattice of
    deviations."""
    calls = []

    def counted(sl, c_i, s):
        calls.append(np.ndim(c_i))
        return customer_utility(sl, c_i, s)

    monkeypatch.setattr(oracle, "customer_utility", counted)
    return calls


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

    @pytest.mark.parametrize("spacings", [2.5, 3.2, 4.4])
    def test_advisor_gain_wider_than_a_spacing_fails_on_every_seed(self, fig1, spacings):
        # The customer plays its best response to s, and s lies delta
        # above the advisor's best response s*(c). The advisor's payoff in
        # s' is -a (s' - s*)^2 + const, a = alpha + gamma n, so it gains
        # more than the tolerance on an interval of width
        # 2 sqrt(delta^2 - tol / a): here ``spacings`` lattice spacings.
        trials, a = 1000, fig1.alpha + fig1.gamma * fig1.n
        delta = math.sqrt((spacings / (2 * trials)) ** 2 + oracle.IMPROVEMENT_TOL / a)
        s = 0.3  # near P*, where s -> s*(c(s)) + delta converges
        for _ in range(200):
            s = advisor_best_response(fig1, [customer_best_response(fig1.customer(), s)]) + delta
        q = OpinionProfile.uniform(customer_best_response(fig1.customer(), s), s, 1)
        s_dev = np.linspace(0.0, 1.0, 2_000_001)
        gains = advisor_utilities(fig1, q.c, s_dev) > advisor_utility(fig1, q) + oracle.IMPROVEMENT_TOL
        assert np.count_nonzero(gains) / 2000 == pytest.approx(spacings, abs=0.01)
        assert not any(perturbation_check(fig1, q, trials, seed=k) for k in range(50))

    # The last seed's 64-bit Fibonacci hash is 2**64 - 1, which a float
    # division by 2**64 would round to an offset of exactly 1, one
    # spacing past the first.
    @pytest.mark.parametrize("seed", [0, 1, 2**64, 10**400, -pow(0x9E3779B97F4A7C15, -1, 2**64) % 2**64])
    def test_lattice_offset_lies_in_the_first_spacing(self, seed):
        fractions = oracle._lattice(8, seed)
        u0 = fractions[0] * 8
        assert 0.0 <= u0 < 1.0
        assert np.array_equal(fractions, (np.arange(8) + u0) / 8)
        assert fractions[-1] <= 1.0

    def test_identical_customers_are_probed_once(self, customer_calls):
        # An n = 1000 point of the analyze tuning pool with an admissible
        # P*, and a profile where the advisor plays its best response and
        # the customers can gain. One evaluation of the lattice gives the
        # verdict of probing each of the 1000 customers in turn.
        p = ModelParams(
            d=0.4245046393069442, x=0.5050241905059437, w=0.13476531105442058, n=1000,
            alpha=0.41529528180186775, beta=0.40324760479851324, gamma=0.10031917278689145,
            zeta=1.0716882649457649, r_d=0.7097192880196309, r_s=0.7097192880196309,
        )
        c = 0.45
        profiles = [nash_equilibria(p).p_star, OpinionProfile.uniform(c, advisor_best_response(p, [c] * p.n), p.n)]
        fractions = oracle._lattice(1000, 5)
        for q, verdict in zip(profiles, [True, False]):
            customer_calls.clear()
            assert perturbation_check(p, q, 1000, seed=5) is verdict
            assert customer_calls == [0, 1]  # the base payoff, then the deviations
            gains = [
                np.any(customer_utility(sl, sl.d + (max(q.s, sl.d) - sl.d) * fractions, q.s)
                       > customer_utility(sl, c_i, q.s) + oracle.IMPROVEMENT_TOL)
                for sl, c_i in zip(p.customers(), q.c)
            ]
            assert gains == [not verdict] * p.n


def _scalar_perturbation_check(params, q, trials, seed=0, improvement_tol=1e-9):
    """One utility call per deviation, on the lattice perturbation_check
    probes, written out one probe at a time: the reference for its array
    evaluation. Probe k of a player's interval [lo, hi] sits at
    lo + (hi - lo) (k + u0) / trials, for the offset u0 in [0, 1) given by
    the top 53 bits of the seed's 64-bit Fibonacci hash. A customer whose
    parameters and opinion an earlier customer shares is skipped."""
    u0 = (seed * 0x9E3779B97F4A7C15 % 2**64 >> 11) / 2**53
    fractions = [(k + u0) / trials for k in range(trials)]
    if isinstance(params, HeterogeneousParams):
        slices = [params.customer(i) for i in range(params.n)]
    else:
        slices = [params.customer()] * params.n
    base_a = advisor_utility(params, q)
    for f in fractions:
        if advisor_utility(params, OpinionProfile(q.c, f)) > base_a + improvement_tol:
            return False
    seen = set()
    for sl, c_i in zip(slices, q.c):
        if (sl, c_i) in seen:
            continue
        seen.add((sl, c_i))
        base_i = customer_utility(sl, c_i, q.s)
        hi = max(q.s, sl.d)
        for f in fractions:
            if customer_utility(sl, sl.d + (hi - sl.d) * f, q.s) > base_i + improvement_tol:
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

    def test_heterogeneous_repeated_customer(self, customer_calls):
        # Customers 0 and 2 share d_i, r_d_i and their opinion. The
        # advisor's weight on x pins its best response within 1e-8 of x,
        # so the customers' best responses to x are an equilibrium up to
        # gains far below the tolerance; moving the repeated customer off
        # its best response breaks it.
        het = HeterogeneousParams(
            x=0.4, w=0.5, alpha=1e6, beta=0.1, gamma=0.2, zeta=10.0,
            r_s=0.2, d_i=(0.1, 0.15, 0.1), r_d_i=(0.3, 0.28, 0.3),
        )
        c = [customer_best_response(sl, het.x) for sl in het.customers()]
        for shift, verdict in ((0.0, True), (0.01, False)):
            c_q = (c[0] + shift, c[1], c[0] + shift)
            q = OpinionProfile(c=c_q, s=advisor_best_response(het, c_q))
            for seed in range(5):
                customer_calls.clear()
                assert perturbation_check(het, q, 200, seed=seed) is verdict
                assert customer_calls == ([0, 1, 0, 1] if verdict else [0, 1])
                assert _scalar_perturbation_check(het, q, 200, seed=seed) is verdict

    @pytest.mark.parametrize("trials", [0, -5])
    def test_non_positive_trials_warn(self, fig1, trials):
        q = OpinionProfile.uniform(0.2, 0.5, 1)
        with pytest.warns(RuntimeWarning, match=r"^trials <= 0: the Nash check is vacuous$"):
            assert perturbation_check(fig1, q, trials)
