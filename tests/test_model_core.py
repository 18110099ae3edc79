"""Utilities, best responses and the welfare identity."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advisorgame import (
    DegenerateDenominator,
    HeterogeneousParams,
    InvalidParameter,
    ModelParams,
    OpinionProfile,
    advisor_best_response,
    advisor_utilities,
    advisor_utility,
    customer_best_response,
    customer_utility,
    social_welfare,
    social_welfare_gradient,
)

from conftest import draw_domain_point, draw_params, total_utility


def F(x):
    return Fraction(str(x))


class TestParams:
    @pytest.mark.parametrize("field,value", [
        ("d", -0.1), ("d", 1.5), ("x", 2.0), ("w", -1.0),
        ("r_d", 1.1), ("r_s", -0.2),
        ("alpha", 0.0), ("beta", -1.0), ("gamma", 0.0), ("zeta", -0.5),
    ])
    def test_rejects_out_of_range(self, fig1, field, value):
        with pytest.raises(InvalidParameter) as exc:
            fig1.replace(**{field: value})
        assert exc.value.field == field

    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "zeta"])
    def test_rejects_infinite_weight(self, fig1, field):
        with pytest.raises(InvalidParameter) as exc:
            fig1.replace(**{field: float("inf")})
        assert exc.value.field == field
        weights = dict(alpha=0.05, beta=0.1, gamma=0.2, zeta=10.0)
        weights[field] = float("inf")
        with pytest.raises(InvalidParameter) as exc:
            HeterogeneousParams(x=0.4, w=0.5, r_s=0.2, d_i=(0.1,),
                                r_d_i=(0.3,), **weights)
        assert exc.value.field == field

    @pytest.mark.parametrize("d_i, r_d_i", [((), ()), ((0.1, 0.2), (0.3,)), ((0.1,), (0.3, 0.3))])
    def test_heterogeneous_lengths(self, d_i, r_d_i):
        weights = dict(x=0.4, w=0.5, alpha=0.05, beta=0.1, gamma=0.2, zeta=10.0, r_s=0.2)
        assert HeterogeneousParams(d_i=(0.1, 0.2), r_d_i=(0.3, 0.3), **weights).n == 2
        with pytest.raises(InvalidParameter, match=f"^r_d_i: .* got {len(r_d_i)} for {len(d_i)}$"):
            HeterogeneousParams(d_i=d_i, r_d_i=r_d_i, **weights)

    def test_rejects_bad_n(self, fig1):
        with pytest.raises(InvalidParameter):
            fig1.replace(n=0)

    def test_replace_keeps_other_fields(self, fig1):
        p = fig1.replace(zeta=5.0)
        assert p.zeta == 5.0 and p.alpha == fig1.alpha


class TestAdvisorUtility:
    def test_zero_when_all_penalties_vanish(self):
        p = ModelParams(d=0.0, x=0.5, w=0.5, n=2, alpha=1, beta=1, gamma=1,
                        zeta=1, r_d=0.3, r_s=0.3)
        q = OpinionProfile.uniform(0.5, 0.5, 2)
        assert advisor_utility(p, q) == 0.0

    def test_single_surviving_term(self):
        p = ModelParams(d=0.0, x=0.4, w=0.5, n=1, alpha=1, beta=1, gamma=1,
                        zeta=1, r_d=0.3, r_s=0.3)
        q = OpinionProfile.uniform(0.5, 0.5, 1)
        assert advisor_utility(p, q) == pytest.approx(-0.01, rel=1e-12)

    def test_two_equilibria_point(self, fig1):
        # Exact-rational re-evaluation, term by term.
        exact = (-F("0.05") * (F("0.3") - F("0.4")) ** 2
                 - F("0.1") * (F("0.5") - F("0.275")) ** 2
                 - F("0.2") * (F("0.3") - F("0.275")) ** 2)
        assert exact == F("-0.0056875")
        q = OpinionProfile.uniform(0.275, 0.3, 1)
        assert advisor_utility(fig1, q) == pytest.approx(float(exact), abs=1e-15)

    def test_array_entries_equal_scalar_calls(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 3, 9, 130, 1000):
            p = draw_params(rng, n=n)
            c = rng.uniform(p.d, 1.0, size=n)
            s = rng.uniform(0.0, 1.0, size=257)
            values = advisor_utilities(p, c, s)
            assert values.shape == s.shape
            for k in range(0, len(s), 16):
                assert values[k] == advisor_utility(p, OpinionProfile(tuple(c), s[k]))
                assert values[k] == advisor_utilities(p, c, s[k : k + 1])[0]


class TestCustomerUtility:
    def test_agreement_pays_proposed_return(self, fig1):
        sl = fig1.customer()
        assert customer_utility(sl, 0.7, 0.7) == pytest.approx(fig1.r_s, abs=1e-15)

    def test_baseline_pays_desired_return_minus_dissonance(self, fig1):
        sl = fig1.customer()
        expected = fig1.r_d - fig1.zeta * (0.3 - fig1.d) ** 2
        assert customer_utility(sl, fig1.d, 0.3) == pytest.approx(expected, rel=1e-12)

    def test_equilibrium_point_value(self, fig1):
        exact = (F("0.3")
                 + (F("0.275") - F("0.1")) / (F("0.3") - F("0.1")) * (F("0.2") - F("0.3"))
                 - F(10) * (F("0.3") - F("0.275")) ** 2)
        assert exact == F("0.20625")
        got = customer_utility(fig1.customer(), 0.275, 0.3)
        assert got == pytest.approx(float(exact), abs=1e-15)

    def test_singular_denominator_raises(self, fig1):
        with pytest.raises(DegenerateDenominator):
            customer_utility(fig1.customer(), 0.1, fig1.d)

    def test_equal_returns_extend_through_singularity(self, fig1):
        sl = fig1.replace(r_s=0.3).customer()
        assert customer_utility(sl, 0.1, 0.1) == pytest.approx(0.3, abs=1e-15)


class TestBestResponses:
    def test_advisor_fixed_point_at_consensus(self, fig1):
        for n in (1, 2, 3):
            p = fig1.replace(n=n)
            assert advisor_best_response(p, [p.x] * n) == pytest.approx(p.x, rel=1e-14)

    def test_advisor_equilibrium_consistency(self, fig1):
        assert advisor_best_response(fig1, [0.275]) == pytest.approx(0.3, rel=1e-14)

    def test_advisor_two_customers(self):
        p = ModelParams(d=0.0, x=0.0, w=0.5, n=2, alpha=1, beta=1, gamma=1,
                        zeta=1, r_d=0.3, r_s=0.3)
        assert advisor_best_response(p, [1.0, 1.0]) == pytest.approx(2 / 3, rel=1e-14)

    def test_customer_equal_returns_agrees(self, fig1):
        sl = fig1.replace(r_s=0.3).customer()
        assert customer_best_response(sl, 0.6) == 0.6

    def test_customer_equilibrium_consistency(self, fig1):
        sl = fig1.customer()
        assert customer_best_response(sl, 0.3) == pytest.approx(0.275, rel=1e-14)
        assert customer_best_response(sl, 0.2) == pytest.approx(0.15, rel=1e-14)

    def test_customer_response_is_not_clamped(self, fig1):
        sl = fig1.replace(zeta=0.01).customer()
        assert customer_best_response(sl, 0.3) < fig1.d

    def test_customer_singularity_raises(self, fig1):
        with pytest.raises(DegenerateDenominator):
            customer_best_response(fig1.customer(), fig1.d)

    def test_best_responses_are_maximizers(self, fig1):
        rng = np.random.default_rng(7)
        for _ in range(300):
            p = draw_params(rng)
            q = draw_domain_point(rng, p, margin=0.01)
            s_br = advisor_best_response(p, q.c)
            base = advisor_utility(p, OpinionProfile(q.c, s_br))
            for s_dev in rng.uniform(0.0, 1.0, size=30):
                assert advisor_utility(p, OpinionProfile(q.c, s_dev)) <= base + 1e-12
            sl = p.customer()
            c_br = customer_best_response(sl, q.s)
            base = customer_utility(sl, c_br, q.s)
            for c_dev in rng.uniform(-0.5, 1.5, size=30):
                assert customer_utility(sl, c_dev, q.s) <= base + 1e-12

    @given(x=st.floats(0, 1), gamma=st.floats(0.01, 10), alpha=st.floats(0.01, 10),
           c=st.floats(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_advisor_response_is_stationary(self, x, gamma, alpha, c):
        p = ModelParams(d=0.0, x=x, w=0.5, n=1, alpha=alpha, beta=1.0,
                        gamma=gamma, zeta=1.0, r_d=0.3, r_s=0.3)
        s = advisor_best_response(p, [c])
        grad = -2 * alpha * (s - x) - 2 * gamma * (s - c)
        assert abs(grad) <= 1e-10 * (1 + alpha + gamma)


class TestSocialWelfare:
    def test_equals_sum_of_utilities(self, fig1):
        rng = np.random.default_rng(11)
        for _ in range(500):
            p = draw_params(rng)
            q = draw_domain_point(rng, p, margin=1e-6)
            sw = social_welfare(p, q)
            direct = total_utility(p, q)
            assert sw == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_exact_next_to_the_singularity(self, fig1):
        # Summing c_i - d before dividing by s - d keeps this exact; the
        # difference sum(c) - d n would cancel to about one ulp / (s - d).
        p = fig1.replace(n=3)
        q = OpinionProfile.uniform(p.d + 1e-9, p.d + 1e-9, 3)
        assert social_welfare(p, q) == pytest.approx(total_utility(p, q), rel=1e-12)

    def test_all_penalties_vanish(self):
        p = ModelParams(d=0.1, x=0.6, w=0.6, n=3, alpha=1, beta=1, gamma=1,
                        zeta=1, r_d=0.25, r_s=0.25)
        q = OpinionProfile.uniform(0.6, 0.6, 3)
        assert social_welfare(p, q) == pytest.approx(3 * 0.25, abs=1e-14)

    def test_two_equilibria_point(self, fig1):
        exact = (F("-0.0056875")  # advisor part, checked above
                 + F("0.20625"))  # customer part, checked above
        q = OpinionProfile.uniform(0.275, 0.3, 1)
        assert social_welfare(fig1, q) == pytest.approx(float(exact), abs=1e-14)

    def test_singularity_raises(self, fig1):
        with pytest.raises(DegenerateDenominator):
            social_welfare(fig1, OpinionProfile.uniform(0.1, fig1.d, 1))

    def test_gradient_at_equal_returns_is_defined_on_s_equal_d(self, fig1):
        # With r_s == r_d the interpolation terms vanish, also at s = d.
        p = fig1.replace(r_s=fig1.r_d)
        grad = social_welfare_gradient(p, OpinionProfile.uniform(p.d, p.d, 1))
        assert grad.tolist() == pytest.approx([2.0 * p.beta * (p.w - p.d), -2.0 * p.alpha * (p.d - p.x)],
                                              rel=1e-15)

    def test_gradient_singularity_raises(self, fig1):
        with pytest.raises(DegenerateDenominator, match="within"):
            social_welfare_gradient(fig1, OpinionProfile.uniform(0.1, fig1.d, 1))

    def test_gradient_matches_finite_differences(self, fig1):
        rng = np.random.default_rng(13)
        h = 1e-6
        for _ in range(100):
            p = draw_params(rng)
            q = draw_domain_point(rng, p, margin=0.05)
            grad = social_welfare_gradient(p, q)
            coords = list(q.c) + [q.s]
            for k in range(len(coords)):
                hi = coords.copy()
                lo = coords.copy()
                hi[k] += h
                lo[k] -= h
                num = (social_welfare(p, OpinionProfile(tuple(hi[:-1]), hi[-1]))
                       - social_welfare(p, OpinionProfile(tuple(lo[:-1]), lo[-1]))) / (2 * h)
                scale = max(1.0, abs(grad[k]))
                assert abs(grad[k] - num) <= 1e-4 * scale
