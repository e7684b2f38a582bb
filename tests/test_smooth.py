"""Tests for the differentiable plant surrogate."""

import math

import numpy as np
import pytest

from stormdp import smooth
from stormdp.plant import PlantParams, f_rhs, q_drain, q_out, q_pump
from stormdp.smooth import (
    SmoothParams,
    f_eps_rhs,
    q_drain_eps,
    q_out_eps,
    q_pump_eps,
    sigmoid_gate,
    smooth_sqrt,
)

P = PlantParams()
SP = SmoothParams(plant=P, eps=0.5)


class TestSmoothSqrt:
    def test_branch_values(self):
        eps = 0.5
        assert float(smooth_sqrt(-7.0, eps)) == pytest.approx(2 / 3 * math.sqrt(0.5),
                                                              rel=1e-12)
        assert float(smooth_sqrt(4.0, eps)) == 2.0

    def test_continuity_at_zero_and_eps(self):
        for eps in (0.5, 0.1, 0.02):
            below = float(smooth_sqrt(0.0, eps))
            mid_limit = 0.0 ** 1.5 / (3 * eps) + (2 / 3) * math.sqrt(eps)
            assert below == pytest.approx(mid_limit, rel=4e-16, abs=0.0)
            at_eps = float(smooth_sqrt(eps, eps))
            assert at_eps == pytest.approx(math.sqrt(eps), rel=1e-14)
            mid_at_eps = eps ** 1.5 / (3 * eps) + (2 / 3) * math.sqrt(eps)
            assert mid_at_eps == pytest.approx(math.sqrt(eps), rel=1e-14)

    def test_nondecreasing_and_lower_bound(self):
        y = np.linspace(-2.0, 3.0, 5001)
        vals = smooth_sqrt(y, 0.5)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all(vals >= (2 / 3) * math.sqrt(0.5) - 1e-15)

    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        eps = 0.5
        h = 1e-7
        # sample away from the curvature blow-up at y -> 0+
        y = np.concatenate([rng.uniform(0.05, eps - 0.01, 200),
                            rng.uniform(eps + 0.01, 5.0, 200),
                            rng.uniform(-3.0, -0.01, 200)])
        fd = (smooth_sqrt(y + h, eps) - smooth_sqrt(y - h, eps)) / (2 * h)
        an = smooth._sqrt_and_slope(y, eps)[1]
        assert np.all(np.abs(fd - an) <= 1e-6 * (1.0 + np.abs(an)))

    def test_far_branches_stay_quiet(self):
        y = np.array([-1e6, 0.0, 0.5, 1e6])
        with np.errstate(all="raise"):
            vals, slopes = smooth._sqrt_and_slope(y, 0.5)
        assert np.all(np.isfinite(vals)) and np.all(np.isfinite(slopes))
        assert vals[-1] == 1e3 and slopes[0] == 0.0

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            smooth_sqrt(1.0, 0.0)
        with pytest.raises(ValueError):
            SmoothParams(plant=P, eps=-1.0)


class TestSigmoidGate:
    def test_half_at_threshold(self):
        for sense in ("activate-above", "activate-below"):
            assert float(sigmoid_gate(10.0, 10.0, sense, 0.5)) == 0.5

    def test_saturation(self):
        eps = 0.5
        assert float(sigmoid_gate(10.0 + 40 * eps, 10.0, "activate-above", eps)) \
            == pytest.approx(1.0, abs=1e-15)
        assert float(sigmoid_gate(10.0 + 40 * eps, 10.0, "activate-below", eps)) \
            == pytest.approx(0.0, abs=1e-15)

    def test_slope_at_threshold(self):
        eps = 0.5
        h = 1e-6
        fd = (sigmoid_gate(10.0 + h, 10.0, "activate-above", eps)
              - sigmoid_gate(10.0 - h, 10.0, "activate-above", eps)) / (2 * h)
        assert float(fd) == pytest.approx(1 / (4 * eps), rel=1e-6)
        an = smooth._gate_and_slope(10.0, 10.0, "activate-above", eps)[1]
        assert float(an) == pytest.approx(1 / (4 * eps), rel=1e-12)

    def test_monotone_and_no_overflow(self):
        z = np.linspace(-1e6, 1e6, 1001)
        s = sigmoid_gate(z, 0.0, "activate-above", 0.5)
        assert np.all(np.diff(s) >= 0.0)
        assert np.all(np.isfinite(s))

    @pytest.mark.parametrize("sense", ["activate-above", "activate-below"])
    @pytest.mark.parametrize("z", [-1e6, 1e6])
    def test_saturated_value_and_slope_stay_quiet(self, z, sense):
        # |z - threshold| / eps = 2e6 lies far beyond EXP_CLAMP
        eps = 0.5
        with np.errstate(all="raise"):
            s, ds = map(float, smooth._gate_and_slope(z, 0.0, sense, eps))
        assert 0.0 <= s <= 1.0
        assert -1 / (4 * eps) <= ds <= 1 / (4 * eps)
        on = (z > 0) == (sense == "activate-above")
        assert s == pytest.approx(1.0 if on else 0.0, abs=1e-200)

    def test_unknown_sense_rejected(self):
        with pytest.raises(ValueError):
            sigmoid_gate(0.0, 0.0, "sideways", 0.5)


class TestSmoothFlows:
    def test_q_out_eps_matches_exact_above_band(self):
        x1 = np.linspace(P.a1 * (P.z_o + SP.eps) + 1.0, P.cap1, 100)
        assert np.allclose(q_out_eps(x1, SP), q_out(x1, P), rtol=0, atol=0)

    def test_q_out_eps_at_zero(self):
        assert float(q_out_eps(0.0, SP)) == pytest.approx(0.06253, rel=1e-3)

    def test_q_out_eps_differentiable_at_kink(self):
        # at the former kink the smooth flow is C1 with zero slope: the
        # central difference exists and converges to the analytic value 0
        x1 = P.a1 * P.z_o
        assert float(smooth._sqrt_and_slope(0.0, SP.eps)[1]) == 0.0
        fds = []
        for h in (1e-2, 1e-4, 1e-6):
            fds.append(abs(float(q_out_eps(x1 + h, SP) - q_out_eps(x1 - h, SP))
                           / (2 * h)))
        assert fds[0] > fds[1] > fds[2]
        assert fds[2] <= 1e-6

    def test_q_pump_eps_spot_value(self):
        got = float(q_pump_eps(100.0, 0.0, 0.5, SP))
        sigma2 = 1.0 / (1.0 + math.exp((0.0 - 3.14416) / 0.5))
        expected = 0.5 * P.b * math.sqrt(100 / 25 + 55.2 - 16) * sigma2
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(4.253e-3, rel=1e-3)

    def test_q_pump_eps_zero_control_and_range(self):
        assert float(q_pump_eps(100.0, 0.0, 0.0, SP)) == 0.0
        with pytest.raises(ValueError):
            q_pump_eps(100.0, 0.0, 1.2, SP)
        for u in (math.nan, np.float64(math.nan), np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                q_pump_eps(100.0, 0.0, u, SP)

    def test_q_pump_eps_deep_interior_matches_exact(self):
        # both gates saturated (margins above 40*eps at eps = 0.05): x1
        # far above the suction gate, x2 far below the moisture gate
        sp = SmoothParams(plant=P, eps=0.05)
        got = float(q_pump_eps(100.0, 0.0, 1.0, sp))
        exact = float(q_pump(100.0, 0.0, 1.0, P))
        assert got == pytest.approx(exact, rel=1e-9)

    def test_q_drain_eps(self):
        assert float(q_drain_eps(P.z_cap, SP)) == pytest.approx(
            0.5 * float(q_drain(P.z_cap, P)), rel=1e-9)
        assert float(q_drain_eps(1.0, SP)) == pytest.approx(0.0, abs=1e-12)
        deep = P.z_cap  # cap2 == z_cap, so "far above" is out of the box;
        # verify saturation on the high side just below the clamp instead
        got = float(q_drain_eps(deep + 25 * SP.eps, SP))
        exact = float(q_drain(deep + 25 * SP.eps, P))
        assert got == pytest.approx(exact, rel=1e-9)

    def test_f_eps_pump_term_cancels(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x1, x2 = rng.uniform(0, 150), rng.uniform(0, 34.4)
            u, wr, we = rng.uniform(0, 1), rng.uniform(0, 1e-4), rng.uniform(0, 1e-4)
            f1, f2 = f_eps_rhs(x1, x2, u, wr, we, SP)
            expected = (wr * (P.a_in + P.a2) - float(q_out_eps(x1, SP)) - we
                        - float(q_drain_eps(x2, SP)))
            assert float(f1 + f2) == pytest.approx(expected, abs=1e-15)

    def test_df2_dwe_is_minus_one(self):
        h = 1e-6
        f2a = f_eps_rhs(100.0, 10.0, 0.5, 1e-5, 2e-5 + h, SP)[1]
        f2b = f_eps_rhs(100.0, 10.0, 0.5, 1e-5, 2e-5 - h, SP)[1]
        assert float(f2a - f2b) / (2 * h) == pytest.approx(-1.0, rel=1e-9)

    def test_pointwise_convergence_in_eps(self):
        # fixed points off every switching surface: the mismatch shrinks
        # monotonically along a decreasing eps ladder
        pts = [(100.0, 10.0, 0.7, 2e-5, 1e-5), (50.0, 1.0, 0.3, 0.0, 0.0),
               (120.0, 30.0, 1.0, 1e-4, 0.0)]
        for x1, x2, u, wr, we in pts:
            f = np.array(f_rhs(x1, x2, u, wr, we, P), dtype=float)
            gaps = []
            for eps in (0.5, 0.1, 0.02, 0.004):
                fe = np.array(f_eps_rhs(x1, x2, u, wr, we,
                                        SmoothParams(plant=P, eps=eps)), dtype=float)
                gaps.append(float(np.max(np.abs(fe - f))))
            assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))

    def test_smooth_flows_bounded(self):
        rng = np.random.default_rng(5)
        x1 = rng.uniform(0, P.cap1, 500)
        x2 = rng.uniform(0, P.cap2, 500)
        sup_qout = float(q_out(P.cap1, P))
        slack = P.c_out * (2 / 3) * math.sqrt(SP.eps)
        assert np.all(q_out_eps(x1, SP) <= sup_qout + slack)
        assert np.all(q_pump_eps(x1, x2, 1.0, SP)
                      <= float(np.max(q_pump(P.cap1, 0.0, 1.0, P))) + slack)
        assert np.all(q_drain_eps(x2, SP) <= float(q_drain(P.cap2, P)) + slack)
