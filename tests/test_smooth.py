"""Tests for the differentiable plant surrogate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormdp import smooth
from stormdp.plant import PlantParams, f_rhs, mass_balance, q_drain, q_out, q_pump
from stormdp.smooth import EXP_CLAMP, SmoothParams, f_eps_jacobians, f_eps_rhs, smooth_sqrt

P = PlantParams()
SP = SmoothParams(plant=P, eps=0.5)


def _flows(x1, x2, u, sp=SP):
    """The smooth outlet, pump and drainage flows, read off
    ``f_eps_jacobians``: at u = 0 and no weather the field is
    (-q_out, -q_drain) bit for bit, and the pump flow is its u-partial
    times u, which rounds in another order (within 3e-18)."""
    f, _, ju, _ = f_eps_jacobians(x1, x2, 0.0, 0.0, 0.0, sp)
    return -f[..., 0], ju[..., 1, 0] * u, -f[..., 1]


def _gate(sense, z, sp=SP):
    """The pumps' suction gate on x1 (``activate-above``) or moisture gate
    on x2 (``activate-below``) at z, read off ``f_eps_jacobians``: the
    pump's u-partial is b psi g1 g2, and the other gate is read at a
    state that saturates it to exactly 1."""
    x1, x2 = (z, -1e3) if sense == "activate-above" else (P.cap1, z)
    ju = f_eps_jacobians(x1, x2, 0.0, 0.0, 0.0, sp)[2]
    psi = smooth_sqrt(np.asarray(x1) / P.a1 + P.c_hat - P.d, sp.eps)
    return ju[..., 1, 0] / (P.b * psi)


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

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0])
    def test_rejects_eps_that_is_not_finite_and_positive(self, eps):
        message = r"^smoothing scale eps must be finite and positive, got "
        with pytest.raises(ValueError, match=message):
            SmoothParams(plant=P, eps=eps)
        with pytest.raises(ValueError, match=message):
            smooth_sqrt(1.0, eps)


class TestSigmoidGate:
    """The logistic gates, as the pump flow reads them."""

    def test_half_at_threshold(self):
        assert float(_gate("activate-above", P.pump_gate_volume)) == 0.5
        assert float(_gate("activate-below", P.x2_target)) == 0.5

    def test_saturation(self):
        eps = 0.5
        assert float(_gate("activate-above", P.pump_gate_volume + 40 * eps)) \
            == pytest.approx(1.0, abs=1e-15)
        assert float(_gate("activate-below", P.x2_target + 40 * eps)) \
            == pytest.approx(0.0, abs=1e-15)

    def test_slope_at_threshold(self):
        eps = 0.5
        h = 1e-6
        z = P.pump_gate_volume
        fd = (_gate("activate-above", z + h) - _gate("activate-above", z - h)) / (2 * h)
        assert float(fd) == pytest.approx(1 / (4 * eps), rel=1e-6)
        # the moisture gate's slope, read off the pump's x2 partial at full
        # pumping with the suction gate at 1 (drainage is shut off there)
        jx = f_eps_jacobians(P.cap1, P.x2_target, 1.0, 0.0, 0.0, SP)[1]
        psi = smooth_sqrt(P.cap1 / P.a1 + P.c_hat - P.d, eps)
        assert float(jx[1, 1] / (P.b * psi)) == pytest.approx(-1 / (4 * eps), rel=1e-12)

    def test_monotone_and_no_overflow(self):
        z = np.linspace(-1e6, 1e6, 1001)
        with np.errstate(over="raise"):
            s = _gate("activate-above", z)
        assert np.all(np.diff(s) >= 0.0)
        assert np.all(np.isfinite(s))

    @pytest.mark.parametrize("sense", ["activate-above", "activate-below"])
    @pytest.mark.parametrize("z", [-1e6, 1e6])
    def test_saturated_value_and_slope_stay_quiet(self, z, sense):
        # |z - threshold| / eps = 2e6 lies far beyond EXP_CLAMP
        eps = 0.5
        x1, x2 = (z, -1e3) if sense == "activate-above" else (P.cap1, z)
        with np.errstate(all="raise"):
            out = f_eps_jacobians(x1, x2, 1.0, 0.0, 0.0, SP)
            s = float(_gate(sense, z))
            ds = float(_gate(sense, z + 1.0) - _gate(sense, z - 1.0)) / 2.0
        assert all(np.all(np.isfinite(a)) for a in out)
        assert 0.0 <= s <= 1.0
        assert -1 / (4 * eps) <= ds <= 1 / (4 * eps)
        on = (z > 0) == (sense == "activate-above")
        assert s == pytest.approx(1.0 if on else 0.0, abs=1e-200)


class TestSmoothFlows:
    def test_q_out_eps_matches_exact_above_band(self):
        x1 = np.linspace(P.a1 * (P.z_o + SP.eps) + 1.0, P.cap1, 100)
        assert np.allclose(_flows(x1, 0.0, 0.0)[0], q_out(x1, P), rtol=0, atol=0)

    def test_q_out_eps_at_zero(self):
        assert float(_flows(0.0, 0.0, 0.0)[0]) == pytest.approx(0.06253, rel=1e-3)

    def test_q_out_eps_differentiable_at_kink(self):
        # at the former kink the smooth flow is C1 with zero slope: the
        # central difference exists and converges to the analytic value 0
        x1 = P.a1 * P.z_o
        assert float(f_eps_jacobians(x1, 0.0, 0.0, 0.0, 0.0, SP)[1][0, 0]) == 0.0
        fds = []
        for h in (1e-2, 1e-4, 1e-6):
            fds.append(abs(float(_flows(x1 + h, 0.0, 0.0)[0] - _flows(x1 - h, 0.0, 0.0)[0])
                           / (2 * h)))
        assert fds[0] > fds[1] > fds[2]
        assert fds[2] <= 1e-6

    def test_q_pump_eps_spot_value(self):
        got = float(_flows(100.0, 0.0, 0.5)[1])
        sigma2 = 1.0 / (1.0 + math.exp((0.0 - 3.14416) / 0.5))
        expected = 0.5 * P.b * math.sqrt(100 / 25 + 55.2 - 16) * sigma2
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(4.253e-3, rel=1e-3)

    def test_q_pump_eps_zero_control_and_range(self):
        # at u = 0 the pump adds exactly nothing to tank 1's outflow
        f1 = f_eps_rhs(100.0, 0.0, 0.0, 0.0, 0.0, SP)[0]
        assert float(f1) == -P.c_out * float(smooth_sqrt(100.0 / P.a1 - P.z_o, SP.eps))
        with pytest.raises(ValueError):
            f_eps_jacobians(100.0, 0.0, 1.2, 0.0, 0.0, SP)
        for u in (math.nan, np.float64(math.nan), np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                f_eps_jacobians(100.0, 0.0, u, 0.0, 0.0, SP)

    def test_q_pump_eps_deep_interior_matches_exact(self):
        # both gates saturated (margins above 40*eps at eps = 0.05): x1
        # far above the suction gate, x2 far below the moisture gate
        sp = SmoothParams(plant=P, eps=0.05)
        got = float(_flows(100.0, 0.0, 1.0, sp)[1])
        exact = float(q_pump(100.0, 0.0, 1.0, P))
        assert got == pytest.approx(exact, rel=1e-9)

    def test_q_drain_eps(self):
        assert float(_flows(0.0, P.z_cap, 0.0)[2]) == pytest.approx(
            0.5 * float(q_drain(P.z_cap, P)), rel=1e-9)
        assert float(_flows(0.0, 1.0, 0.0)[2]) == pytest.approx(0.0, abs=1e-12)
        deep = P.z_cap  # cap2 == z_cap, so "far above" is out of the box;
        # verify saturation on the high side just below the clamp instead
        got = float(_flows(0.0, deep + 25 * SP.eps, 0.0)[2])
        exact = float(q_drain(deep + 25 * SP.eps, P))
        assert got == pytest.approx(exact, rel=1e-9)

    def test_f_eps_pump_term_cancels(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x1, x2 = rng.uniform(0, 150), rng.uniform(0, 34.4)
            u, wr, we = rng.uniform(0, 1), rng.uniform(0, 1e-4), rng.uniform(0, 1e-4)
            f1, f2 = f_eps_rhs(x1, x2, u, wr, we, SP)
            q_o, _, q_d = _flows(x1, x2, u)
            expected = wr * (P.a_in + P.a2) - float(q_o) - we - float(q_d)
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
        q_o, q_p, q_d = _flows(x1, x2, 1.0)
        sup_qout = float(q_out(P.cap1, P))
        slack = P.c_out * (2 / 3) * math.sqrt(SP.eps)
        assert np.all(q_o <= sup_qout + slack)
        assert np.all(q_p <= float(np.max(q_pump(P.cap1, 0.0, 1.0, P))) + slack)
        assert np.all(q_d <= float(q_drain(P.cap2, P)) + slack)


def _per_law_sqrt(y, eps):
    y = np.asarray(y, dtype=float)
    yc = np.maximum(y, 0.0)
    low = (2.0 / 3.0) * np.sqrt(eps)
    high = np.sqrt(np.maximum(yc, eps))
    value = np.where(y <= 0.0, low,
                     np.where(y <= eps, np.power(yc, 1.5) / (3.0 * eps) + low, high))
    slope = np.where(y <= 0.0, 0.0, np.where(y <= eps, np.sqrt(yc) / (2.0 * eps), 0.5 / high))
    return value, slope


def _per_law_gate(z, threshold, sense, eps):
    z = np.asarray(z, dtype=float)
    if sense == "activate-above":
        e, sign = (threshold - z) / eps, 1.0
    else:
        e, sign = (z - threshold) / eps, -1.0
    s = 1.0 / (1.0 + np.exp(np.clip(e, -EXP_CLAMP, EXP_CLAMP)))
    return s, sign * s * (1.0 - s) / eps


def _per_law_jacobians(x1, x2, u, w_r, w_e, sp):
    """The field and its Jacobians with every root and gate evaluated on
    its own, one flow law at a time: the reference that the stacked
    evaluation must reproduce bit for bit."""
    p = sp.plant
    r, dr = _per_law_sqrt(x1 / p.a1 - p.z_o, sp.eps)
    q_o, dqo = p.c_out * r, p.c_out * dr / p.a1
    psi, dpsi = _per_law_sqrt(x1 / p.a1 + p.c_hat - p.d, sp.eps)
    g1, dg1 = _per_law_gate(x1, p.pump_gate_volume, "activate-above", sp.eps)
    g2, dg2 = _per_law_gate(x2, p.x2_target, "activate-below", sp.eps)
    ub = u * p.b
    q_p, qp_x1 = ub * psi * g1 * g2, ub * (dpsi / p.a1 * g1 + psi * dg1) * g2
    qp_x2, qp_u = ub * psi * g1 * dg2, p.b * psi * g1 * g2
    g3, dg3 = _per_law_gate(x2, p.z_cap, "activate-above", sp.eps)
    level = x2 / p.a2 + p.z_soil
    q_d = p.K * p.a2 * level / p.z_soil * g3
    dqd = p.K * p.a2 * (g3 / (p.a2 * p.z_soil) + level / p.z_soil * dg3)
    f1, f2 = mass_balance(q_o, q_p, q_d, w_r, w_e, p)
    return (np.stack([f1, f2], axis=-1),
            np.stack([np.stack([-dqo - qp_x1, -qp_x2], axis=-1),
                      np.stack([qp_x1, qp_x2 - dqd], axis=-1)], axis=-2),
            np.stack([-qp_u, qp_u], axis=-1)[..., None],
            np.array([[p.a_in, 0.0], [p.a2, -1.0]]))


# each root's cubic band and its ends, each gate's threshold, states far
# enough from a threshold that eps = 1e-3 saturates the gate past
# EXP_CLAMP, and -0.0; the pump-curve root's band lies at negative x1
_EPS = [0.5, 0.05, 1e-3]
BAND_X1 = st.sampled_from([P.a1 * P.z_o, P.a1 * (P.z_o + 0.5), P.a1 * (P.d - P.c_hat)]) \
    | st.floats(P.a1 * P.z_o, P.a1 * (P.z_o + 0.5)) \
    | st.floats(P.a1 * (P.d - P.c_hat), P.a1 * (P.d - P.c_hat + 0.5))
EDGE_X1 = BAND_X1 | st.sampled_from([-0.0, 0.0, P.pump_gate_volume, P.cap1, 1e6]) \
    | st.floats(0.0, P.cap1)
EDGE_X2 = st.sampled_from([-0.0, 0.0, P.x2_target, P.z_cap, -1e3, 1e6]) | st.floats(0.0, P.cap2)
EDGE_U = st.sampled_from([-0.0, 0.0, 1.0]) | st.floats(0.0, 1.0)
EDGE_W = st.sampled_from([-0.0, 0.0]) | st.floats(0.0, 1e-4)


class TestStackedForms:
    """``f_eps_jacobians`` evaluates both roots as one stack and the three
    gates as another; it gives the bits of the per-law form on Python
    floats, on numpy scalars and on each element of an array."""

    @given(points=st.lists(st.tuples(EDGE_X1, EDGE_X2, EDGE_U, EDGE_W, EDGE_W),
                           min_size=1, max_size=6),
           eps=st.sampled_from(_EPS))
    @settings(max_examples=200, deadline=None)
    def test_same_bits_as_per_law_form(self, points, eps):
        sp = SmoothParams(plant=P, eps=eps)
        columns = [np.array(c) for c in zip(*points)]
        got = f_eps_jacobians(*columns, sp)
        assert _bits(got) == _bits(_per_law_jacobians(*columns, sp))
        for point in points:
            for kind in (float, np.float64):
                args = [kind(v) for v in point]
                assert _bits(f_eps_jacobians(*args, sp)) \
                    == _bits(_per_law_jacobians(*args, sp)), kind

    def test_edges_are_reached(self):
        # the strategies reach both roots' cubic bands, and gates
        # saturated past the exponent clamp
        outlet = P.a1 * (P.z_o + 0.25) / P.a1 - P.z_o
        pump_curve = P.a1 * (P.d - P.c_hat + 0.25) / P.a1 + P.c_hat - P.d
        assert 0.0 < outlet <= 0.5 and 0.0 < pump_curve <= 0.5
        assert (P.cap1 - P.pump_gate_volume) / 1e-3 > EXP_CLAMP
        assert (1e6 - P.z_cap) / 1e-3 > EXP_CLAMP and (P.x2_target + 1e3) / 1e-3 > EXP_CLAMP


def _bits(values):
    return [np.asarray(v).tobytes() for v in values]
