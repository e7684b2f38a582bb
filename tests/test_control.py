"""Tests for the three controller step functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _instances import oracle_instance
from stormdp.control import (
    MpcConfig,
    dp_step,
    initial_controller_state,
    mpc_step,
    onoff_step,
)
from stormdp.plant import PlantParams, f_rhs, q_pump
from stormdp.riskdp import Grid, RiskParams, evaluate_policy_W, solve, tracking_cost

P = PlantParams()


def _around(v):
    """v and one float step either side of it."""
    return [float(np.nextafter(v, -np.inf)), float(v), float(np.nextafter(v, np.inf))]


GATE_X1 = _around(P.pump_gate_volume)
GATE_X2 = _around(P.x2_target)


class TestOnOff:
    def test_pumps_when_dry_and_full(self):
        assert onoff_step(100.0, 0.0, 0.5, P) == 0.5

    def test_boundary_conditions(self):
        assert onoff_step(100.0, P.a2 * P.z_veg, 0.5, P) == 0.0  # strict
        assert onoff_step(18.0, 0.0, 0.5, P) == 0.0  # 18/25 < 0.75

    def test_clamps_large_rate(self):
        assert onoff_step(100.0, 0.0, 1.5, P) == 1.0
        assert onoff_step(100.0, 0.0, 2.0, P) == 1.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            onoff_step(100.0, 0.0, 0.0, P)

    def test_stateless_idempotent(self):
        assert onoff_step(60.0, 1.0, 0.7, P) == onoff_step(60.0, 1.0, 0.7, P)

    @pytest.mark.parametrize("x2", GATE_X2)
    @pytest.mark.parametrize("x1", GATE_X1)
    def test_gate_edges_match_the_plant(self, x1, x2):
        assert (onoff_step(x1, x2, 0.5, P) > 0) == (q_pump(x1, x2, 1.0, P) > 0)

    @given(x1=st.sampled_from(GATE_X1) | st.floats(0.0, P.cap1),
           x2=st.sampled_from(GATE_X2) | st.floats(0.0, P.cap2),
           v=st.floats(1e-6, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_pumps_exactly_where_the_plant_pumps(self, x1, x2, v):
        assert (onoff_step(x1, x2, v, P) > 0) == (q_pump(x1, x2, 1.0, P) > 0)


class TestMpc:
    def test_initial_state(self):
        cs = initial_controller_state()
        assert cs.u_bar == 0.0
        assert cs.w_bar == (0.0, 0.0)
        assert cs.history == ()

    def test_forecast_length_enforced(self):
        cfg = MpcConfig(plant=P)
        cs = initial_controller_state()
        with pytest.raises(ValueError):
            mpc_step(0, 50.0, 1.0, np.zeros((3, 2)), cs, cfg)

    def test_on_target_zero_forecast_gives_zero_control(self):
        cfg = MpcConfig(plant=P, horizon=10, lam=1e-3)
        cs = initial_controller_state()
        u, _ = mpc_step(0, 50.0, P.x2_target, np.zeros((10, 2)), cs, cfg)
        assert abs(u) <= 1e-6

    def test_huge_lambda_gives_zero_control(self):
        cfg = MpcConfig(plant=P, horizon=10, lam=1e9)
        cs = initial_controller_state()
        u, _ = mpc_step(0, 100.0, 0.0, np.full((10, 2), 1e-5), cs, cfg)
        assert abs(u) <= 1e-6

    def test_output_in_range_and_state_update(self):
        cfg = MpcConfig(plant=P, horizon=5)
        cs = initial_controller_state()
        fc = np.column_stack([np.full(5, 2e-6), np.full(5, 1e-5)])
        u, cs2 = mpc_step(0, 100.0, 0.0, fc, cs, cfg)
        assert 0.0 <= u <= 1.0
        assert cs2.u_bar == u
        assert cs2.history == ((2e-6, 1e-5),)
        assert cs2.w_bar == pytest.approx((2e-6, 1e-5))

    def test_history_window_and_running_mean(self):
        cfg = MpcConfig(plant=P, horizon=3)
        cs = initial_controller_state()
        seen = []
        for t in range(5):
            wr = 1e-6 * (t + 1)
            fc = np.column_stack([np.full(3, wr), np.zeros(3)])
            _, cs = mpc_step(t, 100.0, 0.0, fc, cs, cfg)
            seen.append(wr)
            window = seen[-3:]
            assert len(cs.history) == min(t + 1, 3)
            assert cs.w_bar[0] == pytest.approx(np.mean(window))

    def test_deterministic(self):
        cfg = MpcConfig(plant=P, horizon=4)
        fc = np.column_stack([np.full(4, 1e-6), np.full(4, 2e-5)])
        u1, s1 = mpc_step(0, 90.0, 2.0, fc, initial_controller_state(), cfg)
        u2, s2 = mpc_step(0, 90.0, 2.0, fc, initial_controller_state(), cfg)
        assert u1 == u2 and s1 == s2


class TestMpcOnArrays:
    @pytest.mark.parametrize("m", [1, 3, 9])
    def test_array_states_equal_scalar_calls(self, m):
        # states at the pump gate and the target, and anywhere in the box
        p = PlantParams(tau=60.0)
        cfg = MpcConfig(plant=p)
        rng = np.random.default_rng(m)
        batch = initial_controller_state()
        singles = [initial_controller_state()] * m
        for t in range(20):
            x1 = np.where(rng.random(m) < 0.3, rng.choice(GATE_X1, m), rng.uniform(0, p.cap1, m))
            x2 = np.where(rng.random(m) < 0.3, rng.choice(GATE_X2, m), rng.uniform(0, p.cap2, m))
            fc = np.column_stack([rng.uniform(0, 2e-6, 10), np.full(10, 4e-5)])
            u, batch = mpc_step(t, x1, x2, fc, batch, cfg)
            alone = [mpc_step(t, a, b, fc, cs, cfg) for a, b, cs in zip(x1, x2, singles)]
            singles = [cs for _, cs in alone]
            assert u.shape == batch.u_bar.shape == (m,)
            assert u.tobytes() == np.array([v for v, _ in alone]).tobytes()
            assert (batch.w_bar, batch.history) == (singles[0].w_bar, singles[0].history)

    def test_scalar_state_gives_a_scalar(self):
        u, cs = mpc_step(0, 100.0, 0.0, np.zeros((10, 2)), initial_controller_state(),
                         MpcConfig(plant=P))
        assert np.ndim(u) == 0 and np.ndim(cs.u_bar) == 0


class TestDpStep:
    def test_node_lookup_and_horizon(self):
        inst = oracle_instance()
        _, policy = solve(inst.N, inst.grid, inst.actions, inst.dm, inst.costs,
                          inst.plant, RiskParams(-1.0))
        u = dp_step(0, 75.0, 0.0, policy)
        assert u == float(inst.actions[policy.mu[0, 1]])
        with pytest.raises(ValueError):
            dp_step(inst.N, 75.0, 0.0, policy)
        with pytest.raises(ValueError):
            dp_step(0, 500.0, 0.0, policy)

    def test_rollout_attains_value(self):
        # the extracted policy's risk value equals V_0 on the finite MDP
        inst = oracle_instance()
        rm = RiskParams(-1.0)
        values, policy = solve(inst.N, inst.grid, inst.actions, inst.dm,
                               inst.costs, inst.plant, rm)
        W = evaluate_policy_W(policy, inst.dm, inst.costs, inst.plant, rm)
        attained = (-2.0 / rm.theta) * np.log(W[0])
        assert np.all(np.abs(attained - values.V[0]) <= 1e-9)


class TestAllControllersAtRest:
    def test_hold_zero_at_target_with_no_weather(self):
        x1, x2 = 50.0, P.x2_target
        # exact plant is at equilibrium there
        f1, f2 = f_rhs(x1, x2, 0.0, 0.0, 0.0, P)
        assert float(f1) == 0.0 and float(f2) == 0.0

        assert onoff_step(x1, x2, 0.5, P) == 0.0

        cfg = MpcConfig(plant=P)
        u, _ = mpc_step(0, x1, x2, np.zeros((10, 2)),
                        initial_controller_state(), cfg)
        assert abs(u) <= 1e-6

        grid = Grid([0.0, x1, P.cap1], [0.0, x2, P.cap2])
        from stormdp.riskdp import DisturbanceModel
        dm = DisturbanceModel(w_r=[0.0], w_e=[0.0], p=[1.0])
        _, policy = solve(3, grid, np.linspace(0, 1, 3), dm, tracking_cost(P),
                          P, RiskParams(-1.0))
        assert dp_step(0, x1, x2, policy) == 0.0
