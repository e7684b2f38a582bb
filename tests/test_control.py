"""Tests for the three controller step functions."""

import numpy as np
import pytest

from _instances import oracle_instance
from stormdp.control import (
    MpcConfig,
    dp_step,
    initial_controller_state,
    mpc_step,
    onoff_step,
)
from stormdp.plant import PlantParams, f_rhs
from stormdp.riskdp import Grid, RiskParams, evaluate_policy_W, solve, tracking_cost

P = PlantParams()


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


class TestDpStep:
    def test_node_lookup_and_horizon(self):
        inst = oracle_instance()
        _, policy = solve(inst.N, inst.grid, inst.actions, inst.dm, inst.costs,
                          inst.plant, RiskParams(-1.0))
        u = dp_step(0, 75.0, 0.0, policy, inst.grid)
        assert u == float(inst.actions[policy.mu[0, 1]])
        with pytest.raises(ValueError):
            dp_step(inst.N, 75.0, 0.0, policy, inst.grid)
        with pytest.raises(ValueError):
            dp_step(0, 500.0, 0.0, policy, inst.grid)

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
        assert dp_step(0, x1, x2, policy, grid) == 0.0
