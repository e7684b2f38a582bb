"""Tests for the three controller step functions."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _instances import oracle_instance
from stormdp import control
from stormdp.control import MpcConfig, dp_step, mpc_step, onoff_step
from stormdp.linearize import condense, linearize_at
from stormdp.plant import PlantParams, f_rhs, q_pump
from stormdp.riskdp import Grid, RiskParams, evaluate_policy_W, solve, tracking_cost
from stormdp.sim import (
    ControllerSpec,
    Scenario,
    WeatherSeries,
    run_scenario,
    standard_initial_states,
)

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


def _steady(w_r, w_e, n=40, dt=60.0):
    """A weather series holding (w_r, w_e) for n samples."""
    return WeatherSeries(t=dt * np.arange(n), w_r=np.full(n, w_r), w_e=np.full(n, w_e))


class TestMpc:
    def test_on_target_zero_forecast_gives_zero_control(self):
        cfg = MpcConfig(plant=P, horizon=10, lam=1e-3)
        u = mpc_step(0, 50.0, P.x2_target, 0.0, _steady(0.0, 0.0), cfg)
        assert abs(u) <= 1e-6

    def test_huge_lambda_gives_zero_control(self):
        cfg = MpcConfig(plant=P, horizon=10, lam=1e9)
        u = mpc_step(0, 100.0, 0.0, 0.0, _steady(1e-5, 1e-5), cfg)
        assert abs(u) <= 1e-6

    def test_output_in_range(self):
        cfg = MpcConfig(plant=P, horizon=5)
        u = mpc_step(0, 100.0, 0.0, 0.0, _steady(2e-6, 1e-5), cfg)
        assert 0.0 <= u <= 1.0

    def test_history_window_and_running_mean(self, monkeypatch):
        # the loop hands over the last applied control, and the disturbance
        # is the mean of the last min(t, M) weather rows, (0, 0) at t = 0
        p = PlantParams(tau=60.0)
        ops = []   # each operating point the MPC linearizes at

        def spy(op, sp):
            ops.append(op)
            return linearize_at(op, sp)

        monkeypatch.setattr(control, "linearize_at", spy)
        rng = np.random.default_rng(5)
        n, M = 30, 10   # windows of 8 rows and more round as one stacked mean
        w = WeatherSeries(t=p.tau * np.arange(n + 1), w_r=rng.uniform(0, 2e-6, n + 1),
                          w_e=rng.uniform(0, 5e-5, n + 1))
        spec = ControllerSpec(kind="mpc", horizon=M)
        trace = run_scenario(Scenario(name="high-low", x0=standard_initial_states(p)["high-low"],
                                      N=n, controller=spec, weather=w, plant=p))
        assert len(ops) == n and np.any(trace.u > 0)
        assert ops[0].u == 0.0 and (ops[0].w_r, ops[0].w_e) == (0.0, 0.0)
        for t in range(1, n):
            assert ops[t].u == trace.u[t - 1]
            rows = np.column_stack([w.w_r, w.w_e])[t - min(t, M):t]
            assert (ops[t].w_r, ops[t].w_e) == tuple(rows.mean(axis=0))

    def test_held_stages(self, monkeypatch):
        # k = 3 plant steps per stage: the model steps 3 tau, the operating
        # point's weather is the stacked mean of the last min(t, M k) rows,
        # and each stage's forecast is the mean of its k rows
        p = PlantParams(tau=60.0)
        calls = []   # (operating point, smooth params, w_dev) per decision

        def spy_linearize(op, sp):
            calls.append([op, sp])
            return linearize_at(op, sp)

        def spy_condense(lm, M, y0, w_dev, *args):
            calls[-1].append(w_dev)
            return condense(lm, M, y0, w_dev, *args)

        monkeypatch.setattr(control, "linearize_at", spy_linearize)
        monkeypatch.setattr(control, "condense", spy_condense)
        rng = np.random.default_rng(7)
        n, M, k = 45, 4, 3
        w = WeatherSeries(t=p.tau * np.arange(n + 1), w_r=rng.uniform(0, 2e-6, n + 1),
                          w_e=rng.uniform(0, 5e-5, n + 1))
        rows = np.column_stack([w.w_r, w.w_e])
        held = rows[np.minimum(np.arange(n + M * k), n)]   # the last sample held
        trace = run_scenario(Scenario(name="high-low", x0=standard_initial_states(p)["high-low"],
                                      N=n, controller=ControllerSpec(kind="mpc", horizon=M),
                                      weather=w, plant=p, control_period=k * p.tau))
        assert len(calls) == n // k and np.any(trace.u > 0)
        for (op, sp, w_dev), t in zip(calls, range(0, n, k)):
            assert sp.plant.tau == k * p.tau
            assert op.u == (trace.u[t - 1] if t else 0.0)
            w_bar = rows[t - min(t, M * k):t].mean(axis=0) if t else np.zeros(2)
            assert (op.w_r, op.w_e) == tuple(w_bar)
            stages = np.array([held[t + j * k:t + (j + 1) * k].mean(axis=0) for j in range(M)])
            assert w_dev.tobytes() == (stages - w_bar).tobytes()

    def test_hold_must_be_whole_steps(self):
        for hold in (0, -1, 1.5):
            with pytest.raises(ValueError, match="hold must be a whole number"):
                MpcConfig(plant=P, hold=hold)

    @pytest.mark.parametrize("kwargs, message", [
        ({"horizon": 0}, "horizon M must be at least 1"),
        ({"horizon": 65}, "horizon M must not exceed 64"),
        ({"lam": math.nan}, "control weight lam must be finite and positive, got nan"),
        ({"lam": math.inf}, "control weight lam must be finite and positive, got inf"),
        ({"lam": -math.inf}, "control weight lam must be finite and positive, got -inf"),
        ({"lam": 0.0}, "control weight lam must be finite and positive, got 0.0"),
        ({"eps": math.nan}, "smoothing scale eps must be finite and positive, got nan"),
        ({"eps": 0.0}, "smoothing scale eps must be finite and positive, got 0.0"),
    ], ids=["horizon0", "horizon65", "lam-nan", "lam-inf", "lam-minus-inf", "lam0",
            "eps-nan", "eps0"])
    def test_bad_parameters_refused_when_built(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MpcConfig(plant=P, **kwargs)

    def test_deterministic(self):
        cfg = MpcConfig(plant=P, horizon=4)
        w = _steady(1e-6, 2e-5)
        u1 = mpc_step(3, 90.0, 2.0, 0.4, w, cfg)
        u2 = mpc_step(3, 90.0, 2.0, 0.4, w, cfg)
        assert u1 == u2


class TestMpcOnArrays:
    @pytest.mark.parametrize("m", [1, 3, 9])
    def test_array_states_equal_scalar_calls(self, m):
        # states at the pump gate and the target, and anywhere in the box
        p = PlantParams(tau=60.0)
        cfg = MpcConfig(plant=p)
        rng = np.random.default_rng(m)
        w = WeatherSeries(t=p.tau * np.arange(30), w_r=rng.uniform(0, 2e-6, 30),
                          w_e=np.full(30, 4e-5))
        u = np.zeros(m)
        singles = [0.0] * m
        for t in range(20):
            x1 = np.where(rng.random(m) < 0.3, rng.choice(GATE_X1, m), rng.uniform(0, p.cap1, m))
            x2 = np.where(rng.random(m) < 0.3, rng.choice(GATE_X2, m), rng.uniform(0, p.cap2, m))
            u = mpc_step(t, x1, x2, u, w, cfg)
            singles = [mpc_step(t, a, b, v, w, cfg) for a, b, v in zip(x1, x2, singles)]
            assert u.shape == (m,)
            assert u.tobytes() == np.array(singles).tobytes()

    def test_scalar_state_gives_a_scalar(self):
        u = mpc_step(0, 100.0, 0.0, 0.0, _steady(0.0, 0.0), MpcConfig(plant=P))
        assert np.ndim(u) == 0


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
        u = mpc_step(0, x1, x2, 0.0, _steady(0.0, 0.0), cfg)
        assert abs(u) <= 1e-6

        grid = Grid([0.0, x1, P.cap1], [0.0, x2, P.cap2])
        from stormdp.riskdp import DisturbanceModel
        dm = DisturbanceModel(w_r=[0.0], w_e=[0.0], p=[1.0])
        _, policy = solve(3, grid, np.linspace(0, 1, 3), dm, tracking_cost(P),
                          P, RiskParams(-1.0))
        assert dp_step(0, x1, x2, policy) == 0.0
