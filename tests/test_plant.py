"""Unit and property tests for the exact two-tank plant."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormdp.plant import (
    PlantParams,
    f_rhs,
    q_drain,
    q_out,
    q_pump,
    q_pump_max,
    step,
)

P = PlantParams()


class TestParams:
    def test_derived_defaults(self):
        assert P.z_cap == pytest.approx(P.a2 * P.z_soil)
        assert P.cap1 == pytest.approx(2.0 * P.a1 * P.z_o)
        assert P.cap2 == pytest.approx(P.a2 * P.z_soil)
        assert P.z_cap == pytest.approx(34.4)

    def test_pump_coefficient(self):
        expected = ((P.F * P.l / P.D + P.k_L) / (2 * P.g * P.a_pump ** 2)
                    - P.a_hat) ** -0.5
        assert P.b == pytest.approx(expected, rel=1e-12)
        assert P.b > 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PlantParams(a1=-1.0)
        with pytest.raises(ValueError):
            PlantParams(a_hat=1.0)
        with pytest.raises(ValueError):
            PlantParams(c_hat=10.0, d=16.0)

    def test_rejects_non_finite_parameters(self):
        with pytest.raises(ValueError, match="parameter 'tau' must be a finite number"):
            PlantParams(tau=math.nan)
        with pytest.raises(ValueError, match="parameter 'a1' must be a finite number"):
            PlantParams.from_dict({"a1": math.inf})
        with pytest.raises(ValueError, match="parameter 'tau' must be a finite number"):
            PlantParams.from_dict({"tau": "60"})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            PlantParams.from_dict({"nope": 1.0})

    def test_from_json_with_overrides(self, tmp_path):
        cfg = tmp_path / "plant.json"
        cfg.write_text(json.dumps({"z_o": 1.29, "a1": 70.0}))
        p = PlantParams.from_json(cfg)
        assert p.z_o == 1.29
        assert p.a1 == 70.0
        assert p.cap1 == pytest.approx(2 * 70.0 * 1.29)

    def test_from_json_nested_under_plant(self, tmp_path):
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({"z_o": 1.29, "a1": 70.0}))
        nested = tmp_path / "nested.json"
        nested.write_text(json.dumps({"plant": {"z_o": 1.29, "a1": 70.0}}))
        assert PlantParams.from_json(nested) == PlantParams.from_json(flat)

    def test_from_json_rejects_non_objects(self, tmp_path):
        for text in ("[1, 2]", '{"plant": 3.0}'):
            cfg = tmp_path / "bad.json"
            cfg.write_text(text)
            with pytest.raises(ValueError, match="JSON object"):
                PlantParams.from_json(cfg)


class TestFlows:
    def test_q_out_boundary_and_zero(self):
        assert q_out(P.a1 * P.z_o, P) == 0.0
        assert q_out(0.0, P) == 0.0

    def test_q_out_spot_value(self):
        assert float(q_out(100.0, P)) == pytest.approx(0.13263, rel=1e-4)

    def test_q_pump_max_spot_values(self):
        assert float(q_pump_max(0.0, P)) == pytest.approx(8.117e-3, rel=1e-4)
        assert float(q_pump_max(100.0, P)) == pytest.approx(8.521e-3, rel=1e-4)

    def test_pump_curve_intersection(self):
        # The returned flow y solves the pump-curve / head-loss balance:
        # a_hat y^2 + c_hat = (F l / D + k_L) y^2 / (2 g a_pump^2) + d - x1/a1
        rng = np.random.default_rng(7)
        for x1 in rng.uniform(0.0, 200.0, size=50):
            y = float(q_pump_max(x1, P))
            lhs = P.a_hat * y ** 2 + P.c_hat
            rhs = ((P.F * P.l / P.D + P.k_L) * y ** 2
                   / (2 * P.g * P.a_pump ** 2) + P.d - x1 / P.a1)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_q_pump_gates(self):
        assert q_pump(100.0, P.a2 * P.z_veg, 1.0, P) == 0.0  # soil moist
        assert q_pump(18.0, 0.0, 1.0, P) == 0.0              # below suction head
        assert float(q_pump(100.0, 0.0, 0.5, P)) == pytest.approx(4.261e-3, rel=1e-4)

    def test_q_pump_rejects_bad_control(self):
        with pytest.raises(ValueError):
            q_pump(100.0, 0.0, 1.5, P)
        with pytest.raises(ValueError):
            q_pump(100.0, 0.0, -0.1, P)

    def test_q_drain(self):
        assert q_drain(0.0, P) == 0.0
        assert float(q_drain(P.z_cap, P)) == pytest.approx(1.0774e-5, rel=1e-4)
        sweep = q_drain(np.linspace(0.0, P.cap2, 200), P)
        assert np.all(np.diff(sweep) >= 0.0)

    @given(x1=st.floats(0.0, 150.0), x2=st.floats(0.0, 34.4),
           u=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_flows_nonnegative(self, x1, x2, u):
        assert q_out(x1, P) >= 0.0
        assert q_pump_max(x1, P) > 0.0
        assert q_pump(x1, x2, u, P) >= 0.0
        assert q_drain(x2, P) >= 0.0

    def test_gate_logic_threshold_straddle(self):
        x2_thr = P.a2 * P.z_veg
        x1_thr = P.a1 * (P.z_pump + P.z_H)
        eps = 1e-9
        for x1, x2 in [(x1_thr - eps, 0.0), (100.0, x2_thr),
                       (100.0, x2_thr + eps), (x1_thr - 1.0, x2_thr + 1.0)]:
            assert q_pump(x1, x2, 1.0, P) == 0.0
        assert q_pump(x1_thr, x2_thr - eps, 1.0, P) > 0.0


class TestDynamics:
    def test_equilibrium(self):
        f1, f2 = f_rhs(50.0, 10.0, 0.0, 0.0, 0.0, P)
        assert f1 == 0.0 and f2 == 0.0
        # x2 = 10 > target -> pump off; x2 < z_cap -> no drain; x1 < outlet.

    def test_mass_balance(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            x1, x2 = rng.uniform(0, 150), rng.uniform(0, 34.4)
            u = rng.uniform(0, 1)
            wr, we = rng.uniform(0, 1e-4), rng.uniform(0, 1e-4)
            f1, f2 = f_rhs(x1, x2, u, wr, we, P)
            expected = (wr * (P.a_in + P.a2) - float(q_out(x1, P)) - we
                        - float(q_drain(x2, P)))
            assert float(f1 + f2) == pytest.approx(expected, abs=1e-15)

    def test_step_spot_value(self):
        x1n, x2n, clamp1, clamp2 = step(100.0, 0.0, 0.0, 0.0, 0.0, P)
        assert float(x1n) == pytest.approx(100.0 - 0.13263227995839974, rel=1e-12)
        assert float(x2n) == 0.0
        assert float(clamp1) == 0.0 and float(clamp2) == 0.0

    def test_step_clamps(self):
        x1n, x2n, clamp1, clamp2 = step(0.0, P.cap2, 0.0, 1.0, 0.0, P)  # absurd rain
        assert float(x2n) == P.cap2
        assert 0.0 <= float(x1n) <= P.cap1
        # the clamp logs exactly the volume the box cut off the Euler update
        f1, f2 = f_rhs(0.0, P.cap2, 0.0, 1.0, 0.0, P)
        assert float(clamp2) < 0.0
        assert float(x2n - clamp2) == pytest.approx(P.cap2 + P.tau * float(f2))
        assert float(x1n - clamp1) == pytest.approx(P.tau * float(f1))

    def test_step_monotone_in_rain(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            x1, x2 = rng.uniform(0, 100), rng.uniform(0, 20)
            u = rng.uniform(0, 1)
            wr = rng.uniform(0, 1e-5)
            a = step(x1, x2, u, wr, 0.0, P)
            b = step(x1, x2, u, wr * 2 + 1e-6, 0.0, P)
            assert float(b[0]) >= float(a[0]) - 1e-15
            assert float(b[1]) >= float(a[1]) - 1e-15

    def test_clamp_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            x1n, x2n, _, _ = step(rng.uniform(0, 150), rng.uniform(0, 34.4),
                                  rng.uniform(0, 1), rng.uniform(0, 1e-3),
                                  rng.uniform(0, 1e-4), P)
            assert float(np.clip(x1n, 0, P.cap1)) == float(x1n)
            assert float(np.clip(x2n, 0, P.cap2)) == float(x2n)

    def test_f_rhs_spot_value(self):
        f1, f2 = f_rhs(100.0, 0.0, 0.5, 1e-5, 0.0, P)
        qo = 0.61 * math.pi * 0.125 ** 2 * math.sqrt(2 * 9.81)
        qp = 0.5 * float(q_pump_max(100.0, P))
        assert float(f1) == pytest.approx(1e-5 * 0.305 ** 2 * math.pi - qo - qp,
                                          rel=1e-9)
        assert float(f2) == pytest.approx(1e-5 * 68.8 + qp, rel=1e-9)
