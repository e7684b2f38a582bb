"""Tests for weather handling, closed-loop simulation and comparisons."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormdp import control, plant, riskdp, sim
from stormdp.linearize import NearSingularSystem
from stormdp.plant import PlantParams
from stormdp.sim import (
    ControllerSpec,
    Scenario,
    Trace,
    WeatherSeries,
    compare,
    cumulative_deviation,
    hold_steps,
    load_weather_csv,
    make_controller,
    run_scenario,
    solve_dp,
    standard_initial_states,
    synth_storm,
    wet_12h,
    write_comparison_csv,
)

P = PlantParams(tau=60.0)
DP_9 = ControllerSpec(kind="dp", grid_shape=(9, 9), n_actions=3)


def _midpoints(nodes):
    return [float((a + b) / 2) for a, b in zip(nodes, nodes[1:])]


# starts where the scalar and array paths could part: the pump gate's and
# the target's exact values, and ties between two of DP_9's grid nodes
EDGE_X1 = [P.pump_gate_volume] + _midpoints(np.linspace(0.0, P.cap1, 9))
EDGE_X2 = [P.x2_target] + _midpoints(np.linspace(0.0, P.cap2, 9))


def _alone(name, x0, spec, weather, N, step_fn=None, p=P, control_period=None):
    """(cumulative deviation, sum of u^2) of one cell run on its own."""
    trace = run_scenario(Scenario(name=name, x0=x0, N=N, controller=spec,
                                  weather=weather, plant=p,
                                  control_period=control_period), step_fn)
    return cumulative_deviation(trace, p), float((trace.u ** 2).sum())


def _assert_rows_match_single_cells(starts, specs, weather, N, p=P, control_period=None):
    rows = compare(starts, specs, weather, N, p, control_period)
    step_fns = {i: make_controller(spec, p, weather, N)
                for i, spec in enumerate(specs) if spec.kind == "dp"}
    cells = [(name, x0, i) for name, x0 in starts.items() for i in range(len(specs))]
    assert len(rows) == len(cells)
    # one batch ran them all: its wall time is split evenly across the rows
    assert len({row.runtime_s for row in rows}) == 1
    for row, (name, x0, i) in zip(rows, cells):
        assert (row.scenario, row.params, row.status) == (name, specs[i].label, "ok")
        assert (row.cumulative_deviation, row.sum_u_sq) == _alone(
            name, x0, specs[i], weather, N, step_fns.get(i), p, control_period)


def _assert_columns_match_single_runs(spec, weather, N, p):
    """Each column of one closed loop over the three standard starts
    equals its start's run alone on the same controller, in every
    ``Trace`` field and bit."""
    starts = standard_initial_states(p)
    hold = hold_steps(p.tau)
    step_fn = make_controller(spec, p, weather, N, hold)
    trace = sim._closed_loop(tuple(np.array(list(starts.values())).T), N, step_fn,
                             weather, p, hold)
    for j, (name, x0) in enumerate(starts.items()):
        alone = run_scenario(Scenario(name=name, x0=x0, N=N, controller=spec,
                                      weather=weather, plant=p), step_fn)
        column = sim._column(trace, j)
        for f in fields(Trace):
            assert (getattr(column, f.name).tobytes()
                    == getattr(alone, f.name).tobytes()), (name, f.name)


class TestWeatherSeries:
    def test_invariants(self):
        with pytest.raises(ValueError, match="no samples"):
            WeatherSeries(t=[], w_r=[], w_e=[])
        with pytest.raises(ValueError, match="nonnegative"):
            WeatherSeries(t=[0.0, 1.0], w_r=[0.0, -1.0], w_e=[0.0, 0.0])
        with pytest.raises(ValueError, match="uniform"):
            WeatherSeries(t=[0.0, 1.0, 3.0], w_r=[0.0] * 3, w_e=[0.0] * 3)
        with pytest.raises(ValueError, match="increasing"):
            WeatherSeries(t=[1.0, 0.0], w_r=[0.0] * 2, w_e=[0.0] * 2)

    def test_jitter_tolerance(self):
        t = np.array([0.0, 1.0, 2.0 + 5e-7])
        WeatherSeries(t=t, w_r=np.zeros(3), w_e=np.zeros(3))  # within 1e-6

    def test_resample_linear_endpoint_exact(self):
        s = WeatherSeries(t=[0.0, 3600.0], w_r=[0.0, 3.6e-3], w_e=[1.0, 1.0])
        r = s.resample(1.0)
        assert len(r) == 3601
        assert r.w_r[0] == 0.0 and r.w_r[-1] == pytest.approx(3.6e-3)
        assert r.w_r[1800] == pytest.approx(1.8e-3)

    @pytest.mark.parametrize("t, tq, w_r", [
        ([0.0, 50.0, 100.0], [0.0, 60.0, 120.0], [0.0, 1.2, 2.0]),   # ends past: holds
        ([0.0, 40.0, 80.0], [0.0, 60.0], [0.0, 1.5]),                # ends before
    ], ids=["rounds-up", "rounds-down"])
    def test_resample_ends_at_the_nearest_whole_step(self, t, tq, w_r):
        r = WeatherSeries(t=t, w_r=[0.0, 1.0, 2.0], w_e=[0.0] * 3).resample(60.0)
        assert r.t.tolist() == tq
        assert r.w_r.tolist() == pytest.approx(w_r)

    def test_forecast_holds_last_sample(self):
        s = WeatherSeries(t=[0.0, 60.0, 120.0], w_r=[1.0, 2.0, 3.0],
                          w_e=[4.0, 5.0, 6.0])
        assert np.array_equal(s.forecast(0, 2), [[1.0, 4.0], [2.0, 5.0]])
        assert np.array_equal(s.forecast(1, 4), [[2.0, 5.0], [3.0, 6.0],
                                                 [3.0, 6.0], [3.0, 6.0]])
        assert np.array_equal(s.forecast(5, 1), [[3.0, 6.0]])
        with pytest.raises(ValueError):
            s.forecast(-1, 2)

    def test_forecast_cannot_write_the_series(self):
        s = WeatherSeries(t=[0.0, 60.0, 120.0], w_r=[1.0, 2.0, 3.0],
                          w_e=[4.0, 5.0, 6.0])
        with pytest.raises(ValueError, match="read-only"):
            s.forecast(0, 2)[0, 0] = -1.0
        s.forecast(1, 4)[:] = -1.0   # runs past the end: a fresh array
        assert np.array_equal(s.forecast(0, 3), [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
        assert s.forecast(1, 0).shape == (0, 2)

    def test_written_column_changes_no_run(self):
        # the plant, the trace, the MPC and the DP's atoms all read the
        # rows stacked at construction, never the columns
        rng = np.random.default_rng(3)
        n = 40
        w = WeatherSeries(t=P.tau * np.arange(n + 1), w_r=rng.uniform(0, 2e-6, n + 1),
                          w_e=rng.uniform(0, 5e-5, n + 1))
        sc = Scenario(name="low-low", x0=standard_initial_states(P)["low-low"], N=n,
                      controller=ControllerSpec(kind="mpc"), weather=w, plant=P)
        before = run_scenario(sc), solve_dp(DP_9, P, w, n)[0].V
        w.w_r[:] = 1e-3   # a flood, so the DP grid's successors move
        w.w_e[:] = 0.0
        after = run_scenario(sc), solve_dp(DP_9, P, w, n)[0].V
        assert np.any(before[0].u > 0)
        for f in fields(before[0]):
            assert (getattr(before[0], f.name).tobytes()
                    == getattr(after[0], f.name).tobytes()), f.name
        assert before[1].tobytes() == after[1].tobytes()


class TestLoadWeatherCsv:
    def _write(self, tmp_path, text):
        f = tmp_path / "w.csv"
        f.write_text(text)
        return f

    def test_constant_file(self, tmp_path):
        f = self._write(tmp_path, "t_s,w_r_mps,w_e_m3ps\n0,1e-6,2e-5\n60,1e-6,2e-5\n")
        s = load_weather_csv(f)
        assert np.allclose(s.w_r, 1e-6) and np.allclose(s.w_e, 2e-5)

    def test_resampled_to_tau(self, tmp_path):
        f = self._write(tmp_path, "t_s,w_r_mps,w_e_m3ps\n0,0,0\n3600,3.6e-3,0\n")
        s = load_weather_csv(f, tau=1.0)
        assert len(s) == 3601
        assert s.w_r[1] == pytest.approx(1e-6)

    def test_empty_file(self, tmp_path):
        f = self._write(tmp_path, "")
        with pytest.raises(ValueError, match="no samples"):
            load_weather_csv(f)
        f2 = self._write(tmp_path, "t_s,w_r_mps,w_e_m3ps\n")
        with pytest.raises(ValueError, match="no samples"):
            load_weather_csv(f2)

    def test_malformed_row_reports_line(self, tmp_path):
        f = self._write(tmp_path, "t_s,w_r_mps,w_e_m3ps\n0,0,0\n60,oops,0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_weather_csv(f)
        f2 = self._write(tmp_path, "t_s,w_r_mps,w_e_m3ps\n0,0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_weather_csv(f2)

    def test_bad_header(self, tmp_path):
        f = self._write(tmp_path, "time,rain,evap\n0,0,0\n")
        with pytest.raises(ValueError, match="header"):
            load_weather_csv(f)

    def test_negative_value(self, tmp_path):
        f = self._write(tmp_path, "t_s,w_r_mps,w_e_m3ps\n0,-1e-6,0\n60,0,0\n")
        with pytest.raises(ValueError, match="nonnegative"):
            load_weather_csv(f)


class TestSynthStorm:
    def test_no_pulses(self):
        s = synth_storm([], duration=600.0, dt=60.0, w_e_base=0.0)
        assert np.all(s.w_r == 0.0)

    def test_single_pulse_integral(self):
        s = synth_storm([(0.0, 300.0, 2e-6)], duration=600.0, dt=60.0)
        depth = float(np.sum(s.w_r[:-1]) * 60.0)
        assert depth == pytest.approx(2e-6 * 300.0, rel=1e-12)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            synth_storm([(0.0, 300.0, 1e-6), (200.0, 400.0, 1e-6)],
                        duration=600.0, dt=60.0)

    def test_wet_preset_depth(self):
        # total depth matches a 5 mm/h x 4 h event (20 mm)
        s = wet_12h(dt=60.0)
        depth_mm = float(np.sum(s.w_r[:-1]) * 60.0) * 1000.0
        assert depth_mm == pytest.approx(20.0, rel=1e-9)
        assert np.allclose(s.w_e, 4.0e-5)


class TestScenarioAndTrace:
    def _scenario(self, kind="onoff", N=50, **kw):
        weather = wet_12h(dt=60.0)
        starts = standard_initial_states(P)
        return Scenario(name="low-low", x0=starts["low-low"], N=N,
                        controller=ControllerSpec(kind=kind, **kw),
                        weather=weather, plant=P)

    def test_initial_states_table(self):
        starts = standard_initial_states(PlantParams())
        assert starts["low-low"][0] == pytest.approx(57.692, rel=1e-4)
        assert starts["low-low"][1] == pytest.approx(2.4186, rel=1e-4)
        assert starts["high-low"][0] == pytest.approx(97.5, rel=1e-4)
        assert starts["high-high"][1] == pytest.approx(4.0874, rel=1e-4)

    def test_out_of_box_start_rejected(self):
        with pytest.raises(ValueError, match="box"):
            Scenario(name="bad", x0=(-1.0, 0.0), N=10,
                     controller=ControllerSpec(kind="onoff"),
                     weather=wet_12h(dt=60.0), plant=P)

    def test_short_weather_rejected(self):
        w = synth_storm([], duration=600.0, dt=60.0)
        with pytest.raises(ValueError, match="shorter"):
            Scenario(name="bad", x0=(50.0, 1.0), N=100,
                     controller=ControllerSpec(kind="onoff"),
                     weather=w, plant=P)

    def test_mpc_runs_to_the_last_sample(self):
        # the forecast window runs past the series; its tail holds the last sample
        w = synth_storm([(0.0, 300.0, 1e-6)], duration=600.0, dt=60.0)
        sc = Scenario(name="low-low", x0=standard_initial_states(P)["low-low"],
                      N=len(w) - 1, controller=ControllerSpec(kind="mpc"),
                      weather=w, plant=P)
        assert len(run_scenario(sc).u) == 10

    def test_error_keeps_its_type_and_step(self):
        def step_fn(t, x1, x2, u_prev):
            if t == 3:
                raise NearSingularSystem("singular normal matrix")
            return 0.0

        with pytest.raises(NearSingularSystem, match="singular") as info:
            run_scenario(self._scenario(), step_fn)
        assert info.value.step == 3

    def test_nan_control_fails_at_its_step(self):
        # np.clip passes NaN through, and the plant refuses it
        def step_fn(t, x1, x2, u_prev):
            return np.nan if t == 3 else 0.5

        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]") as info:
            run_scenario(self._scenario(), step_fn)
        assert info.value.step == 3

    def test_one_mpc_controller_drives_two_runs(self):
        # the controller keeps no state, so a second run repeats the first;
        # the first run ends pumping, so a control carried over would show
        sc = self._scenario(kind="mpc", N=10)
        step_fn = make_controller(sc.controller, P, sc.weather, sc.N)
        a = run_scenario(sc, step_fn)
        b = run_scenario(sc, step_fn)
        assert a.u[-1] > 0
        for f in fields(a):
            assert getattr(a, f.name).tobytes() == getattr(b, f.name).tobytes(), f.name

    def test_trace_shape_and_determinism(self):
        sc = self._scenario()
        a = run_scenario(sc)
        b = run_scenario(sc)
        assert len(a.x1) == sc.N + 1 and len(a.u) == sc.N
        assert np.array_equal(a.x1, b.x1) and np.array_equal(a.u, b.u)

    def test_constant_trace_with_zero_weather_high_high(self):
        w = synth_storm([], duration=60.0 * 120, dt=60.0, w_e_base=0.0)
        starts = standard_initial_states(P)
        sc = Scenario(name="high-high", x0=starts["high-high"], N=100,
                      controller=ControllerSpec(kind="onoff"), weather=w, plant=P)
        tr = run_scenario(sc)
        assert np.all(tr.u == 0.0)
        # the soil bed holds steady: pump gated off, no drain, no evap
        assert np.all(tr.x2 == tr.x2[0])

    def test_conservation_audit(self):
        sc = self._scenario(kind="mpc")
        tr = run_scenario(sc)
        # explicit clamp logging closes the mass balance exactly
        flux1 = np.diff(tr.x1)
        rhs1 = np.empty(sc.N)
        from stormdp.plant import f_rhs
        for t in range(sc.N):
            f1, _ = f_rhs(tr.x1[t], tr.x2[t], tr.u[t], tr.w_r[t], tr.w_e[t], P)
            rhs1[t] = P.tau * float(f1) + tr.clamp1[t]
        assert np.all(np.abs(flux1 - rhs1) <= 1e-9 * (1.0 + np.abs(flux1)))

    def test_metric(self):
        sc = self._scenario()
        tr = run_scenario(sc)
        assert cumulative_deviation(tr, P) == pytest.approx(
            float(np.abs(tr.x2 - P.x2_target).sum()))

    def test_metric_monotone(self):
        sc = self._scenario(N=20)
        tr = run_scenario(sc)
        base = cumulative_deviation(tr, P)
        import dataclasses
        longer = dataclasses.replace(tr, x2=np.append(tr.x2, P.x2_target + 1.0))
        assert cumulative_deviation(longer, P) > base


class TestCompare:
    def test_single_cell(self):
        rows = compare({"low-low": standard_initial_states(P)["low-low"]},
                       [ControllerSpec(kind="onoff", v=0.5)],
                       wet_12h(dt=60.0), 50, P)
        assert len(rows) == 1
        assert rows[0].status == "ok"
        assert np.isfinite(rows[0].cumulative_deviation)

    def test_failures_marked_and_run_continues(self):
        rows = compare({"low-low": standard_initial_states(P)["low-low"]},
                       [ControllerSpec(kind="bogus"),
                        ControllerSpec(kind="onoff", v=0.5)],
                       wet_12h(dt=60.0), 50, P)
        assert rows[0].status == "failed: ValueError: unknown controller kind 'bogus'"
        assert rows[1].status == "ok"

    def test_failure_status_names_type_and_step(self):
        rows = compare({"low-low": standard_initial_states(P)["low-low"]},
                       [ControllerSpec(kind="mpc", horizon=65)],
                       wet_12h(dt=60.0), 5, P)
        # the MPC's horizon is refused when its controller is built
        assert rows[0].status == "failed: ValueError: horizon M must not exceed 64"

    def test_csv_deterministic(self, tmp_path):
        rows = compare(standard_initial_states(P),
                       [ControllerSpec(kind="onoff", v=0.5)],
                       wet_12h(dt=60.0), 50, P)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_comparison_csv(rows, a)
        write_comparison_csv(rows, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("spec, dt, N", [
        # low-low reaches an x2 whose error squares differently through pow
        (ControllerSpec(kind="onoff", v=0.5), 60.0, 720),
        (ControllerSpec(kind="mpc"), 60.0, 120),
        (DP_9, 60.0, 120),
        (ControllerSpec(kind="mpc"), 1.0, 600),   # held for 60 steps
    ], ids=["onoff-fast", "mpc-fast", "dp-fast", "mpc-1s-held"])
    def test_batched_columns_equal_single_runs(self, spec, dt, N):
        _assert_columns_match_single_runs(spec, wet_12h(dt=dt), N, PlantParams(tau=dt))

    def test_batched_cells_equal_single_cells(self):
        specs = [ControllerSpec(kind="onoff", v=v) for v in (0.2, 0.5, 1.0, 2.0)]
        _assert_rows_match_single_cells(standard_initial_states(P), specs + [DP_9],
                                        wet_12h(dt=60.0), 120)

    @given(starts=st.lists(st.tuples(st.sampled_from(EDGE_X1) | st.floats(0.0, P.cap1),
                                     st.sampled_from(EDGE_X2) | st.floats(0.0, P.cap2)),
                           min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_batched_cells_equal_single_cells_at_edges(self, starts):
        specs = [ControllerSpec(kind="onoff", v=0.5), ControllerSpec(kind="onoff", v=2.0),
                 DP_9]
        _assert_rows_match_single_cells({f"s{k}": x0 for k, x0 in enumerate(starts)},
                                        specs, wet_12h(dt=60.0), 30)

    def test_stateless_cells_share_one_loop(self, monkeypatch):
        shapes = []
        step = plant.step

        def counting_step(x1, *args):
            shapes.append(np.shape(x1))
            return step(x1, *args)

        monkeypatch.setattr(plant, "step", counting_step)
        specs = [ControllerSpec(kind="onoff", v=0.2), ControllerSpec(kind="onoff", v=0.5),
                 DP_9]
        rows = compare(standard_initial_states(P), specs, wet_12h(dt=60.0), 50, P)
        assert [r.status for r in rows] == ["ok"] * 9
        # the DP builds its table with one call per action on (nodes, 1)
        # arrays, which the filter skips; every other call is a
        # closed-loop step, one per step for all 9 cells
        assert [s for s in shapes if len(s) <= 1] == [(9,)] * 50

    def test_onoff_specs_share_one_call_per_decision(self, monkeypatch):
        # every on/off spec's columns, v > 1 among them, go through one
        # onoff_step call per decision step, each column at its own rate,
        # and each is its cell run alone in every Trace field
        calls, traces = [], []
        onoff_step, closed_loop = control.onoff_step, sim._closed_loop

        def counting_onoff(x1, x2, v, p):
            calls.append(np.shape(x1))
            return onoff_step(x1, x2, v, p)

        def keeping_loop(*args):
            traces.append(closed_loop(*args))
            return traces[-1]

        monkeypatch.setattr(control, "onoff_step", counting_onoff)
        monkeypatch.setattr(sim, "_closed_loop", keeping_loop)
        starts = standard_initial_states(P)
        specs = [ControllerSpec(kind="onoff", v=v) for v in (0.2, 0.5, 1.0, 2.5)] + [DP_9]
        w, N, period = wet_12h(dt=60.0), 120, 3 * P.tau
        rows = compare(starts, specs, w, N, P, control_period=period)
        assert [r.status for r in rows] == ["ok"] * 15
        assert calls == [(12,)] * (N // 3)
        batch, = traces
        columns = [sim._column(batch, j) for j in range(batch.u.shape[1])]
        cells = [(name, x0, spec) for name, x0 in starts.items() for spec in specs]
        for row, (name, x0, spec) in zip(rows, cells):
            if spec.kind != "onoff":
                continue
            alone = run_scenario(Scenario(name=name, x0=x0, N=N, controller=spec,
                                          weather=w, plant=P, control_period=period))
            assert (row.cumulative_deviation, row.sum_u_sq) == (
                cumulative_deviation(alone, P), float((alone.u ** 2).sum()))
            assert any(all(getattr(c, f.name).tobytes() == getattr(alone, f.name).tobytes()
                           for f in fields(Trace)) for c in columns), (name, spec.v)

    def test_failing_batched_cell_fails_alone(self):
        starts = standard_initial_states(P)
        w = wet_12h(dt=60.0)
        good = ControllerSpec(kind="onoff", v=0.5)
        rows = compare(starts, [ControllerSpec(kind="onoff", v=0.0), good], w, 50, P)
        assert [r.status for r in rows[0::2]] == [
            "failed: ValueError at step 0: on/off rate v must be positive"] * 3
        for row, (name, x0) in zip(rows[1::2], starts.items()):
            assert row.status == "ok"
            assert (row.cumulative_deviation, row.sum_u_sq) == _alone(name, x0, good, w, 50)

    def test_bad_start_leaves_the_other_cells_in_one_loop(self, monkeypatch):
        shapes = []
        closed_loop = sim._closed_loop

        def spying_loop(x0, *args):
            shapes.append(np.shape(x0[0]))
            return closed_loop(x0, *args)

        monkeypatch.setattr(sim, "_closed_loop", spying_loop)
        starts = {**standard_initial_states(P), "bad": (-1.0, 0.0)}
        # the bad start's error wins over the bogus spec's in their shared cell
        specs = [MPC, ControllerSpec(kind="onoff", v=0.5), ControllerSpec(kind="onoff", v=0.2),
                 ControllerSpec(kind="bogus")]
        w = wet_12h(dt=60.0)
        rows = compare(starts, specs, w, 30, P)
        assert shapes == [(9,)]
        assert [r.status for r in rows[-4:]] == [
            "failed: ValueError: initial state outside the clamped state box"] * 4
        cells = [(name, x0, spec) for name, x0 in starts.items() for spec in specs]
        for row, (name, x0, spec) in zip(rows[:-4], cells):
            if spec.kind == "bogus":
                assert row.status == "failed: ValueError: unknown controller kind 'bogus'"
                continue
            assert row.status == "ok"
            assert (row.cumulative_deviation, row.sum_u_sq) == _alone(name, x0, spec, w, 30)

    def test_bad_mpc_spec_leaves_the_other_cells_in_one_loop(self, monkeypatch):
        shapes = []
        closed_loop = sim._closed_loop

        def spying_loop(x0, *args):
            shapes.append(np.shape(x0[0]))
            return closed_loop(x0, *args)

        monkeypatch.setattr(sim, "_closed_loop", spying_loop)
        starts = standard_initial_states(P)
        specs = [ControllerSpec(kind="mpc", horizon=65), ControllerSpec(kind="onoff", v=0.5),
                 DP_9]
        w = wet_12h(dt=60.0)
        rows = compare(starts, specs, w, 30, P)
        assert shapes == [(6,)]
        cells = [(name, x0, spec) for name, x0 in starts.items() for spec in specs]
        for row, (name, x0, spec) in zip(rows, cells):
            if spec.kind == "mpc":
                assert row.status == "failed: ValueError: horizon M must not exceed 64"
                continue
            assert row.status == "ok"
            assert (row.cumulative_deviation, row.sum_u_sq) == _alone(name, x0, spec, w, 30)

    @pytest.mark.parametrize("lam, status", [
        (1e-3, "ok"),
        # the stage cost overflows in the first backup; the error is kept
        # for every start, not solved again for each
        (-1e308, "failed: ArithmeticError: non-finite value in entropic backup"),
    ], ids=["ok", "failing"])
    def test_dp_solved_once_per_compare(self, monkeypatch, lam, status):
        calls = []
        solve = riskdp.solve

        def counting_solve(*args, **kwargs):
            calls.append(args[0])
            return solve(*args, **kwargs)

        monkeypatch.setattr(riskdp, "solve", counting_solve)
        spec = ControllerSpec(kind="dp", lam=lam, grid_shape=(9, 9), n_actions=3)
        starts = standard_initial_states(P)
        w = wet_12h(dt=60.0)
        rows = compare(starts, [spec], w, 50, P)
        assert len(calls) == 1
        assert [r.status for r in rows] == [status] * 3
        if status != "ok":
            return
        # the shared policy drives every start as its own solve would
        for row, (name, x0) in zip(rows, starts.items()):
            trace = run_scenario(Scenario(name=name, x0=x0, N=50, controller=spec,
                                          weather=w, plant=P))
            assert row.cumulative_deviation == cumulative_deviation(trace, P)
        assert len(calls) == 4


MPC = ControllerSpec(kind="mpc")


class TestBatchedMpc:
    def test_mpc_cells_equal_single_cells(self):
        specs = [MPC, ControllerSpec(kind="onoff", v=0.2), ControllerSpec(kind="onoff", v=0.5),
                 DP_9]
        _assert_rows_match_single_cells(standard_initial_states(P), specs,
                                        wet_12h(dt=60.0), 120)

    @given(starts=st.lists(st.tuples(st.sampled_from(EDGE_X1) | st.floats(0.0, P.cap1),
                                     st.sampled_from(EDGE_X2) | st.floats(0.0, P.cap2)),
                           min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_mpc_cells_equal_single_cells_at_edges(self, starts):
        specs = [MPC, ControllerSpec(kind="onoff", v=0.5), DP_9]
        _assert_rows_match_single_cells({f"s{k}": x0 for k, x0 in enumerate(starts)},
                                        specs, wet_12h(dt=60.0), 30)

    def test_every_cell_shares_one_loop(self, monkeypatch):
        shapes = []
        step = plant.step

        def counting_step(x1, *args):
            shapes.append(np.shape(x1))
            return step(x1, *args)

        monkeypatch.setattr(plant, "step", counting_step)
        specs = [MPC, ControllerSpec(kind="onoff", v=0.5), DP_9]
        rows = compare(standard_initial_states(P), specs, wet_12h(dt=60.0), 50, P)
        assert [r.status for r in rows] == ["ok"] * 9
        # besides the DP's table calls on (nodes, 1) arrays, one step for all 9 cells
        assert [s for s in shapes if len(s) <= 1] == [(9,)] * 50

    def test_mpc_cell_next_to_a_failing_cell_runs_fresh(self):
        # the failing on/off column stops the batch after the MPC controller
        # has already stepped; its re-run alone reuses that controller and
        # must still match a run of its own
        starts = standard_initial_states(P)
        w = wet_12h(dt=60.0)
        rows = compare(starts, [MPC, ControllerSpec(kind="onoff", v=0.0)], w, 50, P)
        assert [r.status for r in rows[1::2]] == [
            "failed: ValueError at step 0: on/off rate v must be positive"] * 3
        for row, (name, x0) in zip(rows[0::2], starts.items()):
            assert row.status == "ok"
            assert (row.cumulative_deviation, row.sum_u_sq) == _alone(name, x0, MPC, w, 50)


class TestControllerSpec:
    @pytest.mark.parametrize("name", ["lam", "eps", "v", "theta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be a finite number, got "):
            ControllerSpec(kind="onoff", **{name: value})

    def test_out_of_range_rates_still_fail_at_run_time(self):
        # v = 0 fails at step 0 and v > 1 clamps to 1, so both are accepted here
        assert ControllerSpec(kind="onoff", v=0.0).v == 0.0
        assert ControllerSpec(kind="onoff", v=2.0).v == 2.0


P_1S = PlantParams()   # the CLI default step, tau = 1 s


class TestControlPeriod:
    @pytest.mark.parametrize("tau, period, k", [
        (1.0, None, 60), (60.0, None, 1), (7.0, None, 8), (120.0, None, 1),
        (0.1, None, 600), (1.0, 1.0, 1), (1.0, 120.0, 120), (60.0, 180.0, 3),
        (0.1, 0.3, 3),
    ])
    def test_hold_steps(self, tau, period, k):
        assert hold_steps(tau, period) == k

    @pytest.mark.parametrize("tau, period, match", [
        (1.0, 0.0, "positive"), (1.0, -60.0, "positive"), (1.0, float("nan"), "positive"),
        (1.0, float("inf"), "positive"), (1.0, 1.5, "whole multiple of tau = 1 s"),
        (1.0, 0.5, "whole multiple"), (60.0, 30.0, "whole multiple of tau = 60 s"),
    ])
    def test_hold_steps_refuses(self, tau, period, match):
        with pytest.raises(ValueError, match=rf"^control period must be .*{match}"):
            hold_steps(tau, period)
        with pytest.raises(ValueError, match="^control period"):
            Scenario(name="s", x0=(50.0, 1.0), N=1, controller=ControllerSpec(kind="onoff"),
                     weather=wet_12h(dt=tau), plant=PlantParams(tau=tau),
                     control_period=period)

    def test_loop_decides_once_per_period(self):
        # tau = 1 s, default 60 s period: 15 decisions in 900 steps
        calls = []

        def step_fn(t, x1, x2, u_prev):
            calls.append((t, u_prev))
            return t / 1000.0

        sc = Scenario(name="low-low", x0=standard_initial_states(P_1S)["low-low"], N=900,
                      controller=ControllerSpec(kind="onoff"), weather=wet_12h(dt=1.0),
                      plant=P_1S)
        trace = run_scenario(sc, step_fn)
        assert [t for t, _ in calls] == list(range(0, 900, 60))
        # each decision sees the control held over the block before it
        assert [u_prev for _, u_prev in calls] == [0.0] + [t / 1000.0 for t in range(0, 840, 60)]
        blocks = trace.u.reshape(15, 60)
        assert np.array_equal(blocks, np.repeat(blocks[:, :1], 60, axis=1))
        assert np.array_equal(blocks[:, 0], np.arange(0, 900, 60) / 1000.0)

    def test_batched_held_cells_equal_single_cells(self):
        specs = [MPC, ControllerSpec(kind="onoff", v=0.5), DP_9]
        _assert_rows_match_single_cells(standard_initial_states(P_1S), specs,
                                        wet_12h(dt=1.0), 60, P_1S, control_period=5.0)

    def test_held_mpc_beats_every_onoff_rate_at_one_second(self):
        # criterion 10(a) carried to the CLI default step, tau = 1 s, 2 h
        starts = {name: x0 for name, x0 in standard_initial_states(P_1S).items()
                  if name != "high-high"}
        specs = [MPC] + [ControllerSpec(kind="onoff", v=v) for v in (0.2, 0.5, 1.0, 1.5, 2.0)]
        rows = compare(starts, specs, wet_12h(dt=1.0), 7200, P_1S)
        assert [r.status for r in rows] == ["ok"] * len(rows)
        for name in starts:
            mpc, *onoff = [r.cumulative_deviation for r in rows if r.scenario == name]
            assert all(mpc < d for d in onoff), (name, mpc, onoff)
