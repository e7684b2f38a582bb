"""Weather ingestion, synthetic storms, closed-loop simulation, metrics,
the scenario catalog, and the controller comparison grid."""

from __future__ import annotations

import contextlib
import csv
import math
import sys
import time
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import control as ctl
from . import plant as plant_mod
from . import riskdp
from .plant import PlantParams

__all__ = [
    "WeatherSeries",
    "Scenario",
    "ControllerSpec",
    "ComparisonRow",
    "Trace",
    "write_csv",
    "write_trace_csv",
    "read_trace_csv",
    "load_weather_csv",
    "synth_storm",
    "wet_12h",
    "standard_initial_states",
    "make_controller",
    "solve_dp",
    "run_scenario",
    "describe_failure",
    "cumulative_deviation",
    "compare",
    "write_comparison_csv",
]

WEATHER_HEADER = ["t_s", "w_r_mps", "w_e_m3ps"]


@dataclass(frozen=True)
class WeatherSeries:
    """Uniformly sampled precipitation (m/s) and evapotranspiration (m^3/s)."""

    t: np.ndarray
    w_r: np.ndarray
    w_e: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        w_r = np.asarray(self.w_r, dtype=float)
        w_e = np.asarray(self.w_e, dtype=float)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "w_r", w_r)
        object.__setattr__(self, "w_e", w_e)
        if not (t.size == w_r.size == w_e.size):
            raise ValueError("weather columns must have equal lengths")
        if t.size == 0:
            raise ValueError("no samples")
        for name, column in (("t", t), ("w_r", w_r), ("w_e", w_e)):
            if not np.all(np.isfinite(column)):
                raise ValueError(f"weather column {name!r} must be finite")
        if np.any(w_r < 0) or np.any(w_e < 0):
            raise ValueError("weather rates must be nonnegative")
        if t.size > 1:
            dt = np.diff(t)
            if np.any(dt <= 0):
                raise ValueError("timestamps must be strictly increasing")
            if np.max(np.abs(dt - dt[0])) > 1e-6:
                raise ValueError("timestamps must be uniformly sampled")

    def __len__(self) -> int:
        return self.t.size

    def forecast(self, t: int, M: int) -> np.ndarray:
        """(M, 2) rows of (w_r, w_e) for steps t..t+M-1; past the last
        sample the forecast holds that sample."""
        if t < 0:
            raise ValueError("forecast start must be nonnegative")
        idx = np.minimum(np.arange(t, t + M), self.t.size - 1)
        return np.column_stack([self.w_r[idx], self.w_e[idx]])

    def resample(self, dt: float) -> "WeatherSeries":
        """Piecewise-linear resampling to step dt, endpoint-exact."""
        if dt <= 0:
            raise ValueError("sample period must be positive")
        n = int(round((self.t[-1] - self.t[0]) / dt)) + 1
        tq = self.t[0] + dt * np.arange(n)
        return WeatherSeries(t=tq,
                             w_r=np.interp(tq, self.t, self.w_r),
                             w_e=np.interp(tq, self.t, self.w_e))


def load_weather_csv(path, tau: float | None = None) -> WeatherSeries:
    """Read a weather CSV with header ``t_s,w_r_mps,w_e_m3ps``.

    Malformed rows report their line number. If ``tau`` is given the
    series is linearly resampled to that period.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("no samples") from None
        if [h.strip() for h in header] != WEATHER_HEADER:
            raise ValueError(f"expected header {','.join(WEATHER_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise ValueError(f"line {lineno}: expected 3 fields, got {len(row)}")
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric value") from None
    if not rows:
        raise ValueError("no samples")
    data = np.asarray(rows)
    series = WeatherSeries(t=data[:, 0], w_r=data[:, 1], w_e=data[:, 2])
    return series.resample(tau) if tau is not None else series


def synth_storm(pulses, duration: float, dt: float,
                w_e_base: float = 4.0e-5) -> WeatherSeries:
    """Piecewise-constant rain pulses over a flat evapotranspiration baseline.

    ``pulses`` is a list of (t0, t1, rate) with non-overlapping [t0, t1).
    """
    pulses = sorted(pulses)
    for (a0, a1, _), (b0, b1, _) in zip(pulses, pulses[1:]):
        if b0 < a1:
            raise ValueError("storm pulses must not overlap")
    t = dt * np.arange(int(round(duration / dt)) + 1)
    w_r = np.zeros_like(t)
    for t0, t1, rate in pulses:
        if rate < 0:
            raise ValueError("pulse rate must be nonnegative")
        w_r[(t >= t0) & (t < t1)] = rate
    return WeatherSeries(t=t, w_r=w_r, w_e=np.full_like(t, w_e_base))


def wet_12h(dt: float = 60.0) -> WeatherSeries:
    """Default synthetic wet-weather preset.

    Three pulses whose total depth equals a 5 mm/h x 4 h event (20 mm):
    8 mm + 6 mm + 6 mm spread over 12 hours.
    """
    mmph = 1e-3 / 3600.0
    pulses = [
        (0.0, 2 * 3600.0, 4.0 * mmph),       # 8 mm
        (4 * 3600.0, 6 * 3600.0, 3.0 * mmph),  # 6 mm
        (8 * 3600.0, 10 * 3600.0, 3.0 * mmph),  # 6 mm
    ]
    return synth_storm(pulses, duration=12 * 3600.0, dt=dt)


def standard_initial_states(p: PlantParams) -> dict[str, tuple[float, float]]:
    """The three catalog starts: each tank high or low relative to its
    outlet elevation / desired moisture level."""
    return {
        "low-low": (p.a1 * p.z_o / 1.3, p.a2 * p.z_veg / 1.3),
        "high-low": (p.a1 * p.z_o * 1.3, p.a2 * p.z_veg / 1.3),
        "high-high": (p.a1 * p.z_o * 1.3, p.a2 * p.z_veg * 1.3),
    }


@dataclass(frozen=True)
class Scenario:
    """One closed-loop run: a named start, horizon, controller, weather."""

    name: str
    x0: tuple[float, float]
    N: int
    controller: "ControllerSpec"
    weather: WeatherSeries
    plant: PlantParams = field(default_factory=PlantParams)

    def __post_init__(self):
        p = self.plant
        if not (0 <= self.x0[0] <= p.cap1 and 0 <= self.x0[1] <= p.cap2):
            raise ValueError("initial state outside the clamped state box")
        if self.N < 1:
            raise ValueError(f"horizon N must be at least 1, got {self.N}")
        if len(self.weather) < self.N + 1:
            raise ValueError("weather series shorter than the simulation horizon")


@dataclass(frozen=True)
class ControllerSpec:
    """Controller selection plus its parameters, as used in comparisons."""

    kind: str                 # "mpc" | "onoff" | "dp"
    lam: float = 1e-3         # mpc
    horizon: int = 10         # mpc
    eps: float = 0.5          # mpc
    v: float = 0.5            # onoff
    theta: float = -0.1       # dp
    grid_shape: tuple[int, int] = (41, 41)   # dp
    n_actions: int = 11       # dp
    n_atoms: int = 3          # dp

    def __post_init__(self):
        # the kind is checked where the controller is built, so that an
        # unknown kind fails one comparison cell and not the whole grid
        if self.n_actions < 1:
            raise ValueError(f"n_actions must be at least 1, got {self.n_actions}")
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be at least 1, got {self.n_atoms}")
        if min(self.grid_shape) < 2:
            raise ValueError(f"grid_shape entries must be at least 2, "
                             f"got {self.grid_shape}")

    @property
    def label(self) -> str:
        if self.kind == "mpc":
            return f"mpc(lam={self.lam:g},M={self.horizon})"
        if self.kind == "onoff":
            return f"onoff(v={self.v:g})"
        return f"dp(theta={self.theta:g})"


def make_controller(spec: ControllerSpec, p: PlantParams, weather: WeatherSeries,
                    N: int) -> Callable[[int, float, float], float]:
    """Build a stateful step callable (t, x1, x2) -> u for one run."""
    if spec.kind == "onoff":
        return lambda t, x1, x2: ctl.onoff_step(x1, x2, spec.v, p)

    if spec.kind == "mpc":
        cfg = ctl.MpcConfig(plant=p, horizon=spec.horizon, lam=spec.lam, eps=spec.eps)
        cs = ctl.initial_controller_state()

        def mpc(t, x1, x2):
            nonlocal cs
            u, cs = ctl.mpc_step(t, x1, x2, weather.forecast(t, spec.horizon), cs, cfg)
            return u

        return mpc

    if spec.kind == "dp":  # stateless, so one controller serves every start
        policy = solve_dp(spec, p, weather, N)[1]
        return lambda t, x1, x2: ctl.dp_step(t, x1, x2, policy)

    raise ValueError(f"unknown controller kind {spec.kind!r}")


def solve_dp(spec: ControllerSpec, p: PlantParams, weather: WeatherSeries,
             N: int) -> tuple[riskdp.ValueTable, riskdp.PolicyTable]:
    """Solve the DP of a ``dp`` spec over the first N weather samples."""
    grid = riskdp.Grid.uniform(*spec.grid_shape, p)
    actions = np.linspace(0.0, 1.0, spec.n_actions)
    dm = riskdp.DisturbanceModel.from_series(weather.w_r[:N], weather.w_e[:N],
                                             n_atoms=spec.n_atoms)
    costs = riskdp.tracking_cost(p, lam=spec.lam)
    return riskdp.solve(N, grid, actions, dm, costs, p, riskdp.RiskParams(spec.theta))


@dataclass(frozen=True)
class Trace:
    """Closed-loop record: N+1 states, N controls/disturbances/costs.

    ``clamp1``/``clamp2`` log the volume removed (or added) by the state
    clamp at each step so a mass-balance audit can account for it.
    """

    t: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    u: np.ndarray
    w_r: np.ndarray
    w_e: np.ndarray
    cost: np.ndarray
    clamp1: np.ndarray
    clamp2: np.ndarray


def run_scenario(sc: Scenario, step_fn=None) -> Trace:
    """Closed loop: controller -> clamp -> exact non-smooth plant step.

    ``step_fn`` is a controller already built for ``sc.controller``;
    without one, ``make_controller`` builds it. Deterministic given its
    inputs. A controller or model error propagates with its own type and
    carries the failing step index as its ``step`` attribute.
    """
    if step_fn is None:
        step_fn = make_controller(sc.controller, sc.plant, sc.weather, sc.N)
    return _closed_loop(sc.x0, sc.N, step_fn, sc.weather, sc.plant)


def _closed_loop(x0, n: int, step_fn, weather: WeatherSeries, p: PlantParams) -> Trace:
    """The loop body of :func:`run_scenario`. ``x0`` is one start, two
    floats, or m starts, two arrays of shape (m,); the states then have
    shape (n+1,) or (n+1, m) and ``step_fn`` maps state rows to controls."""
    cells = np.shape(x0[0])
    x1 = np.empty((n + 1, *cells))
    x2 = np.empty((n + 1, *cells))
    u = np.empty((n, *cells))
    cost = np.empty((n, *cells))
    clamp1 = np.empty((n, *cells))
    clamp2 = np.empty((n, *cells))
    x1[0], x2[0] = x0
    for t in range(n):
        try:
            u[t] = np.clip(step_fn(t, x1[t], x2[t]), 0.0, 1.0)
            x1[t + 1], x2[t + 1], clamp1[t], clamp2[t] = plant_mod.step(
                x1[t], x2[t], u[t], weather.w_r[t], weather.w_e[t], p)
        except Exception as exc:
            exc.step = t
            raise
        cost[t] = riskdp.tracking_error(x2[t], p)
    return Trace(t=p.tau * np.arange(n + 1), x1=x1, x2=x2, u=u,
                 w_r=weather.w_r[:n].copy(), w_e=weather.w_e[:n].copy(),
                 cost=cost, clamp1=clamp1, clamp2=clamp2)


def describe_failure(exc: Exception) -> str:
    """``"<type> at step <t>: <message>"``; the step only if the loop set one."""
    where = f" at step {exc.step}" if hasattr(exc, "step") else ""
    return f"{type(exc).__name__}{where}: {exc}"


def cumulative_deviation(trace: Trace, p: PlantParams) -> float:
    """Sum over all recorded states of |x2 - a2 * z_veg| (m^3 * steps)."""
    return float(np.abs(trace.x2 - p.x2_target).sum())


def _fmt(v: float) -> str:
    return repr(float(v))


def write_csv(path, header, rows) -> None:
    """Write a header and rows as CSV to ``path``, or to stdout if ``path``
    is ``-``; either way the same bytes."""
    with (contextlib.nullcontext(sys.stdout) if path == "-"
          else open(path, "w", newline="")) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_trace_csv(trace: Trace, path) -> None:
    """One row per state; the last row leaves the per-step columns empty."""
    names = [f.name for f in fields(Trace)]
    cols = [getattr(trace, name) for name in names]
    write_csv(path, names, ([_fmt(c[i]) if i < c.size else "" for c in cols]
                            for i in range(trace.t.size)))


def read_trace_csv(path) -> Trace:
    names = [f.name for f in fields(Trace)]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != names:
            raise ValueError("unexpected trace header")
        rows = [row for row in reader if row]
    # t, x1 and x2 have one row more than the per-step columns
    return Trace(**{name: np.array([float(row[j]) for row in (rows if j < 3 else rows[:-1])])
                    for j, name in enumerate(names)})


@dataclass(frozen=True)
class ComparisonRow:
    scenario: str
    controller: str
    params: str
    cumulative_deviation: float
    sum_u_sq: float
    status: str
    runtime_s: float


def compare(initial_states: dict[str, tuple[float, float]],
            controllers: list[ControllerSpec], weather: WeatherSeries,
            N: int, p: PlantParams) -> list[ComparisonRow]:
    """Run every (start, controller) cell over the shared weather/horizon.

    The stateless cells, every start under each ``onoff`` and ``dp``
    spec, run as the columns of one closed loop; each ``dp`` spec's policy
    is solved once and shared by its columns. Their rows' ``runtime_s`` is
    that batch's wall time split evenly across its columns. MPC cells run
    one at a time. Failing cells are marked and the rest of the grid still
    runs: if the batch fails, its cells run again one at a time, so each
    row keeps its own status.
    """
    rows = {}
    step_fns = {}
    groups = []   # per stateless spec: its slice of columns and its controller
    cells = []    # per column: its scenario and spec index
    start = time.perf_counter()
    for i, spec in enumerate(controllers):
        if spec.kind not in ("onoff", "dp"):   # MPC carries state between steps
            continue
        try:
            step_fns[i] = make_controller(spec, p, weather, N)
            scs = [Scenario(name=name, x0=x0, N=N, controller=spec, weather=weather, plant=p)
                   for name, x0 in initial_states.items()]
        except Exception:
            continue   # its cells run one at a time below and report the error
        groups.append((slice(len(cells), len(cells) + len(scs)), step_fns[i]))
        cells += [(sc, i) for sc in scs]

    def step_fn(t, x1, x2):
        return np.concatenate([fn(t, x1[cols], x2[cols]) for cols, fn in groups])

    if cells:
        try:
            trace = _closed_loop(tuple(np.array([sc.x0 for sc, _ in cells]).T), N,
                                 step_fn, weather, p)
        except Exception:
            pass   # each cell runs again alone below and reports its own failure
        else:
            runtime = (time.perf_counter() - start) / len(cells)
            for j, (sc, i) in enumerate(cells):
                rows[sc.name, i] = _row(sc.name, sc.controller, _column(trace, j),
                                        runtime, p)
    for name, x0 in initial_states.items():
        for i, spec in enumerate(controllers):
            if (name, i) not in rows:
                rows[name, i] = _run_cell(name, x0, spec, weather, N, p, step_fns.get(i))
    return [rows[name, i] for name in initial_states for i in range(len(controllers))]


def _run_cell(name, x0, spec, weather, N, p, step_fn=None) -> ComparisonRow:
    """One comparison cell run alone; a failure becomes its status."""
    start = time.perf_counter()
    try:
        trace = run_scenario(Scenario(name=name, x0=x0, N=N, controller=spec,
                                      weather=weather, plant=p), step_fn)
    except Exception as exc:
        return ComparisonRow(scenario=name, controller=spec.kind, params=spec.label,
                             cumulative_deviation=math.nan, sum_u_sq=math.nan,
                             status=f"failed: {describe_failure(exc)}",
                             runtime_s=time.perf_counter() - start)
    return _row(name, spec, trace, time.perf_counter() - start, p)


def _row(name, spec, trace, runtime_s, p) -> ComparisonRow:
    return ComparisonRow(scenario=name, controller=spec.kind, params=spec.label,
                         cumulative_deviation=cumulative_deviation(trace, p),
                         sum_u_sq=float((trace.u ** 2).sum()), status="ok",
                         runtime_s=runtime_s)


def _column(trace: Trace, j: int) -> Trace:
    """Cell ``j`` of a batched trace, each field contiguous as a run of
    that cell alone leaves it, so reductions over it match bit for bit."""
    return Trace(**{f.name: (a[:, j].copy() if a.ndim == 2 else a)
                    for f in fields(Trace) for a in [getattr(trace, f.name)]})


def write_comparison_csv(rows: list[ComparisonRow], path,
                         timing_path=None) -> None:
    """Write the comparison table.

    The main CSV holds only deterministic columns so identical seeds give
    byte-identical files; wall-clock timings go to ``timing_path``.
    """
    write_csv(path, ["scenario", "controller", "params",
                     "cumulative_deviation_m3_steps", "sum_u_sq", "status"],
              ([r.scenario, r.controller, r.params, _fmt(r.cumulative_deviation),
                _fmt(r.sum_u_sq), r.status] for r in rows))
    if timing_path is not None:
        write_csv(timing_path, ["scenario", "controller", "params", "runtime_s"],
                  ([r.scenario, r.controller, r.params, f"{r.runtime_s:.6f}"]
                   for r in rows))
