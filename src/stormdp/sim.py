"""Weather ingestion, synthetic storms, closed-loop simulation, metrics,
the scenario catalog, and the controller comparison grid."""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import numbers
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
    "float_rows",
    "write_trace_csv",
    "load_weather_csv",
    "synth_storm",
    "wet_12h",
    "standard_initial_states",
    "DEFAULT_CONTROL_PERIOD",
    "hold_steps",
    "make_controller",
    "solve_dp",
    "run_scenario",
    "describe_failure",
    "cumulative_deviation",
    "compare",
    "write_comparison_csv",
]

WEATHER_HEADER = ["t_s", "w_r_mps", "w_e_m3ps"]
DEFAULT_CONTROL_PERIOD = 60.0   # s


@dataclass(frozen=True)
class WeatherSeries:
    """Uniformly sampled precipitation (m/s) and evapotranspiration (m^3/s).

    ``__post_init__`` stacks the rate columns into read-only (n, 2) rows,
    and the model reads those alone: ``forecast``, the closed loop's
    plant step and trace, and ``solve_dp``'s atoms. Writing ``w_r`` or
    ``w_e`` after construction therefore changes no run."""

    t: np.ndarray
    w_r: np.ndarray
    w_e: np.ndarray

    def __post_init__(self):
        for name in ("t", "w_r", "w_e"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        t, w_r, w_e = self.t, self.w_r, self.w_e
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
        rows = np.column_stack([w_r, w_e])
        rows.flags.writeable = False
        object.__setattr__(self, "_rows", rows)

    def __len__(self) -> int:
        return self.t.size

    def forecast(self, t: int, M: int) -> np.ndarray:
        """(M, 2) rows of (w_r, w_e) for steps t..t+M-1, holding the last
        sample past the end; a read-only view where the series covers them."""
        if t < 0:
            raise ValueError("forecast start must be nonnegative")
        rows = self._rows[t:t + M]
        if len(rows) != M:   # the window runs past the last sample
            rows = self._rows[np.minimum(np.arange(t, t + M), len(self) - 1)]
        return rows

    def resample(self, dt: float) -> "WeatherSeries":
        """Piecewise-linear resampling to step dt from the first sample.

        The new series has round(span / dt) + 1 samples, so it ends at the
        whole step nearest the last sample: exactly there when the span
        is a whole number of steps, else before it or past it. Past it the
        last value is held: t = 0, 50, 100 s at dt = 60 s gives 0, 60,
        120 s, with the value at 120 s that of 100 s."""
        if dt <= 0:
            raise ValueError("sample period must be positive")
        n = int(round((self.t[-1] - self.t[0]) / dt)) + 1
        tq = self.t[0] + dt * np.arange(n)
        return WeatherSeries(t=tq,
                             w_r=np.interp(tq, self.t, self._rows[:, 0]),
                             w_e=np.interp(tq, self.t, self._rows[:, 1]))


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
    data = np.asarray(rows, dtype=float).reshape(-1, 3)   # WeatherSeries refuses no rows
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


def hold_steps(tau: float, control_period: float | None = None) -> int:
    """The number k of plant steps the closed loop holds each control for.

    An explicit ``control_period`` (s) must be a positive whole multiple
    of ``tau``. Without one the period is DEFAULT_CONTROL_PERIOD rounded
    down to whole plant steps, and at least one step: k = max(1,
    floor(60 s / tau)), so the ``--fast`` step (tau = 60 s) decides at
    every step and no plant step is refused."""
    period = DEFAULT_CONTROL_PERIOD if control_period is None else control_period
    if not (isinstance(period, numbers.Real) and math.isfinite(period) and period > 0):
        raise ValueError(f"control period must be a positive number of seconds, "
                         f"got {period!r}")
    ratio = period / tau
    k = round(ratio)
    if abs(ratio - k) <= 1e-9 * ratio:   # whole steps, up to the rounding of period / tau
        return max(1, k)
    if control_period is not None:
        raise ValueError(f"control period must be a whole multiple of tau = {tau:g} s, "
                         f"got {period:g} s")
    return max(1, math.floor(ratio))


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
    """One closed-loop run: a named start, horizon, controller, weather,
    and the control period in seconds (None: the default, see
    :func:`hold_steps`)."""

    name: str
    x0: tuple[float, float]
    N: int
    controller: "ControllerSpec"
    weather: WeatherSeries
    plant: PlantParams = field(default_factory=PlantParams)
    control_period: float | None = None

    def __post_init__(self):
        p = self.plant
        if not (0 <= self.x0[0] <= p.cap1 and 0 <= self.x0[1] <= p.cap2):
            raise ValueError("initial state outside the clamped state box")
        if self.N < 1:
            raise ValueError(f"horizon N must be at least 1, got {self.N}")
        if len(self.weather) < self.N + 1:
            raise ValueError("weather series shorter than the simulation horizon")
        hold_steps(p.tau, self.control_period)   # refuses a period of no whole steps

    @property
    def hold(self) -> int:
        """Plant steps each control is held for."""
        return hold_steps(self.plant.tau, self.control_period)


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
        for name in ("lam", "eps", "v", "theta"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
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
                    N: int, hold: int = 1) -> Callable[[int, float, float, float], float]:
    """Build a step callable (t, x1, x2, u_prev) -> u, elementwise on
    state arrays. It keeps no state between calls, so one controller can
    drive any number of runs, and several starts as the columns of one
    closed loop. ``hold`` is the loop's plant steps per decision: the
    MPC models each stage of its horizon as that many steps."""
    if spec.kind == "onoff":
        return lambda t, x1, x2, u_prev: ctl.onoff_step(x1, x2, spec.v, p)

    if spec.kind == "mpc":
        cfg = ctl.MpcConfig(plant=p, horizon=spec.horizon, lam=spec.lam, eps=spec.eps,
                            hold=hold)
        return lambda t, x1, x2, u_prev: ctl.mpc_step(t, x1, x2, u_prev, weather, cfg)

    if spec.kind == "dp":
        policy = solve_dp(spec, p, weather, N)[1]
        return lambda t, x1, x2, u_prev: ctl.dp_step(t, x1, x2, policy)

    raise ValueError(f"unknown controller kind {spec.kind!r}")


def solve_dp(spec: ControllerSpec, p: PlantParams, weather: WeatherSeries,
             N: int) -> tuple[riskdp.ValueTable, riskdp.PolicyTable]:
    """Solve the DP of a ``dp`` spec over the first N weather samples.

    Every caller reads the policy and at most V[0], so the values are
    solved in two rows and the ValueTable holds V[0] alone, shape
    (1, nnodes); call ``riskdp.solve`` for every stage's values."""
    if len(weather) < N:
        raise ValueError(f"weather series has {len(weather)} samples, fewer than N = {N}")
    grid = riskdp.Grid.uniform(*spec.grid_shape, p)
    actions = np.linspace(0.0, 1.0, spec.n_actions)
    w_r, w_e = weather.forecast(0, N).T
    dm = riskdp.DisturbanceModel.from_series(w_r, w_e, n_atoms=spec.n_atoms)
    costs = riskdp.tracking_cost(p, lam=spec.lam)
    return riskdp.solve(N, grid, actions, dm, costs, p, riskdp.RiskParams(spec.theta),
                        keep_values=False)


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
    """Closed loop: controller -> clamp -> hold -> exact non-smooth plant step.

    ``step_fn`` is a controller already built for ``sc.controller`` and
    ``sc.hold``; without one, ``make_controller`` builds it. The loop
    decides every k = ``sc.hold`` plant steps: at a step t with t % k == 0
    it calls ``step_fn(t, x1, x2, u_prev)``, where ``u_prev`` is the
    control it applied at step t - 1 (zeros of the state's shape at
    t = 0), and at every other step it applies ``u_prev`` again without
    calling the controller. The loop holds all the state of a run.
    Deterministic given its inputs. A controller or model error
    propagates with its own type and carries the failing step index as
    its ``step`` attribute.
    """
    if step_fn is None:
        step_fn = make_controller(sc.controller, sc.plant, sc.weather, sc.N, sc.hold)
    return _closed_loop(sc.x0, sc.N, step_fn, sc.weather, sc.plant, sc.hold)


def _closed_loop(x0, n: int, step_fn, weather: WeatherSeries, p: PlantParams,
                 hold: int) -> Trace:
    """The loop body of :func:`run_scenario`, deciding every ``hold``
    steps. ``x0`` is one start, two floats, or m starts, two arrays of
    shape (m,); the states then have shape (n+1,) or (n+1, m) and
    ``step_fn`` maps state and control rows to controls."""
    cells = np.shape(x0[0])
    x1 = np.empty((n + 1, *cells))
    x2 = np.empty((n + 1, *cells))
    u = np.empty((n, *cells))
    clamp1 = np.empty((n, *cells))
    clamp2 = np.empty((n, *cells))
    x1[0], x2[0] = x0
    w_r, w_e = weather.forecast(0, n).T   # views of the series' stacked rows
    u_prev = np.zeros(cells)
    for t in range(n):
        try:
            if t % hold == 0:
                # np.clip's value, without its dispatch
                u_prev = np.asarray(step_fn(t, x1[t], x2[t], u_prev)).clip(0.0, 1.0)
            u[t] = u_prev
            x1[t + 1], x2[t + 1], clamp1[t], clamp2[t] = plant_mod.step(
                x1[t], x2[t], u[t], w_r[t], w_e[t], p)
        except Exception as exc:
            exc.step = t
            raise
    # cost is one array op, so a batch's column and a single run round alike
    return Trace(t=p.tau * np.arange(n + 1), x1=x1, x2=x2, u=u,
                 w_r=w_r.copy(), w_e=w_e.copy(),
                 cost=riskdp.tracking_error(x2[:-1], p), clamp1=clamp1, clamp2=clamp2)


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


def float_rows(*columns):
    """Rows of ``repr(float(v))`` cells from 1-d numeric columns, formatted
    column by column as the rows are read; past the end of a shorter
    column a cell is empty."""
    return itertools.zip_longest(*(map(repr, map(float, c)) for c in columns),
                                 fillvalue="")


def write_trace_csv(trace: Trace, path) -> None:
    """One row per state; the last row leaves the per-step columns empty."""
    names = [f.name for f in fields(Trace)]
    write_csv(path, names, float_rows(*(getattr(trace, name) for name in names)))


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
            N: int, p: PlantParams,
            control_period: float | None = None) -> list[ComparisonRow]:
    """Run every (start, controller) cell over the shared weather, horizon
    and control period (see :func:`hold_steps`; a bad period raises
    before any cell runs).

    Every cell runs as a column of one closed loop, which holds every
    column's control over the same period: each spec's controller is
    built once and drives all starts as its columns, so each ``dp``
    spec's policy is solved once and each ``mpc`` spec condenses and
    solves its starts' QPs as one batch; one ``onoff_step`` call serves
    the columns of every on/off spec, each at its own rate. A column has
    the bits of its cell run alone. The rows' ``runtime_s`` is the
    batch's wall time split evenly across its columns. Failing cells are
    marked and the rest of the grid still runs. A start the scenario
    refuses (one outside the state box) fails each of its cells with
    that error and a runtime of 0 s, whatever the cell's spec. A spec
    whose controller fails to build is built once, and its error and the
    build's wall time are reported on each of its cells whose start was
    accepted. Neither takes the other cells out of the batch; if the
    batch fails, its cells run again one at a time on the controllers
    already built, which keep no state, so each row keeps its own status.
    """
    hold = hold_steps(p.tau, control_period)
    rows = {}
    step_fns = {}
    groups = []   # per group: its slice of columns and its controller
    cells = []    # per column: its scenario and spec index
    onoff = []    # per on/off column: its cell and its rate
    start = time.perf_counter()
    for i, spec in enumerate(controllers):
        scs = []
        for name, x0 in initial_states.items():
            try:
                scs.append(Scenario(name=name, x0=x0, N=N, controller=spec, weather=weather,
                                    plant=p, control_period=control_period))
            except Exception as exc:
                rows[name, i] = _row(name, spec, exc, 0.0, p)
        built = time.perf_counter()
        try:
            step_fns[i] = make_controller(spec, p, weather, N, hold)
        except Exception as exc:
            runtime = time.perf_counter() - built
            rows.update({(sc.name, i): _row(sc.name, spec, exc, runtime, p) for sc in scs})
            continue
        if spec.kind == "onoff":
            onoff += [((sc, i), spec.v) for sc in scs]
            continue
        groups.append((slice(len(cells), len(cells) + len(scs)), step_fns[i]))
        cells += [(sc, i) for sc in scs]
    if onoff:   # every rate's columns in one call, each column at its own rate
        rates = np.array([v for _, v in onoff])
        groups.append((slice(len(cells), len(cells) + len(onoff)),
                       lambda t, x1, x2, u_prev: ctl.onoff_step(x1, x2, rates, p)))
        cells += [cell for cell, _ in onoff]

    def step_fn(t, x1, x2, u_prev):
        return np.concatenate([fn(t, x1[cols], x2[cols], u_prev[cols]) for cols, fn in groups])

    if cells:
        try:
            trace = _closed_loop(tuple(np.array([sc.x0 for sc, _ in cells]).T), N,
                                 step_fn, weather, p, hold)
        except Exception:
            for sc, i in cells:   # each cell alone, to report its own failure
                alone = time.perf_counter()
                try:
                    result = run_scenario(sc, step_fns[i])
                except Exception as exc:
                    result = exc
                rows[sc.name, i] = _row(sc.name, sc.controller, result,
                                        time.perf_counter() - alone, p)
        else:
            runtime = (time.perf_counter() - start) / len(cells)
            for j, (sc, i) in enumerate(cells):
                rows[sc.name, i] = _row(sc.name, sc.controller, _column(trace, j),
                                        runtime, p)
    return [rows[name, i] for name in initial_states for i in range(len(controllers))]


def _row(name, spec, result, runtime_s, p) -> ComparisonRow:
    """A cell's row from its trace, or from the error that ended it."""
    failed = isinstance(result, Exception)
    return ComparisonRow(
        scenario=name, controller=spec.kind, params=spec.label,
        cumulative_deviation=math.nan if failed else cumulative_deviation(result, p),
        sum_u_sq=math.nan if failed else float((result.u ** 2).sum()),
        status=f"failed: {describe_failure(result)}" if failed else "ok",
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
