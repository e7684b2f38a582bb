"""The four workloads: their seeded inputs, the operations one repetition
runs through the program's public entry points, and the checks of each
operation's output against ``reference``.

An operation is one command invocation. ``ops`` lists a repetition's
operations; ``check`` raises ``CheckFailed`` when an output is wrong.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from pathlib import Path

import numpy as np

import reference as ref
from stormdp import cli, riskdp
from stormdp.plant import PlantParams
from stormdp.sim import wet_12h

MMPH = 1e-3 / 3600.0          # 1 mm/h in m/s
W_E_BASE = 4.0e-5             # evapotranspiration baseline (m^3/s)
KNOT_S = 60.0                 # storm CSVs are sampled every minute
THETAS = (-0.01, -1.0, -5.0)


class CheckFailed(Exception):
    pass


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


def close(a, b, rel=1e-9, abs_=0.0):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rel * np.abs(b) + abs_))


def run_cli(argv):
    """``stormdp`` with a user's argv; its console output is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"stormdp {' '.join(argv)} returned {rc}")


def write_storm(path, rain_knots):
    """Weather CSV with one rain knot per minute over the base ET rate."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_s", "w_r_mps", "w_e_m3ps"])
        for k, rate in enumerate(rain_knots):
            w.writerow([repr(k * KNOT_S), repr(float(rate)), repr(W_E_BASE)])


def resampled(rain_knots, n):
    """The storm linearly interpolated to 1 s: (w_r, w_e) for t = 0..n-1."""
    t = np.arange(n, dtype=float)
    knot_t = KNOT_S * np.arange(len(rain_knots))
    return np.interp(t, knot_t, rain_knots), np.full(n, W_E_BASE)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class Workload:
    """Defaults for workloads without once-per-run operations or closed loops."""

    def describe(self):
        return ""

    def final_ops(self):
        return []

    def deviations(self):
        return {}


class CompareFast(Workload):
    """``stormdp compare --fast --with-dp`` on the built-in wet preset."""

    N = 720
    TAU = 60.0
    ONOFF = 5

    def __init__(self, seed, work: Path):
        self.out = str(work / "compare.csv")
        self.argv = ["compare", "--fast", "--with-dp", "--seed", str(seed),
                     "--out", self.out]
        self.warm_argv = ["compare", "--fast", "--with-dp", "-N", "30",
                          "--out", str(work / "warm.csv")]
        self._uncontrolled = None
        self._deviation = {}

    def describe(self):
        return f"N={self.N} tau={self.TAU:g} s, built-in wet preset"

    def ops(self):
        return [("compare", lambda: run_cli(self.argv))]

    def warmup(self):
        run_cli(self.warm_argv)

    def uncontrolled_high_high(self):
        if self._uncontrolled is None:
            w = wet_12h(dt=self.TAU)   # the built-in preset is the input
            _, x2 = ref.replay(ref.STARTS["high-high"], np.zeros(self.N),
                               w.w_r, w.w_e, self.TAU)
            self._uncontrolled = ref.deviation(x2)
        return self._uncontrolled

    def check(self, label):
        rows = read_rows(self.out)
        require(rows[0] == ["scenario", "controller", "params",
                            "cumulative_deviation_m3_steps", "sum_u_sq", "status"],
                "compare header")
        rows = rows[1:]
        require(len(rows) == 3 * (self.ONOFF + 2), f"{len(rows)} compare rows")
        require(all(r[5] == "ok" for r in rows), "a compare row is not ok")
        dev = {}
        for scenario, kind, _, d, usq, _ in rows:
            dev.setdefault(scenario, {}).setdefault(kind, []).append((float(d), float(usq)))
        for start in ("low-low", "high-low"):
            (mpc, _), = dev[start]["mpc"]
            require(all(mpc < d for d, _ in dev[start]["onoff"]),
                    f"MPC does not beat every on/off rate on {start}")
        target = self.uncontrolled_high_high()
        for kind, cells in dev["high-high"].items():
            for d, usq in cells:
                require(usq == 0.0, f"{kind} pumps on high-high")
                require(close(d, target), f"{kind} high-high deviation {d!r} != "
                        f"uncontrolled replay {target!r}")
        self._deviation = {
            f"{kind}_deviation": sum(dev[s][kind][0][0] for s in ("low-low", "high-low"))
            for kind in ("mpc", "dp")}

    def deviations(self):
        return self._deviation


class Dp1s(Workload):
    """``stormdp dp solve`` at the default plant step tau = 1 s.

    The storm repeats every PERIOD seconds, so the first PERIOD seconds
    bin into the same three disturbance atoms as the full horizon and a
    PERIOD-stage solve is a short-horizon copy of the full problem.
    """

    N = 2520           # 42 min; the dense V/mu tables dominate the RSS
    PERIOD = 180       # three rain knots
    GRID = 41
    N_ACTIONS = 11
    THETA = -0.1
    LAM = 1e-3

    def __init__(self, seed, work: Path):
        rng = np.random.default_rng(seed)
        cell = np.concatenate([[0.0], rng.uniform(1.0, 6.0, size=2) * MMPH])
        reps = self.N // self.PERIOD + 1
        self.rain = np.tile(cell, reps)[:self.N // int(KNOT_S) + 1]
        self.storm = str(work / "storm.csv")
        write_storm(self.storm, self.rain)
        self.out = str(work / "table.csv")
        self.short_out = str(work / "table_short.csv")
        common = ["--weather", self.storm, "--seed", str(seed)]
        self.argv = ["dp", "solve", "-N", str(self.N), *common, "--out", self.out]
        self.short_argv = ["dp", "solve", "-N", str(self.PERIOD), *common,
                           "--out", self.short_out]
        self.warm_argv = ["dp", "solve", "-N", "20", *common,
                          "--out", str(work / "warm.csv")]
        self.x1_nodes = np.linspace(0.0, ref.CAP1, self.GRID)
        self.x2_nodes = np.linspace(0.0, ref.CAP2, self.GRID)
        self.actions = np.linspace(0.0, 1.0, self.N_ACTIONS)
        self.atoms = ref.quantile_atoms(*resampled(self.rain, self.PERIOD))

    def describe(self):
        succ = ref.successors(self.x1_nodes, self.x2_nodes, self.actions, self.atoms, 1.0)
        return (f"N={self.N} atoms={np.unique(self.atoms[0]).size} "
                f"self_loop_share={ref.self_loop_share(succ):.4f}")

    def ops(self):
        return [("dp solve", lambda: run_cli(self.argv))]

    def final_ops(self):
        return [("dp solve short", lambda: run_cli(self.short_argv))]

    def warmup(self):
        run_cli(self.warm_argv)

    def _table(self, path):
        rows = read_rows(path)
        require(rows[0] == ["x1", "x2", "V0", "mu0"], "table header")
        data = np.array(rows[1:], dtype=float)
        require(data.shape == (self.GRID ** 2, 4), f"table shape {data.shape}")
        require(np.array_equal(data[:, 0], np.repeat(self.x1_nodes, self.GRID))
                and np.array_equal(data[:, 1], np.tile(self.x2_nodes, self.GRID)),
                "table nodes")
        require(np.isin(data[:, 3], self.actions).all(), "mu0 outside the action set")
        return data

    def check(self, label):
        if label == "dp solve short":
            data = self._table(self.short_out)
            require(np.unique(self.atoms[0]).size == 3, "storm gives fewer than 3 atoms")
            V, mu = ref.entropic_dp(self.PERIOD, self.x1_nodes, self.x2_nodes,
                                    self.actions, self.atoms, 1.0, self.THETA, self.LAM)
            require(close(data[:, 2], V), "short-horizon V0 differs from reference DP")
            require(np.array_equal(data[:, 3], self.actions[mu]),
                    "short-horizon policy differs from reference DP")
            return
        data = self._table(self.out)
        V0 = data[:, 2]
        require(np.isfinite(V0).all(), "non-finite V0")
        c_max = float(ref.tracking(self.x2_nodes).max())
        require(np.all(ref.tracking(data[:, 1]) <= V0 * (1 + 1e-12)), "V0 below stage cost")
        require(np.all(V0 <= (self.N + 1) * c_max + self.N * self.LAM), "V0 above bound")


class Mpc1s(Workload):
    """``stormdp simulate --controller mpc`` at tau = 1 s from both wet starts."""

    N = 900
    HORIZON = 10
    STARTS = ("low-low", "high-low")

    def __init__(self, seed, work: Path):
        rng = np.random.default_rng(seed)
        n_knots = math.ceil((self.N + self.HORIZON) / KNOT_S) + 1
        wet = rng.random(n_knots) < 0.6
        self.rain = np.where(wet, rng.uniform(1.0, 8.0, size=n_knots) * MMPH, 0.0)
        self.storm = str(work / "storm.csv")
        write_storm(self.storm, self.rain)
        self.outs = {s: str(work / f"trace_{s}.csv") for s in self.STARTS}
        self.argvs = {s: ["simulate", "--controller", "mpc", "-N", str(self.N),
                          "--start", s, "--weather", self.storm, "--seed", str(seed),
                          "--out", self.outs[s]] for s in self.STARTS}
        self.warm_argv = ["simulate", "--controller", "mpc", "-N", "30",
                          "--weather", self.storm, "--out", str(work / "warm.csv")]
        self.w_r, self.w_e = resampled(self.rain, self.N)
        self._deviation = {}

    def describe(self):
        return f"N={self.N} per start, {len(self.STARTS)} starts, M={self.HORIZON}"

    def ops(self):
        return [(s, lambda s=s: run_cli(self.argvs[s])) for s in self.STARTS]

    def warmup(self):
        run_cli(self.warm_argv)

    def check(self, start):
        rows = read_rows(self.outs[start])
        require(rows[0][:6] == ["t", "x1", "x2", "u", "w_r", "w_e"], "trace header")
        require(len(rows) == self.N + 2, f"{len(rows) - 1} trace rows")
        x1 = np.array([float(r[1]) for r in rows[1:]])
        x2 = np.array([float(r[2]) for r in rows[1:]])
        cols = np.array([r[3:6] for r in rows[1:-1]], dtype=float)
        u, w_r, w_e = cols.T
        require(np.all((u >= 0.0) & (u <= 1.0)), "u outside [0, 1]")
        require((x1[0], x2[0]) == ref.STARTS[start], "trace does not start at the start")
        require(close(w_r, self.w_r, abs_=1e-15) and close(w_e, self.w_e, abs_=1e-15),
                "trace weather differs from the resampled storm")
        x1n, x2n = ref.euler_step(x1[:-1], x2[:-1], u, w_r, w_e, 1.0)
        require(close(x1n, x1[1:], abs_=1e-9) and close(x2n, x2[1:], abs_=1e-9),
                "trace differs from the reference Euler replay")
        self._deviation[start] = ref.deviation(x2)

    def deviations(self):
        return {"mpc_deviation": sum(self._deviation.values())}


class OracleTiny(Workload):
    """``riskdp.solve``, ``brute_force_optimal`` and ``evaluate_policy_W``
    on the 3-node x 2-action x 2-atom, N = 3 instance with seeded costs."""

    N = 3
    TAU = 6000.0

    def __init__(self, seed, work: Path):
        rng = np.random.default_rng(seed)
        self.plant = PlantParams(tau=self.TAU)
        self.x1_nodes = np.array([0.0, 75.0, 150.0])
        self.grid = riskdp.Grid(x1_nodes=self.x1_nodes, x2_nodes=[0.0])
        self.actions = np.array([0.0, 1.0])
        w_r, w_e, p = np.array([0.0, 0.03]), np.array([0.0, 0.0]), np.array([0.6, 0.4])
        self.atoms = (w_r, w_e, p)
        self.dm = riskdp.DisturbanceModel(w_r=w_r, w_e=w_e, p=p)
        self.stage_table = rng.uniform(0.0, 1.0, size=(self.N, 3, 2))
        self.terminal_table = rng.uniform(0.0, 1.0, size=3)
        self.costs = riskdp.CostSpec(stage=self._stage, terminal=self._terminal,
                                     time_varying=True)
        self._reference = {}
        self.outputs = {}

    def _node(self, x1):
        return np.abs(np.asarray(x1, dtype=float)[..., None] - self.x1_nodes).argmin(-1)

    def _stage(self, t, x1, x2, u):
        # the actions are 0 and 1, so u is its own action index
        return self.stage_table[t][self._node(x1), np.asarray(u, dtype=float).astype(int)]

    def _terminal(self, x1, x2):
        return self.terminal_table[self._node(x1)]

    def describe(self):
        return f"N={self.N} nodes=3 actions=2 atoms=2 thetas={THETAS}"

    def _op(self, kind, theta):
        rm = riskdp.RiskParams(theta)
        args = (self.dm, self.costs, self.plant, rm)
        if kind == "solve":
            out = riskdp.solve(self.N, self.grid, self.actions, *args)
        elif kind == "brute_force_optimal":
            out = riskdp.brute_force_optimal(self.N, self.grid, self.actions, *args)
        else:
            out = riskdp.evaluate_policy_W(self.outputs[("solve", theta)][1], *args)
        self.outputs[(kind, theta)] = out

    def ops(self):
        self.outputs = {}
        return [((kind, theta), lambda k=kind, th=theta: self._op(k, th))
                for theta in THETAS
                for kind in ("solve", "brute_force_optimal", "evaluate_policy_W")]

    def warmup(self):
        for _, op in self.ops():
            op()

    def reference(self, theta):
        if theta not in self._reference:
            succ = ref.successors(self.x1_nodes, np.array([0.0]), self.actions,
                                  self.atoms, self.TAU)
            self._reference[theta] = (succ, ref.enumerate_values(
                succ, self.stage_table, self.terminal_table, self.atoms[2], theta))
        return self._reference[theta]

    def check(self, label):
        kind, theta = label
        succ, values = self.reference(theta)
        out = self.outputs[label]
        if kind == "solve":
            require(close(out[0].V[0], values.min(axis=0)), f"solve V0 at theta={theta}")
        elif kind == "brute_force_optimal":
            require(close(out.optimal_values, values.min(axis=0)),
                    f"brute-force optimum at theta={theta}")
            require(close(np.sort(out.policy_values, axis=0), np.sort(values, axis=0)),
                    f"brute-force policy values at theta={theta}")
        else:
            mu = self.outputs[("solve", theta)][1].mu
            W0 = [ref.path_W0(succ, self.stage_table, self.terminal_table,
                              self.atoms[2], mu, -theta / 2.0, s) for s in range(3)]
            require(close(out[0], W0), f"W recursion at theta={theta}")


WORKLOADS = {
    "compare-fast": CompareFast,
    "dp-1s": Dp1s,
    "mpc-1s": Mpc1s,
    "oracle-tiny": OracleTiny,
}
