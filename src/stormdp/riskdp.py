"""Finite-horizon entropic-risk dynamic programming on a discretized
state/action/disturbance space.

The backward recursion replaces the expectation backup with the entropic
one, psi = (-2/theta) log E[exp((-theta/2) V_next)]. Under nearest-node
projection the expectation is linear in the node-wise vector
exp((-theta/2) V_next), so each stage takes one exponential per grid
node, shifted by min V_next. Where that vector would overflow, psi falls
back to a log-sum-exp shifted by each row's maximum. Policy evaluation
runs the same backup with the action fixed instead of minimized.
Nearest-node projection turns the deterministic plant plus finite
disturbance atoms into an exactly finite MDP, held in one table of
projected successors and stage costs that the solver, policy evaluation
and the brute-force policy enumeration share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import plant as plant_mod
from .plant import PlantParams

__all__ = [
    "RiskParams",
    "Grid",
    "DisturbanceModel",
    "CostSpec",
    "tracking_error",
    "tracking_cost",
    "ValueTable",
    "PolicyTable",
    "entropic_backup",
    "solve",
    "evaluate_policy_W",
    "BruteForceResult",
    "brute_force_optimal",
    "risk_functional",
    "lipschitz_regularize",
]

MAX_ENUMERATION = 10 ** 6
# Largest gamma * (max V' - min V') for which the per-node exponential is
# taken; exp overflows float64 past log(max float) ~ 709.78.
EXP_SHIFT_LIMIT = 700.0


@dataclass(frozen=True)
class RiskParams:
    """Risk-aversion parameter theta < 0 (units of 1/cost)."""

    theta: float

    def __post_init__(self):
        if not self.theta < 0:
            raise ValueError("theta must be strictly negative")

    @property
    def gamma(self) -> float:
        """Positive exponential-utility coefficient -theta/2."""
        return -self.theta / 2.0


class Grid:
    """Rectangular state grid: sorted breakpoints per tank volume."""

    def __init__(self, x1_nodes, x2_nodes):
        self.x1_nodes = np.asarray(x1_nodes, dtype=float)
        self.x2_nodes = np.asarray(x2_nodes, dtype=float)
        for nodes in (self.x1_nodes, self.x2_nodes):
            if nodes.ndim != 1 or nodes.size < 1:
                raise ValueError("each dimension needs at least one breakpoint")
            if nodes.size > 1 and np.any(np.diff(nodes) <= 0):
                raise ValueError("breakpoints must be strictly increasing")
        self.n1 = self.x1_nodes.size
        self.n2 = self.x2_nodes.size
        self.nnodes = self.n1 * self.n2
        i1, i2 = np.meshgrid(np.arange(self.n1), np.arange(self.n2), indexing="ij")
        self.node_x1 = self.x1_nodes[i1].reshape(-1)
        self.node_x2 = self.x2_nodes[i2].reshape(-1)

    @classmethod
    def uniform(cls, n1: int, n2: int, p: PlantParams) -> "Grid":
        """Uniform grid covering the clamped state box [0,cap1]x[0,cap2]."""
        x1 = np.linspace(0.0, p.cap1, n1) if n1 > 1 else np.array([p.cap1])
        x2 = np.linspace(0.0, p.cap2, n2) if n2 > 1 else np.array([p.cap2])
        return cls(x1, x2)

    def nearest(self, x1, x2):
        """Flat index of the closest node; distance ties go to the lower index.
        Raises if a state lies outside the grid's box by more than 1e-9."""
        tol = 1e-9
        x1, x2 = np.asarray(x1), np.asarray(x2)
        if np.any((x1 < self.x1_nodes[0] - tol) | (x1 > self.x1_nodes[-1] + tol)
                  | (x2 < self.x2_nodes[0] - tol) | (x2 > self.x2_nodes[-1] + tol)):
            raise ValueError("state outside the grid's state box")
        return (_nearest_1d(self.x1_nodes, x1) * self.n2
                + _nearest_1d(self.x2_nodes, x2))


def _nearest_1d(nodes: np.ndarray, x):
    x = np.asarray(x, dtype=float)
    if nodes.size == 1:
        return np.zeros(x.shape, dtype=int) if x.shape else 0
    j = np.clip(np.searchsorted(nodes, x), 1, nodes.size - 1)
    lower = x - nodes[j - 1]
    upper = nodes[j] - x
    return np.where(lower <= upper, j - 1, j)


@dataclass(frozen=True)
class DisturbanceModel:
    """Finite-support disturbance distribution, independent of (x, u)."""

    w_r: np.ndarray
    w_e: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w_r", np.asarray(self.w_r, dtype=float))
        object.__setattr__(self, "w_e", np.asarray(self.w_e, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        if not (self.w_r.shape == self.w_e.shape == self.p.shape):
            raise ValueError("atom arrays must have matching shapes")
        if np.any(self.p <= 0):
            raise ValueError("atom probabilities must be positive")
        if abs(self.p.sum() - 1.0) > 1e-12:
            raise ValueError("atom probabilities must sum to 1")

    @property
    def natoms(self) -> int:
        return self.p.size

    @classmethod
    def from_series(cls, w_r_series, w_e_series, n_atoms: int = 3) -> "DisturbanceModel":
        """Empirical quantile binning of a precipitation series.

        Sorts the rain samples into ``n_atoms`` equal-mass chunks; each
        atom is the chunk mean of (w_r, w_e) with the chunk's mass.
        """
        w_r_series = np.asarray(w_r_series, dtype=float)
        w_e_series = np.asarray(w_e_series, dtype=float)
        if w_r_series.size == 0:
            raise ValueError("empty disturbance series")
        order = np.argsort(w_r_series, kind="stable")
        chunks = np.array_split(order, min(n_atoms, w_r_series.size))
        atoms: dict[tuple[float, float], float] = {}
        n = w_r_series.size
        for chunk in chunks:
            if chunk.size == 0:
                continue
            key = (float(w_r_series[chunk].mean()), float(w_e_series[chunk].mean()))
            atoms[key] = atoms.get(key, 0.0) + chunk.size / n
        w_r = np.array([k[0] for k in atoms])
        w_e = np.array([k[1] for k in atoms])
        p = np.array(list(atoms.values()))
        return cls(w_r=w_r, w_e=w_e, p=p / p.sum())


@dataclass(frozen=True)
class CostSpec:
    """Stage and terminal cost callables, vectorized over node arrays.

    ``stage(t, x1, x2, u)`` and ``terminal(x1, x2)``. Set
    ``time_varying`` when the stage cost actually depends on t so the
    solver re-evaluates it per stage.
    """

    stage: Callable
    terminal: Callable
    time_varying: bool = False


def tracking_error(x2, p: PlantParams):
    """Squared soil-depth error (x2/a2 - z_veg)^2, the state term of every
    controller's cost. Plain arithmetic, so a numpy scalar takes the
    scalar path and an array the array path."""
    return (x2 / p.a2 - p.z_veg) ** 2


def tracking_cost(p: PlantParams, lam: float = 1e-3) -> CostSpec:
    """Soil-moisture tracking cost shared with the receding-horizon
    controller: the tracking error plus lam * u^2, terminal without the
    control term."""
    def stage(t, x1, x2, u):
        del t
        return tracking_error(np.asarray(x2), p) + lam * np.asarray(u) ** 2

    def terminal(x1, x2):
        return tracking_error(np.asarray(x2), p)

    return CostSpec(stage=stage, terminal=terminal)


@dataclass(frozen=True)
class ValueTable:
    """Per-stage values V[t] on grid nodes, t in {0..N}."""

    V: np.ndarray  # (N+1, nnodes)


@dataclass(frozen=True)
class PolicyTable:
    """Per-stage argmin action indices mu[t] on grid nodes, t in {0..N-1}.

    ``solve`` stores them in the smallest unsigned dtype that holds every
    action index (uint8 up to 256 actions); any integer dtype works.
    """

    mu: np.ndarray  # (N, nnodes) int
    actions: np.ndarray
    grid: Grid

    @property
    def horizon(self) -> int:
        return self.mu.shape[0]


class _Tables:
    """The projected finite MDP: the successor of every (node, action,
    atom) and the costs, built once.

    A stage cost that does not depend on t is evaluated once, here; a
    time-varying one is evaluated on each ``stage_cost`` call.
    """

    def __init__(self, grid: Grid, actions, dm: DisturbanceModel, costs: CostSpec,
                 p: PlantParams):
        self.grid = grid
        self.actions = np.asarray(actions, dtype=float)
        self.dm = dm
        self.costs = costs
        x1 = grid.node_x1[:, None, None]
        x2 = grid.node_x2[:, None, None]
        u = self.actions[None, :, None]
        wr = dm.w_r[None, None, :]
        we = dm.w_e[None, None, :]
        x1n, x2n, _, _ = plant_mod.step(x1, x2, u, wr, we, p)
        x1n = np.clip(x1n, grid.x1_nodes[0], grid.x1_nodes[-1])
        x2n = np.clip(x2n, grid.x2_nodes[0], grid.x2_nodes[-1])
        self.succ = grid.nearest(x1n, x2n)
        self._fixed_cost = None
        if not costs.time_varying:
            self._fixed_cost = self.stage_cost(0)

    def stage_cost(self, t: int) -> np.ndarray:
        """c_t(x, u) on every node and action, shape (nnodes, nA)."""
        if self._fixed_cost is not None:
            return self._fixed_cost
        c = self.costs.stage(t, self.grid.node_x1[:, None], self.grid.node_x2[:, None],
                             self.actions[None, :])
        return np.broadcast_to(np.asarray(c, dtype=float),
                               (self.grid.nnodes, self.actions.size))

    def terminal_cost(self) -> np.ndarray:
        """The terminal cost on every node, shape (nnodes,)."""
        return np.asarray(self.costs.terminal(self.grid.node_x1, self.grid.node_x2),
                          dtype=float)


def _logsumexp(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """log sum_k p_k exp(a[..., k]) over the last axis, shifted by the row
    maximum so that no exponential overflows."""
    m = a.max(axis=-1)
    return m + np.log(np.exp(a - m[..., None]) @ p)


def _psi(V_succ: np.ndarray, p: np.ndarray, theta: float) -> np.ndarray:
    """Entropic backup of successor values over the last (atom) axis."""
    gamma = -theta / 2.0
    return _logsumexp(gamma * V_succ, p) / gamma


def entropic_backup(V_next, t: int, rm: RiskParams, grid: Grid, dm: DisturbanceModel,
                    actions, costs: CostSpec, p: PlantParams):
    """One backward step: V_t(x) = min_u [c_t(x,u) + psi_t(x,u)].

    Argmin ties resolve to the smallest action index, a fixed measurable
    selector. Raises if any value fails to be finite.
    """
    tables = _Tables(grid, actions, dm, costs, p)
    return _backup(np.asarray(V_next, dtype=float), tables.stage_cost(t), rm.theta, tables)


def _q_values(V_next, cost, theta, tables: _Tables):
    """c_t(x,u) + psi_t(x,u) for every node and action, shape (nnodes, nA),
    given the stage cost ``cost`` = c_t on the same shape.

    ``theta=None`` backs up the plain expectation instead of psi. psi
    takes one exponential per node, shifted by min V'; expm1/log1p keep
    rows whose atoms share a successor exact. Past EXP_SHIFT_LIMIT it
    takes the per-row max shift of ``_psi``.
    """
    if theta is None:
        psi = (V_next[tables.succ] * tables.dm.p).sum(axis=-1)
    else:
        gamma = -theta / 2.0
        m = V_next.min()
        if gamma * (V_next.max() - m) <= EXP_SHIFT_LIMIT:
            e = np.expm1(gamma * (V_next - m))
            psi = m + np.log1p(e[tables.succ] @ tables.dm.p) / gamma
        else:
            psi = _psi(V_next[tables.succ], tables.dm.p, theta)
    return cost + psi


def _backup(V_next, cost, theta, tables: _Tables):
    v = _q_values(V_next, cost, theta, tables)
    if not np.all(np.isfinite(v)):
        raise ArithmeticError("non-finite value in entropic backup")
    mu = np.argmin(v, axis=1)
    return v[np.arange(v.shape[0]), mu], mu


def solve(N: int, grid: Grid, actions, dm: DisturbanceModel, costs: CostSpec,
          p: PlantParams, rm: RiskParams | None):
    """Backward induction over N stages.

    ``rm=None`` runs the risk-neutral solver (plain expectation backup),
    used as the theta -> 0 limit reference. Returns (ValueTable,
    PolicyTable).
    """
    if N < 1:
        raise ValueError("horizon N must be at least 1")
    tables = _Tables(grid, actions, dm, costs, p)
    theta = None if rm is None else rm.theta
    V = np.empty((N + 1, grid.nnodes))
    mu = np.empty((N, grid.nnodes), dtype=np.min_scalar_type(tables.actions.size - 1))
    V[N] = tables.terminal_cost()
    for t in range(N - 1, -1, -1):
        V[t], mu[t] = _backup(V[t + 1], tables.stage_cost(t), theta, tables)
    return ValueTable(V=V), PolicyTable(mu=mu, actions=tables.actions, grid=grid)


def _policy_values(policy_mu: np.ndarray, theta: float, tables: _Tables,
                   stage_cost: Callable) -> np.ndarray:
    """Entropic values V_t of a fixed Markov policy, shape (N+1, nnodes):
    the backup of ``solve`` with the action taken from the policy and
    c_t from ``stage_cost(t)``."""
    N = policy_mu.shape[0]
    rows = np.arange(tables.grid.nnodes)
    V = np.empty((N + 1, tables.grid.nnodes))
    V[N] = tables.terminal_cost()
    for t in range(N - 1, -1, -1):
        V[t] = _q_values(V[t + 1], stage_cost(t), theta, tables)[rows, policy_mu[t]]
    return V


def evaluate_policy_W(policy: PolicyTable, dm: DisturbanceModel, costs: CostSpec,
                      p: PlantParams, rm: RiskParams) -> np.ndarray:
    """Multiplicative policy evaluation W_t(x) = E[exp(gamma Z_t) | x].

    Computed as exp(gamma V_t) from the policy's entropic values; every
    returned value is strictly positive. Raises ArithmeticError where
    gamma V_t exceeds log(float max), past which W is not representable.
    """
    tables = _Tables(policy.grid, policy.actions, dm, costs, p)
    V = _policy_values(policy.mu, rm.theta, tables, tables.stage_cost)
    top, limit = rm.gamma * V.max(), np.log(np.finfo(float).max)
    if top > limit:
        raise ArithmeticError(f"policy evaluation overflows: gamma * max V = {top:.6g} "
                              f"exceeds log(float max) = {limit:.6g}")
    W = np.exp(rm.gamma * V)
    if not np.all(np.isfinite(W)) or np.any(W <= 0.0):
        raise ArithmeticError("policy evaluation left the positive finite range")
    return W


@dataclass(frozen=True)
class BruteForceResult:
    optimal_values: np.ndarray   # (nnodes,) min over all Markov policies
    policy_values: np.ndarray    # (npolicies, nnodes) entropic value of each policy


def brute_force_optimal(N: int, grid: Grid, actions, dm: DisturbanceModel,
                        costs: CostSpec, p: PlantParams,
                        rm: RiskParams) -> BruteForceResult:
    """Enumerate every Markov policy on the projected finite MDP and
    minimize the entropic risk (-2/theta) log W_0 per start node."""
    tables = _Tables(grid, actions, dm, costs, p)
    n_actions = tables.actions.size
    n_entries = grid.nnodes * N
    if n_actions ** n_entries > MAX_ENUMERATION:
        raise ValueError("policy enumeration too large for brute force")
    # each stage cost once for every policy; the enumeration bound keeps N tiny
    stage = {t: tables.stage_cost(t) for t in range(N - 1, -1, -1)}
    policy_values = np.asarray([
        _policy_values(np.asarray(flat).reshape(N, grid.nnodes), rm.theta, tables,
                       stage.__getitem__)[0]
        for flat in itertools.product(range(n_actions), repeat=n_entries)])
    return BruteForceResult(optimal_values=policy_values.min(axis=0),
                            policy_values=policy_values)


def risk_functional(Z, probs, theta: float) -> float:
    """Entropic risk (-2/theta) log sum p exp((-theta/2) Z), stabilized.

    Outcomes with zero probability contribute nothing, whatever their value.
    """
    if not theta < 0:
        raise ValueError("theta must be strictly negative")
    Z = np.asarray(Z, dtype=float)
    probs = np.asarray(probs, dtype=float)
    kept = probs > 0
    return float(_psi(Z[kept], probs[kept], theta))


def lipschitz_regularize(h, dist, m: float) -> np.ndarray:
    """Inf-convolution h_m(x) = min_y [h(y) + m * dist(x, y)] on nodes.

    Produces an m-Lipschitz minorant of h that increases pointwise in m
    and recovers h once m clears the finite-grid slope threshold.
    """
    if m < 0:
        raise ValueError("regularization slope m must be nonnegative")
    h = np.asarray(h, dtype=float)
    dist = np.asarray(dist, dtype=float)
    n = h.size
    if dist.shape != (n, n):
        raise ValueError("distance matrix shape must match the node count")
    if np.any(np.abs(np.diagonal(dist)) > 0) or not np.allclose(dist, dist.T):
        raise ValueError("distance matrix must be symmetric with zero diagonal")
    rng = np.random.default_rng(0)
    for _ in range(min(50, n * n)):
        i, j, k = rng.integers(0, n, size=3)
        if dist[i, j] > dist[i, k] + dist[k, j] + 1e-12:
            raise ValueError("distance matrix violates the triangle inequality")
    return (h[None, :] + m * dist).min(axis=1)
