"""Finite-horizon entropic-risk dynamic programming on a discretized
state/action/disturbance space.

The backward recursion replaces the expectation backup with the entropic
one, psi = (-2/theta) log E[exp((-theta/2) V_next)]. Nearest-node
projection turns the deterministic plant plus finite disturbance atoms
into an exactly finite MDP, held in one table that the solver, policy
evaluation and the brute-force policy enumeration share: the distinct
successor rows (the successor node of each atom), one row index per
(node, action), and the stage costs. Many (node, action) pairs share a
row, so psi is computed once per distinct row.

A row whose atoms all land on one node n is a one-point distribution,
and its psi is V_next[n] itself, under every theta and the plain
expectation alike. Only the other, spread, rows take an exponential:
the expectation is linear in the node-wise vector exp((-theta/2)
V_next), so a stage with spread rows takes one exponential per grid
node, shifted by min V_next. Where that vector would overflow, psi falls
back to a log-sum-exp shifted by each row's maximum. On the preset storm
every row collapses, at ``--fast`` and at tau = 1 s, so a stage there
takes no exponential or logarithm, and theta changes neither V nor the
policy. Policy evaluation runs the same backup with the action fixed
instead of minimized.

Two actions of one node that share a row share psi, and fl(c + psi) is
monotone in c. Under a stage cost that does not depend on t, ``solve``
therefore drops action a wherever a lower-index action of the same node
has the same row and a cost no larger: that action ties a or beats it,
and ties go to the lower index. On the default 41x41 grid with 11
actions, every node keeps action 0 alone at tau = 1 s (1681 pairs); at
``--fast`` 1537 nodes keep one action, 132 two and 12 three.
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
            if not (np.isfinite(nodes).all() and (np.diff(nodes) > 0).all()):
                raise ValueError("breakpoints must be finite and strictly increasing")
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
        Raises if a state lies outside the grid's box by more than 1e-9; a
        NaN state lies outside every box."""
        tol = 1e-9
        x1, x2 = np.asarray(x1), np.asarray(x2)
        if not ((x1 >= self.x1_nodes[0] - tol) & (x1 <= self.x1_nodes[-1] + tol)
                & (x2 >= self.x2_nodes[0] - tol) & (x2 <= self.x2_nodes[-1] + tol)).all():
            raise ValueError("state outside the grid's state box")
        return (_nearest_1d(self.x1_nodes, x1) * self.n2
                + _nearest_1d(self.x2_nodes, x2))


def _nearest_1d(nodes: np.ndarray, x: np.ndarray):
    if nodes.size == 1:
        return np.zeros(x.shape, dtype=int) if x.shape else 0
    # np.searchsorted's and np.clip's values, without their dispatch
    j = np.minimum(np.maximum(nodes.searchsorted(x), 1), nodes.size - 1)
    lower = x - nodes[j - 1]
    upper = nodes[j] - x
    return np.where(lower <= upper, j - 1, j)


def _probabilities(p, shape) -> np.ndarray:
    """``p`` as a float array, checked to be a distribution over outcomes of ``shape``."""
    p = np.asarray(p, dtype=float)
    if p.shape != shape:
        raise ValueError(f"probabilities of shape {p.shape} for outcomes of shape {shape}")
    if not (np.all(np.isfinite(p) & (p >= 0)) and abs(p.sum() - 1.0) <= 1e-12):
        raise ValueError("probabilities must be finite, nonnegative and sum to 1 within 1e-12")
    return p


@dataclass(frozen=True)
class DisturbanceModel:
    """Finite-support disturbance distribution, independent of (x, u)."""

    w_r: np.ndarray
    w_e: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w_r", np.asarray(self.w_r, dtype=float))
        object.__setattr__(self, "w_e", np.asarray(self.w_e, dtype=float))
        if self.w_r.shape != self.w_e.shape:
            raise ValueError("atom arrays must have matching shapes")
        object.__setattr__(self, "p", _probabilities(self.p, self.w_r.shape))
        if np.any(self.p == 0):
            raise ValueError("atom probabilities must be positive")

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
    controller's cost. The DP's node tables and the closed loop's x2
    column both pass arrays, so both square alike."""
    return (x2 / p.a2 - p.z_veg) ** 2


def tracking_cost(p: PlantParams, lam: float = 1e-3) -> CostSpec:
    """Soil-moisture tracking cost shared with the receding-horizon
    controller: the tracking error plus lam * u^2, terminal without the
    control term."""
    def stage(t, x1, x2, u):
        del t
        return tracking_error(x2, p) + lam * u ** 2

    def terminal(x1, x2):
        return tracking_error(x2, p)

    return CostSpec(stage=stage, terminal=terminal)


@dataclass(frozen=True)
class ValueTable:
    """Per-stage values V[t] on grid nodes, t in {0..N}, shape
    (N+1, nnodes); under ``solve(..., keep_values=False)`` only the row
    V[0], shape (1, nnodes)."""

    V: np.ndarray


@dataclass(frozen=True)
class PolicyTable:
    """Per-stage argmin action indices mu[t] on grid nodes, t in {0..N-1}.

    ``solve`` stores them in the smallest unsigned dtype that holds every
    action index (uint8 up to 256 actions); any integer dtype works.
    Where every stage of a ``solve`` takes the same row, as at tau = 1 s
    on the default grid, ``mu`` is that one row broadcast to (N, nnodes):
    a read-only view with stride 0 over t, which reads as the dense
    table does and stores nnodes entries, not N * nnodes.
    """

    mu: np.ndarray  # (N, nnodes) int
    actions: np.ndarray
    grid: Grid

    @property
    def horizon(self) -> int:
        return self.mu.shape[0]


class _Tables:
    """The projected finite MDP, built once: the distinct successor rows
    and, for every (node, action), the index of its row, plus the costs.

    A successor row is the projected successor node of each atom. Many
    (node, action) pairs share one: at tau = 1 s on the default grid
    every successor is a self-loop, so all actions of a node share its
    row. A distinct row is either collapsed, its atoms all on one node
    n, or spread. psi of every distinct row sits in one flat layout,
    which ``row_of`` indexes for every node and action: its first nnodes
    entries hold V_next, so a collapsed row at node n reads entry n, and
    the spread rows follow. ``rows`` holds each spread row once, in
    blocks of nA rows with the last block padded by repeating rows. A
    block has the shape of one node's rows in the dense (nodes, actions,
    atoms) table, so BLAS reduces each row over its atoms by the same
    call as on that table and psi keeps its bits. Every row of the
    preset storm collapses: 1517 at ``--fast`` and 1681 at tau = 1 s, so
    ``rows`` is empty there. ``from_plant`` projects the plant into the
    dense table; only its distinct rows are kept.

    A stage cost that does not depend on t is evaluated once, here; a
    time-varying one is evaluated on each ``stage_cost`` call. ``kept``
    holds a fixed cost on the ``cand`` pairs, shape (nnodes, k), and its
    least and greatest entry over every (node, action); it is None under
    a time-varying cost.

    ``cand`` lists, for every node, the actions that can win the minimum
    of ``_backup``, ascending, padded to a common width k by repeating
    the node's last one, so a pad never wins a tie; ``cand_row`` holds
    their rows. Under a fixed cost, action a is left out where a
    lower-index action of the node has the same row and a cost no
    larger. At tau = 1 s every node keeps action 0 alone (k = 1); at
    ``--fast`` k = 3, with 1537 nodes keeping one action, 132 two and
    12 three. Under a time-varying cost ``cand`` is every action.
    """

    def __init__(self, grid: Grid, actions, dm: DisturbanceModel, costs: CostSpec,
                 succ: np.ndarray):
        self.grid = grid
        self.actions = np.asarray(actions, dtype=float)
        self.dm = dm
        self.costs = costs
        n_actions = self.actions.size
        distinct, row_of = _distinct_rows(np.asarray(succ))
        collapsed = (distinct == distinct[:, :1]).all(axis=1)
        spread = distinct[~collapsed]
        self.rows = np.resize(spread, (-(-spread.shape[0] // n_actions), n_actions,
                                       dm.natoms))
        flat = np.where(collapsed, distinct[:, 0], grid.nnodes + np.cumsum(~collapsed) - 1)
        self.row_of = flat.take(row_of).reshape(grid.nnodes, n_actions)
        self._fixed_cost = self.kept = None
        if costs.time_varying:
            self.cand = np.broadcast_to(np.arange(n_actions), self.row_of.shape)
            self.cand_row = self.row_of
        else:
            cost = self._fixed_cost = self.stage_cost(0)
            self.cand = _undominated(self.row_of, cost)
            self.cand_row = np.take_along_axis(self.row_of, self.cand, axis=1)
            self.kept = (np.take_along_axis(cost, self.cand, axis=1),
                         float(cost.min()), float(cost.max()))

    @classmethod
    def from_plant(cls, grid: Grid, actions, dm: DisturbanceModel, costs: CostSpec,
                   p: PlantParams) -> "_Tables":
        """Tables of the nearest-node successor of one clamped
        ``plant.step`` from every node under every action and atom.

        The dense (nnodes, nA, natoms) table is filled one action at a
        time, one ``plant.step`` per action, so the step's temporaries
        are (nnodes, natoms), not nA times that. The arithmetic is
        elementwise, so each successor has the bits of one broadcast
        step over every action."""
        actions = np.asarray(actions, dtype=float)
        x1, x2 = grid.node_x1[:, None], grid.node_x2[:, None]
        succ = np.empty((grid.nnodes, actions.size, dm.natoms), dtype=np.intp)
        for a, u in enumerate(actions):
            x1n, x2n, _, _ = plant_mod.step(x1, x2, u, dm.w_r, dm.w_e, p)
            succ[:, a] = grid.nearest(np.clip(x1n, grid.x1_nodes[0], grid.x1_nodes[-1]),
                                      np.clip(x2n, grid.x2_nodes[0], grid.x2_nodes[-1]))
        return cls(grid, actions, dm, costs, succ)

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


def _distinct_rows(succ: np.ndarray):
    """The distinct rows of ``succ`` over its last axis, in lexicographic
    order, and the index of each row among them. The sorted copy of the
    rows is the largest temporary, the size of ``succ``."""
    flat = succ.reshape(-1, succ.shape[-1])
    order = np.lexsort(flat.T[::-1])
    ranked = flat[order]
    new = np.ones(order.size, dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    index = np.empty(order.size, dtype=np.intp)
    index[order] = np.cumsum(new) - 1
    return ranked[new], index


def _undominated(row_of: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """The actions of each node that no lower-index action with the same
    row and a cost no larger dominates, ascending, padded to a common
    width by repeating each node's last one. Action 0 is always kept."""
    n_actions = row_of.shape[1]
    dropped = np.zeros(row_of.shape, dtype=bool)
    later = np.arange(n_actions)
    for b in range(n_actions - 1):
        dropped |= ((later > b) & (row_of == row_of[:, b, None])
                    & (cost[:, b, None] <= cost))
    kept = np.count_nonzero(~dropped, axis=1)
    first_kept = np.argsort(dropped, axis=1, kind="stable")[:, :kept.max()]
    pad = np.minimum(np.arange(first_kept.shape[1]), kept[:, None] - 1)
    return np.take_along_axis(first_kept, pad, axis=1)


def _psi(V_succ: np.ndarray, p: np.ndarray, theta: float) -> np.ndarray:
    """Entropic backup of successor values over the last (atom) axis: a
    log-sum-exp shifted by each row's maximum, so no exponential overflows."""
    gamma = -theta / 2.0
    a = gamma * V_succ
    m = a.max(axis=-1)
    return (m + np.log(np.exp(a - m[..., None]) @ p)) / gamma


def _row_psi(V_next, theta, tables: _Tables) -> np.ndarray:
    """psi_t once per distinct successor row, in the flat layout that
    ``row_of`` indexes: V_next, which is psi of every collapsed row,
    then the spread rows of ``tables.rows`` in order. Without spread
    rows it is V_next itself, and takes no exp, log, min or max.

    ``theta=None`` backs up the plain expectation instead of psi. The
    spread rows take one exponential per node, shifted by min V'. Past
    EXP_SHIFT_LIMIT they take the per-row max shift of ``_psi``.
    """
    rows, p = tables.rows, tables.dm.p
    if not rows.size:
        return V_next
    if theta is None:
        spread = (V_next[rows] * p).sum(axis=-1)
    else:
        gamma = -theta / 2.0
        m = V_next.min()
        if gamma * (V_next.max() - m) <= EXP_SHIFT_LIMIT:
            e = np.expm1(gamma * (V_next - m))
            spread = m + np.log1p(e[rows] @ p) / gamma
        else:
            spread = _psi(V_next[rows], p, theta)
    return np.concatenate((V_next, spread.reshape(-1)))


def _q_values(V_next, cost, theta, tables: _Tables):
    """c_t(x,u) + psi_t(x,u) for every node and action, shape (nnodes, nA),
    given the stage cost ``cost`` = c_t on the same shape: the dense
    values that ``_backup`` checks where its bound is not finite."""
    return cost + _row_psi(V_next, theta, tables).take(tables.row_of)


def _backup(V_next, cost, theta, tables: _Tables):
    """V_t and its argmin on every node, given the stage cost ``cost`` =
    c_t from ``stage_cost``, read from the ``cand`` pairs only.

    psi is computed once per distinct row and read at ``cand_row``; the
    argmin runs over the k candidate columns (none when k = 1) and maps
    the winning column back to its action. The result is the argmin
    over every action, ties to the lowest index, bit for bit, because a
    left-out action ties or loses to a kept one of lower index.

    Raises if any (node, action) value, kept or not, fails to be finite.
    The least and greatest cost plus the least and greatest psi bound
    every value; where either sum is not finite, every value is computed
    and checked. A fixed cost's candidate entries and bounds are the ones
    ``tables.kept`` gathered once; a time-varying cost keeps every action.
    """
    kept, c_lo, c_hi = tables.kept or (cost, cost.min(), cost.max())
    with np.errstate(over="ignore", invalid="ignore"):   # reported just below
        psi = _row_psi(V_next, theta, tables)
        q = kept + psi.take(tables.cand_row)
        if not (np.isfinite(c_lo + psi.min()) and np.isfinite(c_hi + psi.max())):
            if not np.all(np.isfinite(_q_values(V_next, cost, theta, tables))):
                raise ArithmeticError("non-finite value in entropic backup")
    if q.shape[1] == 1:
        return q[:, 0], tables.cand[:, 0]
    flat = np.argmin(q, axis=1) + np.arange(0, q.size, q.shape[1])
    return q.take(flat), tables.cand.take(flat)


def solve(N: int, grid: Grid, actions, dm: DisturbanceModel, costs: CostSpec,
          p: PlantParams, rm: RiskParams | None, *, keep_values: bool = True):
    """Backward induction over N stages.

    ``rm=None`` runs the risk-neutral solver (plain expectation backup),
    used as the theta -> 0 limit reference. Returns (ValueTable,
    PolicyTable).

    V_t needs only V_{t+1}, so with ``keep_values=False`` the values
    live in two rows that the stages take in turn (stage t writes row
    t % 2), and the ValueTable holds V[0] alone, shape (1, nnodes), with
    the bits of the full table's row 0.

    The policy is held as one row for as long as every stage solved so
    far takes the row of stage N-1; at tau = 1 s on the default grid
    every stage does, and ``mu`` is that row broadcast to (N, nnodes),
    read-only. The first stage whose row differs (compared by its bytes,
    which costs far less than a stage) allocates the dense table, fills
    the stages after it with the held row, and every earlier stage
    writes its own row, as at ``--fast``.
    """
    if N < 1:
        raise ValueError("horizon N must be at least 1")
    tables = _Tables.from_plant(grid, actions, dm, costs, p)
    theta = None if rm is None else rm.theta
    V = np.empty((N + 1 if keep_values else 2, grid.nnodes))
    dtype = np.min_scalar_type(tables.actions.size - 1)
    n_rows = len(V)
    V[N % n_rows] = tables.terminal_cost()
    mu = held = None
    for t in range(N - 1, -1, -1):
        V[t % n_rows], row = _backup(V[(t + 1) % n_rows], tables.stage_cost(t), theta, tables)
        if mu is not None:
            mu[t] = row
        elif held is None:
            held, held_bytes = row.astype(dtype), row.tobytes()
        elif row.tobytes() != held_bytes:
            mu = np.empty((N, grid.nnodes), dtype=dtype)
            mu[t + 1:] = held
            mu[t] = row
    if mu is None:
        mu = np.broadcast_to(held, (N, grid.nnodes))
    return (ValueTable(V=V if keep_values else V[:1]),
            PolicyTable(mu=mu, actions=tables.actions, grid=grid))


def _policy_values(policy_mu: np.ndarray, theta: float, tables: _Tables,
                   stage_cost: Callable, terminal: np.ndarray) -> np.ndarray:
    """Entropic values V_t of a fixed Markov policy, shape (N+1, nnodes):
    the backup of ``solve`` with the action taken from the policy, c_t
    from ``stage_cost(t)`` and V_N = ``terminal``. Each stage reads c_t
    and psi at the policy's (node, action) pairs only; the add is
    elementwise, so the values have the bits of the dense Q read at
    those pairs."""
    N = policy_mu.shape[0]
    # flat (node, action) index of each stage's pairs, and their rows; an
    # action index out of range raises ValueError
    pair = np.ravel_multi_index((np.arange(tables.grid.nnodes), policy_mu),
                                tables.row_of.shape)
    rows = tables.row_of.take(pair)
    V = np.empty((N + 1, tables.grid.nnodes))
    V[N] = terminal
    for t in range(N - 1, -1, -1):
        V[t] = stage_cost(t).take(pair[t]) + _row_psi(V[t + 1], theta, tables).take(rows[t])
    return V


def evaluate_policy_W(policy: PolicyTable, dm: DisturbanceModel, costs: CostSpec,
                      p: PlantParams, rm: RiskParams) -> np.ndarray:
    """Multiplicative policy evaluation W_t(x) = E[exp(gamma Z_t) | x].

    Computed as exp(gamma V_t) from the policy's entropic values; every
    returned value is strictly positive. Raises ArithmeticError where
    gamma V_t exceeds log(float max), past which W is not representable.
    """
    tables = _Tables.from_plant(policy.grid, policy.actions, dm, costs, p)
    V = _policy_values(policy.mu, rm.theta, tables, tables.stage_cost,
                       tables.terminal_cost())
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
    tables = _Tables.from_plant(grid, actions, dm, costs, p)
    n_actions = tables.actions.size
    n_entries = grid.nnodes * N
    if n_actions ** n_entries > MAX_ENUMERATION:
        raise ValueError("policy enumeration too large for brute force")
    # each stage cost and the terminal cost once for every policy; the
    # enumeration bound keeps N tiny
    stage = {t: tables.stage_cost(t) for t in range(N - 1, -1, -1)}
    terminal = tables.terminal_cost()
    policy_values = np.asarray([
        _policy_values(np.asarray(flat).reshape(N, grid.nnodes), rm.theta, tables,
                       stage.__getitem__, terminal)[0]
        for flat in itertools.product(range(n_actions), repeat=n_entries)])
    return BruteForceResult(optimal_values=policy_values.min(axis=0),
                            policy_values=policy_values)


def risk_functional(Z, probs, theta: float) -> float:
    """Entropic risk (-2/theta) log sum p exp((-theta/2) Z), stabilized.

    ``probs`` is a distribution over ``Z``; zero-probability outcomes add nothing.
    """
    RiskParams(theta)   # refuses theta >= 0
    Z = np.asarray(Z, dtype=float)
    probs = _probabilities(probs, Z.shape)
    kept = probs > 0
    return float(_psi(Z[kept], probs[kept], theta))


def lipschitz_regularize(h, dist, m: float) -> np.ndarray:
    """Inf-convolution h_m(x) = min_y [h(y) + m * dist(x, y)] on nodes.

    Produces an m-Lipschitz minorant of h that increases pointwise in m
    and recovers h once m clears the finite-grid slope threshold.
    """
    if not 0 <= m < np.inf:   # refuses NaN too
        raise ValueError("regularization slope m must be finite and nonnegative")
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
