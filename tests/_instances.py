"""Shared tiny-instance builders and independent oracles for the tests.

The tiny instance is an exactly finite MDP: a handful of grid nodes, two
actions, two disturbance atoms and a short horizon, with lookup-table
costs evaluated at the nearest node. Every quantity the solver produces
on it can be recomputed here by exhaustive enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from stormdp import plant as plant_mod
from stormdp.plant import PlantParams
from stormdp.riskdp import CostSpec, DisturbanceModel, Grid, tracking_cost
from stormdp.sim import ControllerSpec


@dataclass(frozen=True)
class TinyInstance:
    plant: PlantParams
    grid: Grid
    actions: np.ndarray
    dm: DisturbanceModel
    costs: CostSpec
    N: int
    stage_table: np.ndarray      # (N, nnodes, nA)
    terminal_table: np.ndarray   # (nnodes,)


def lookup_cost(grid: Grid, actions, stage_table, terminal_table) -> CostSpec:
    """Cost callables backed by per-(stage, node, action) lookup tables.

    Costs are only ever evaluated at grid-node coordinates and exact
    action values, so a nearest-node / exact-match lookup is total.
    """
    acts = np.asarray(actions, dtype=float)
    stage_table = np.asarray(stage_table, dtype=float)
    terminal_table = np.asarray(terminal_table, dtype=float)

    def stage(t, x1, x2, u):
        i = grid.nearest(x1, x2)
        j = np.searchsorted(acts, np.asarray(u, dtype=float))
        return stage_table[t][i, j]

    def terminal(x1, x2):
        return terminal_table[grid.nearest(x1, x2)]

    return CostSpec(stage=stage, terminal=terminal, time_varying=True)


def oracle_instance(seed: int = 0) -> TinyInstance:
    """The canonical 3-node x 2-action x 2-atom x horizon-3 instance.

    A long step (tau = 6000 s) makes pumping and rain move the cistern
    volume across projection cells, so actions and atoms genuinely
    change the successor node.
    """
    p = PlantParams(tau=6000.0)
    grid = Grid(x1_nodes=[0.0, 75.0, 150.0], x2_nodes=[0.0])
    actions = np.array([0.0, 1.0])
    dm = DisturbanceModel(w_r=[0.0, 0.03], w_e=[0.0, 0.0], p=[0.6, 0.4])
    N = 3
    rng = np.random.default_rng(seed)
    stage_table = rng.uniform(0.0, 1.0, size=(N, grid.nnodes, actions.size))
    terminal_table = rng.uniform(0.0, 1.0, size=grid.nnodes)
    costs = lookup_cost(grid, actions, stage_table, terminal_table)
    return TinyInstance(plant=p, grid=grid, actions=actions, dm=dm, costs=costs,
                        N=N, stage_table=stage_table, terminal_table=terminal_table)


def random_tiny_instance(seed: int) -> TinyInstance:
    """A randomized small instance (random nodes, actions, atoms, costs)."""
    rng = np.random.default_rng(seed)
    p = PlantParams(tau=float(rng.uniform(1000.0, 8000.0)))
    n1 = int(rng.integers(2, 4))
    x1_nodes = np.sort(rng.uniform(0.0, p.cap1, size=n1))
    while np.any(np.diff(x1_nodes) < 1.0):
        x1_nodes = np.sort(rng.uniform(0.0, p.cap1, size=n1))
    grid = Grid(x1_nodes=x1_nodes, x2_nodes=[0.0])
    actions = np.sort(rng.uniform(0.0, 1.0, size=2))
    w_r = np.sort(rng.uniform(0.0, 0.05, size=2))
    pr = rng.uniform(0.1, 0.9)
    dm = DisturbanceModel(w_r=w_r, w_e=[0.0, 0.0], p=[pr, 1.0 - pr])
    N = int(rng.integers(2, 4))
    stage_table = rng.uniform(0.0, 2.0, size=(N, grid.nnodes, actions.size))
    terminal_table = rng.uniform(0.0, 2.0, size=grid.nnodes)
    costs = lookup_cost(grid, actions, stage_table, terminal_table)
    return TinyInstance(plant=p, grid=grid, actions=actions, dm=dm, costs=costs,
                        N=N, stage_table=stage_table, terminal_table=terminal_table)


def successor_node(inst: TinyInstance, node: int, action_idx: int,
                   atom_idx: int) -> int:
    """Projected successor computed step by step, independent of _Tables."""
    g = inst.grid
    x1 = float(g.node_x1[node])
    x2 = float(g.node_x2[node])
    u = float(inst.actions[action_idx])
    x1n, x2n, _, _ = plant_mod.step(x1, x2, u, float(inst.dm.w_r[atom_idx]),
                                    float(inst.dm.w_e[atom_idx]), inst.plant)
    x1n = float(np.clip(x1n, g.x1_nodes[0], g.x1_nodes[-1]))
    x2n = float(np.clip(x2n, g.x2_nodes[0], g.x2_nodes[-1]))
    return int(g.nearest(x1n, x2n))


def path_enumeration_W0(inst: TinyInstance, policy_mu: np.ndarray,
                        theta: float, start: int) -> float:
    """E[e^{gamma Z}] from the start node by exhaustive disturbance paths."""
    gamma = -theta / 2.0
    total = 0.0
    for path in itertools.product(range(inst.dm.natoms), repeat=inst.N):
        node = start
        z = 0.0
        prob = 1.0
        for t, atom in enumerate(path):
            a = int(policy_mu[t, node])
            z += float(inst.stage_table[t, node, a])
            prob *= float(inst.dm.p[atom])
            node = successor_node(inst, node, a, atom)
        z += float(inst.terminal_table[node])
        total += prob * math.exp(gamma * z)
    return total


def path_enumeration_value(inst: TinyInstance, policy_mu: np.ndarray,
                           theta: float, start: int) -> float:
    """Entropic value (-2/theta) log W_0 of a policy from one start node."""
    return (-2.0 / theta) * math.log(path_enumeration_W0(inst, policy_mu,
                                                         theta, start))


def dense_succ(tables) -> np.ndarray:
    """The dense successor table of ``riskdp._Tables``, shape (nnodes, nA,
    natoms): each (node, action)'s row read back from the flat layout,
    whose entry n < nnodes is the collapsed row (n, ..., n) and whose
    later entries are the spread rows of the blocks."""
    natoms = tables.dm.natoms
    collapsed = np.repeat(np.arange(tables.grid.nnodes)[:, None], natoms, axis=1)
    return np.concatenate((collapsed, tables.rows.reshape(-1, natoms)))[tables.row_of]


def dp_spec_inputs(p: PlantParams, w_r, w_e):
    """The grid, actions, disturbance model and cost that ``sim.solve_dp``
    builds for the default DP spec on the weather series (w_r, w_e)."""
    spec = ControllerSpec(kind="dp")
    return (Grid.uniform(*spec.grid_shape, p), np.linspace(0.0, 1.0, spec.n_actions),
            DisturbanceModel.from_series(w_r, w_e, n_atoms=spec.n_atoms),
            tracking_cost(p, lam=spec.lam))


def spread_inputs():
    """``solve``'s instance arguments where successor rows spread: the
    default DP spec at tau = 300 s on a storm repeating 0, 10 and
    40 mm/h, which bins into three atoms. 943 of its distinct rows have
    every atom on one node and 146 do not; at theta = -10 over 720
    stages, gamma (max V' - min V') passes EXP_SHIFT_LIMIT at stages 0
    to 41."""
    rain = np.tile(np.array([0.0, 10.0, 40.0]) * (1e-3 / 3600.0), 60)
    p = PlantParams(tau=300.0)
    return (*dp_spec_inputs(p, rain, np.full(rain.size, 4.0e-5)), p)
