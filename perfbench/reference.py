"""Reference computations the benchmark checks the program against.

Everything here is written from the plant's parameter table and the
method's definitions, without calling into ``stormdp``: the exact flow
laws and their clamped Euler step, nearest-node projection on a uniform
grid, a plain entropic backward induction, and exhaustive path
enumeration for the tiny oracle instance.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Parameter table of the green-roof site (SI units).
A1 = 25.0
A2 = 68.8
A_PUMP = 0.01 * math.pi
A_IN = 0.305 ** 2 * math.pi
A_HAT = -5.78e5
C_HAT = 55.2
C_D = 0.61
D_ROOF = 16.0
D_PIPE = 0.2
F_PIPE = 3.56
G = 9.81
K_SAT = 7.83e-8
K_L = 0.6
L_PIPE = 18.4
R_O = 0.125
Z_H = 0.6
Z_O = 3.0
Z_PUMP = 0.15
Z_SOIL = 0.5
Z_VEG = 4.57e-2

Z_CAP = A2 * Z_SOIL            # soil capacity, as a volume (m^3)
CAP1 = 2.0 * A1 * Z_O          # tank-1 clamp (m^3)
CAP2 = A2 * Z_SOIL             # tank-2 clamp (m^3)
X2_TARGET = A2 * Z_VEG
B_PUMP = ((F_PIPE * L_PIPE / D_PIPE + K_L) / (2.0 * G * A_PUMP ** 2) - A_HAT) ** -0.5
C_OUT = C_D * math.pi * R_O ** 2 * math.sqrt(2.0 * G)

STARTS = {
    "low-low": (A1 * Z_O / 1.3, A2 * Z_VEG / 1.3),
    "high-low": (A1 * Z_O * 1.3, A2 * Z_VEG / 1.3),
    "high-high": (A1 * Z_O * 1.3, A2 * Z_VEG * 1.3),
}


def rhs(x1, x2, u, w_r, w_e):
    """Exact mass balance (m^3/s); scalars or broadcastable arrays."""
    x1, x2, u, w_r, w_e = (np.asarray(v, dtype=float) for v in (x1, x2, u, w_r, w_e))
    head = x1 / A1 - Z_O
    q_out = np.where(head > 0.0, C_OUT * np.sqrt(np.maximum(head, 0.0)), 0.0)
    pump_off = (x2 / A2 >= Z_VEG) | (x1 / A1 < Z_PUMP + Z_H)
    q_pump = np.where(pump_off, 0.0, u * B_PUMP * np.sqrt(x1 / A1 + C_HAT - D_ROOF))
    q_drain = np.where(x2 < Z_CAP, 0.0, K_SAT * A2 * (x2 / A2 + Z_SOIL) / Z_SOIL)
    return w_r * A_IN - q_out - q_pump, w_r * A2 + q_pump - w_e - q_drain


def euler_step(x1, x2, u, w_r, w_e, tau):
    """Forward-Euler step of length tau, clamped to each tank's box."""
    f1, f2 = rhs(x1, x2, u, w_r, w_e)
    return (np.clip(np.asarray(x1, dtype=float) + tau * f1, 0.0, CAP1),
            np.clip(np.asarray(x2, dtype=float) + tau * f2, 0.0, CAP2))


def tracking(x2):
    return (np.asarray(x2, dtype=float) / A2 - Z_VEG) ** 2


def replay(x0, u, w_r, w_e, tau):
    """States of the exact plant driven by a given control sequence."""
    x1 = np.empty(len(u) + 1)
    x2 = np.empty(len(u) + 1)
    x1[0], x2[0] = x0
    for t in range(len(u)):
        x1[t + 1], x2[t + 1] = euler_step(x1[t], x2[t], u[t], w_r[t], w_e[t], tau)
    return x1, x2


def deviation(x2) -> float:
    """Cumulative deviation sum |x2 - a2 z_veg| (m^3 * steps)."""
    return float(np.abs(np.asarray(x2) - X2_TARGET).sum())


def quantile_atoms(w_r, w_e, n_atoms=3):
    """Equal-mass chunks of the sorted rain series -> (w_r, w_e, p) atoms."""
    order = np.argsort(w_r, kind="stable")
    chunks = np.array_split(order, n_atoms)
    return (np.array([w_r[c].mean() for c in chunks]),
            np.array([w_e[c].mean() for c in chunks]),
            np.array([c.size / order.size for c in chunks]))


def _nearest(nodes, x):
    """Index of the closest sorted breakpoint; ties go to the lower index."""
    x = np.asarray(x, dtype=float)
    if nodes.size == 1:
        return np.zeros(x.shape, dtype=int)
    j = np.clip(np.searchsorted(nodes, x), 1, nodes.size - 1)
    return np.where(x - nodes[j - 1] <= nodes[j] - x, j - 1, j)


def successors(x1_nodes, x2_nodes, actions, atoms, tau):
    """Flat nearest-node successor of every (node, action, atom)."""
    w_r, w_e, _ = atoms
    x1 = np.repeat(x1_nodes, x2_nodes.size)[:, None, None]
    x2 = np.tile(x2_nodes, x1_nodes.size)[:, None, None]
    x1n, x2n = euler_step(x1, x2, np.asarray(actions)[None, :, None],
                          w_r[None, None, :], w_e[None, None, :], tau)
    return _nearest(x1_nodes, x1n) * x2_nodes.size + _nearest(x2_nodes, x2n)


def self_loop_share(succ) -> float:
    return float((succ == np.arange(succ.shape[0])[:, None, None]).mean())


def entropic_dp(N, x1_nodes, x2_nodes, actions, atoms, tau, theta, lam):
    """Stage-0 values and argmin action indices of the entropic DP with
    tracking cost (x2/a2 - z_veg)^2 + lam u^2."""
    succ = successors(x1_nodes, x2_nodes, actions, atoms, tau)
    p = atoms[2]
    gamma = -theta / 2.0
    state_cost = tracking(np.tile(x2_nodes, x1_nodes.size))
    stage = state_cost[:, None] + lam * np.asarray(actions)[None, :] ** 2
    V = state_cost.copy()
    mu = None
    for _ in range(N):
        z = gamma * V[succ]
        top = z.max(axis=-1, keepdims=True)
        psi = (top[..., 0] + np.log((np.exp(z - top) * p).sum(axis=-1))) / gamma
        q = stage + psi
        mu = q.argmin(axis=1)
        V = q[np.arange(q.shape[0]), mu]
    return V, mu


def path_W0(succ, stage_table, terminal_table, p, policy, gamma, start):
    """E[exp(gamma Z)] from ``start`` over every disturbance path."""
    N = stage_table.shape[0]
    total = 0.0
    for path in itertools.product(range(p.size), repeat=N):
        node, z, prob = start, 0.0, 1.0
        for t, atom in enumerate(path):
            a = policy[t][node]
            z += stage_table[t, node, a]
            prob *= p[atom]
            node = succ[node, a, atom]
        total += prob * math.exp(gamma * (z + terminal_table[node]))
    return total


def enumerate_values(succ, stage_table, terminal_table, p, theta):
    """Entropic value of every Markov policy from every start node,
    shape (policies, nodes)."""
    N, nnodes, n_actions = stage_table.shape
    gamma = -theta / 2.0
    rows = []
    for flat in itertools.product(range(n_actions), repeat=N * nnodes):
        policy = [flat[t * nnodes:(t + 1) * nnodes] for t in range(N)]
        rows.append([math.log(path_W0(succ, stage_table, terminal_table, p,
                                      policy, gamma, s)) / gamma
                     for s in range(nnodes)])
    return np.asarray(rows)


_KERNEL_NODES = np.linspace(0.0, CAP1, 41), np.linspace(0.0, CAP2, 41)
_KERNEL_ATOMS = (np.array([0.0, 4e-7, 1e-6]), np.full(3, 4e-5), np.full(3, 1 / 3))


def speed_kernel():
    """Fixed work of the program's two kinds, timed to follow the
    machine's speed: twelve entropic DP stages on the 41x41 grid (numpy
    over arrays) and a 600-step scalar Euler replay (numpy on scalars)."""
    entropic_dp(12, *_KERNEL_NODES, np.linspace(0.0, 1.0, 11), _KERNEL_ATOMS,
                60.0, -0.1, 1e-3)
    replay((50.0, 2.0), np.full(600, 0.3), np.full(600, 5e-7), np.full(600, 4e-5), 60.0)
