"""The distinct-row successor table of the entropic DP.

``riskdp._Tables`` keeps each distinct successor row once and backs it
up once per stage, a row whose atoms share one node n as V'[n] itself,
and under a fixed cost ``solve`` backs up only the (node, action) pairs
that no lower-index action dominates. These tests hold all three to the
bits of the dense backup, which backs up every (node, action, atom)
successor of the dense table, takes V'[n] for a row whose atoms share
node n, and takes the argmin over every action, and count the rows and
the kept actions of three instances by hand.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _instances import dense_succ, dp_spec_inputs, oracle_instance, spread_inputs
from stormdp import plant, riskdp
from stormdp.plant import PlantParams
from stormdp.riskdp import (
    CostSpec,
    DisturbanceModel,
    Grid,
    RiskParams,
    brute_force_optimal,
    evaluate_policy_W,
    solve,
)
from stormdp.sim import wet_12h


def full_gather_q_values(V_next, cost, theta, succ, p):
    """The full-gather kernel: c + psi over the dense (nodes, actions,
    atoms) successor table ``succ``, one gather per successor, except
    that psi of a row whose atoms all share one node n is V_next[n]."""
    if theta is None:
        psi = (V_next[succ] * p).sum(axis=-1)
    else:
        gamma = -theta / 2.0
        m = V_next.min()
        if gamma * (V_next.max() - m) <= riskdp.EXP_SHIFT_LIMIT:
            e = np.expm1(gamma * (V_next - m))
            psi = m + np.log1p(e[succ] @ p) / gamma
        else:
            psi = riskdp._psi(V_next[succ], p, theta)
    collapsed = (succ == succ[..., :1]).all(axis=-1)
    return cost + np.where(collapsed, V_next[succ[..., 0]], psi)


def _full_gather(V_next, cost, theta, tables):
    return full_gather_q_values(V_next, cost, theta, dense_succ(tables), tables.dm.p)


def dense_backup(V_next, cost, theta, tables):
    """The dense backup: full-gather Q over every (node, action), then the
    argmin, ties to the lowest index, and its value."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = _full_gather(V_next, cost, theta, tables)
    if not np.all(np.isfinite(q)):
        raise ArithmeticError("non-finite value in entropic backup")
    mu = np.argmin(q, axis=1)
    return q[np.arange(q.shape[0]), mu], mu


def dense_solve(N, theta, tables):
    """Backward induction by ``dense_backup``: (V, mu) of shapes
    (N+1, nnodes) and (N, nnodes)."""
    V = np.empty((N + 1, tables.grid.nnodes))
    mu = np.empty((N, tables.grid.nnodes), dtype=int)
    V[N] = tables.terminal_cost()
    for t in range(N - 1, -1, -1):
        V[t], mu[t] = dense_backup(V[t + 1], tables.stage_cost(t), theta, tables)
    return V, mu


def dense_policy_values(policy_mu, theta, tables, stage_cost, terminal):
    """Entropic values of a fixed policy by the full-gather Q over every
    (node, action), read at the policy's action of each node."""
    N = policy_mu.shape[0]
    nodes = np.arange(tables.grid.nnodes)
    V = np.empty((N + 1, tables.grid.nnodes))
    V[N] = terminal
    for t in range(N - 1, -1, -1):
        V[t] = _full_gather(V[t + 1], stage_cost(t), theta, tables)[nodes, policy_mu[t]]
    return V


def undominated(row_of, cost):
    """Per node, the actions that no lower-index action with the same row
    and a cost no larger dominates, by loops."""
    return [[a for a in range(len(rows))
             if not any(rows[b] == rows[a] and costs[b] <= costs[a] for b in range(a))]
            for rows, costs in zip(row_of.tolist(), cost.tolist())]


def _random_rows(rng, shape, pool):
    """A successor table of ``shape`` (nodes, actions, atoms) in which about
    half the actions of each node draw their row from ``pool`` rows of
    that node, so that actions of one node share rows."""
    n_nodes, n_actions, n_atoms = shape
    succ = rng.integers(0, n_nodes, size=shape)
    pooled = rng.integers(0, n_nodes, size=(n_nodes, pool, n_atoms))[
        np.arange(n_nodes)[:, None], rng.integers(0, pool, size=(n_nodes, n_actions))]
    return np.where(rng.random((n_nodes, n_actions, 1)) < 0.5, pooled, succ)


def _fixed_cost(kind, rng, n_nodes, n_actions):
    """A (nodes, actions) stage cost: a node term plus lam u^2 with lam of
    either sign, the same value everywhere, uniform draws, or draws from
    two values, which tie often."""
    u = np.linspace(0.0, 1.0, n_actions)
    node = rng.uniform(0.0, 1.0, size=(n_nodes, 1))
    if kind == "increasing":
        return node + rng.uniform(1e-6, 1.0) * u ** 2
    if kind == "decreasing":
        return node - rng.uniform(1e-6, 1.0) * u ** 2
    if kind == "constant":
        return np.full((n_nodes, n_actions), rng.uniform(0.0, 1.0))
    if kind == "random":
        return rng.uniform(0.0, 1.0, size=(n_nodes, n_actions))
    return node + 0.5 * rng.integers(0, 2, size=(n_nodes, n_actions))


# theta and the range of gamma * (max V' - min V') that selects each kernel
# branch; for the expectation (theta=None) it is the range of V' itself
KERNELS = {"expectation": (None, (0.0, 1.0)), "per-node": (-0.7, (0.0, 699.0)),
           "row-shift": (-10.0, (701.0, 3000.0))}


class TestFullGatherBits:
    """Q-values and the recursions built on them keep their bits."""

    @given(seed=st.integers(0, 2 ** 32 - 1), kernel=st.sampled_from(sorted(KERNELS)),
           spread=st.floats(0.0, 1.0), time_varying=st.booleans(), pool=st.integers(1, 4),
           shape=st.tuples(st.integers(2, 8), st.integers(1, 5), st.integers(1, 7)))
    @settings(max_examples=150, deadline=None)
    def test_q_values(self, seed, kernel, spread, time_varying, pool, shape):
        # from 8 atoms on, BLAS rounds a row by its place in the (nA, natoms)
        # product, which the blocks do not keep; the bits hold up to 7 atoms
        n_nodes, n_actions, n_atoms = shape
        rng = np.random.default_rng(seed)
        succ = rng.integers(0, n_nodes, size=shape)
        # force duplicate rows: about half the (node, action) pairs draw
        # their row from a small pool
        shared = rng.random((n_nodes, n_actions)) < 0.5
        succ[shared] = rng.integers(0, n_nodes, size=(pool, n_atoms))[
            rng.integers(0, pool, size=int(shared.sum()))]
        # zero on about half the pairs, where a last-place change in psi shows
        base = rng.uniform(0.0, 1.0, size=(n_nodes, n_actions)) * (
            rng.random((n_nodes, n_actions)) < 0.5)
        costs = CostSpec(stage=lambda t, x1, x2, u: base * (1.0 + t), terminal=None,
                         time_varying=time_varying)
        dm = DisturbanceModel(w_r=np.zeros(n_atoms), w_e=np.zeros(n_atoms),
                              p=rng.dirichlet(np.ones(n_atoms)))
        grid = Grid(np.linspace(0.0, 1.0, n_nodes), [0.0])
        tables = riskdp._Tables(grid, np.linspace(0.0, 1.0, n_actions), dm, costs, succ)
        assert np.array_equal(dense_succ(tables), succ)
        theta, (lo, hi) = KERNELS[kernel]
        gamma = 1.0 if theta is None else -theta / 2.0
        u = rng.uniform(0.0, 1.0, n_nodes)
        u[:2] = 0.0, 1.0
        # a log-uniform span, so that small sums, whose last place
        # survives the log, come up often
        V = (lo + (hi - lo) * 1e-4 ** spread) / gamma * u
        if theta is not None:
            assert (gamma * np.ptp(V) > riskdp.EXP_SHIFT_LIMIT) == (kernel == "row-shift")
        for t in range(3):
            cost = tables.stage_cost(t)
            q = riskdp._q_values(V, cost, theta, tables)
            assert np.array_equal(q, full_gather_q_values(V, cost, theta, succ, dm.p))

    @given(seed=st.integers(0, 2 ** 32 - 1), kernel=st.sampled_from(sorted(KERNELS)),
           spread=st.floats(0.0, 1.0), pool=st.integers(1, 3), time_varying=st.booleans(),
           cost_kind=st.sampled_from(["constant", "decreasing", "increasing", "random",
                                      "tied"]),
           shape=st.tuples(st.integers(1, 8), st.integers(1, 6), st.integers(1, 4)))
    @settings(max_examples=150, deadline=None)
    def test_backup(self, seed, kernel, spread, pool, time_varying, cost_kind, shape):
        # the backup over the kept pairs against the dense one, for every
        # kernel, on tables whose actions share rows within a node
        n_nodes, n_actions, n_atoms = shape
        rng = np.random.default_rng(seed)
        cost = _fixed_cost(cost_kind, rng, n_nodes, n_actions)
        costs = CostSpec(stage=lambda t, x1, x2, u: cost * (1.0 + t), terminal=None,
                         time_varying=time_varying)
        dm = DisturbanceModel(w_r=np.zeros(n_atoms), w_e=np.zeros(n_atoms),
                              p=rng.dirichlet(np.ones(n_atoms)))
        grid = Grid(np.linspace(0.0, 1.0, n_nodes), [0.0])
        tables = riskdp._Tables(grid, np.linspace(0.0, 1.0, n_actions), dm, costs,
                                _random_rows(rng, shape, pool))
        kept = (undominated(tables.row_of, cost) if not time_varying
                else [list(range(n_actions))] * n_nodes)
        width = max(map(len, kept))
        assert tables.cand.tolist() == [a + a[-1:] * (width - len(a)) for a in kept]
        assert np.array_equal(tables.cand_row,
                              np.take_along_axis(tables.row_of, tables.cand, axis=1))
        theta, (lo, hi) = KERNELS[kernel]
        gamma = 1.0 if theta is None else -theta / 2.0
        span = (lo + (hi - lo) * 1e-4 ** spread) / gamma
        V = span * rng.uniform(0.0, 1.0, n_nodes)
        V[0], V[-1] = 0.0, span
        for t in range(2):
            c_t = tables.stage_cost(t)
            ours = riskdp._backup(V, c_t, theta, tables)
            ref = dense_backup(V, c_t, theta, tables)
            assert np.array_equal(ours[0], ref[0])
            assert np.array_equal(ours[1], ref[1])

    @staticmethod
    def _both(monkeypatch, run):
        """``run()`` as the code runs it, then with policy evaluation by
        the full-gather Q over every (node, action)."""
        ours = run()
        monkeypatch.setattr(riskdp, "_policy_values", dense_policy_values)
        return ours, run()

    @pytest.mark.parametrize("theta", [None, -1.5, -1000.0])
    @pytest.mark.parametrize("time_varying", [False, True])
    def test_solve(self, theta, time_varying):
        inst = oracle_instance()
        costs = CostSpec(inst.costs.stage, inst.costs.terminal, time_varying)
        rm = None if theta is None else RiskParams(theta)
        values, policy = solve(inst.N, inst.grid, inst.actions, inst.dm, costs, inst.plant, rm)
        tables = riskdp._Tables.from_plant(inst.grid, inst.actions, inst.dm, costs, inst.plant)
        V, mu = dense_solve(inst.N, theta, tables)
        assert np.array_equal(values.V, V)
        assert np.array_equal(policy.mu, mu)

    @pytest.mark.parametrize("theta", [None, -0.1, -10.0])
    def test_solve_fast_instance(self, theta):
        # 41 x 41 nodes at tau = 60 s, where nodes keep up to three actions
        p = PlantParams(tau=60.0)
        weather = wet_12h(dt=60.0)
        tables = _plant_tables(p, weather.w_r[:720], weather.w_e[:720])
        rm = None if theta is None else RiskParams(theta)
        values, policy = solve(40, tables.grid, tables.actions, tables.dm, tables.costs, p, rm)
        V, mu = dense_solve(40, theta, tables)
        assert np.array_equal(values.V, V)
        assert np.array_equal(policy.mu, mu)

    @pytest.mark.parametrize("theta", [None, -0.1, -10.0])
    def test_solve_spread_instance(self, theta):
        # 146 spread rows beside 943 collapsed ones; at theta = -10 the
        # spread rows take the row-shift fallback on stages 0 to 41
        args = spread_inputs()
        tables = riskdp._Tables.from_plant(*args)
        assert tables.rows.size
        rm = None if theta is None else RiskParams(theta)
        with mock.patch.object(riskdp, "_psi", wraps=riskdp._psi) as row_shift:
            values, policy = solve(720, *args, rm)
        assert row_shift.call_count == (42 if theta == -10.0 else 0)
        V, mu = dense_solve(720, theta, tables)
        assert np.array_equal(values.V, V)
        assert np.array_equal(policy.mu, mu)

    @pytest.mark.parametrize("theta", [-0.3, -1.5])
    def test_evaluate_policy_W(self, monkeypatch, theta):
        inst = oracle_instance()
        rm = RiskParams(theta)
        _, policy = solve(inst.N, inst.grid, inst.actions, inst.dm, inst.costs,
                          inst.plant, rm)
        ours, ref = self._both(monkeypatch, lambda: evaluate_policy_W(
            policy, inst.dm, inst.costs, inst.plant, rm))
        assert np.array_equal(ours, ref)

    @pytest.mark.parametrize("time_varying", [False, True])
    def test_evaluate_policy_W_fast_instance(self, monkeypatch, time_varying):
        # 40 stages on the --fast tables, whose fixed cost is one array
        # and whose time-varying cost is evaluated per stage
        p = PlantParams(tau=60.0)
        weather = wet_12h(dt=60.0)
        grid, actions, dm, costs = dp_spec_inputs(p, weather.w_r[:720], weather.w_e[:720])
        costs = CostSpec(costs.stage, costs.terminal, time_varying)
        rm = RiskParams(-0.1)
        _, policy = solve(40, grid, actions, dm, costs, p, rm)
        ours, ref = self._both(monkeypatch, lambda: evaluate_policy_W(policy, dm, costs, p, rm))
        assert np.array_equal(ours, ref)

    @pytest.mark.parametrize("theta", [-1.5, -1000.0])
    def test_brute_force_optimal(self, monkeypatch, theta):
        inst = oracle_instance()
        ours, ref = self._both(monkeypatch, lambda: brute_force_optimal(
            inst.N, inst.grid, inst.actions, inst.dm, inst.costs, inst.plant,
            RiskParams(theta)))
        assert np.array_equal(ours.policy_values, ref.policy_values)
        assert np.array_equal(ours.optimal_values, ref.optimal_values)


def _plant_tables(p, w_r, w_e):
    """The tables ``solve_dp`` builds for the default DP spec on the
    weather series (w_r, w_e)."""
    return riskdp._Tables.from_plant(*dp_spec_inputs(p, w_r, w_e), p)


def _one_second_inputs():
    """``solve``'s instance arguments at tau = 1 s on a storm repeating
    three rain levels, which bins into three atoms: the default grid,
    actions, atoms, cost and plant."""
    rain = np.tile([0.0, 2.0e-3 / 3600.0, 5.0e-3 / 3600.0], 60)
    p = PlantParams(tau=1.0)
    return (*dp_spec_inputs(p, rain, np.full(rain.size, 4.0e-5)), p)


def _fast_inputs():
    """``solve``'s instance arguments at ``--fast``: tau = 60 s on the
    first 720 samples of the preset storm."""
    p = PlantParams(tau=60.0)
    weather = wet_12h(dt=60.0)
    return (*dp_spec_inputs(p, weather.w_r[:720], weather.w_e[:720]), p)


class TestNonFiniteGuard:
    """The backup raises where any (node, action) value is not finite,
    kept or left out, as the dense backup does."""

    @staticmethod
    def _solve(stage_cost, V_terminal, theta):
        # one self-looping node, so both actions share its row
        p = PlantParams(tau=1.0)
        costs = CostSpec(stage=lambda t, x1, x2, u: np.broadcast_to(stage_cost, (x1.size, 2)),
                         terminal=lambda x1, x2: np.asarray(V_terminal, dtype=float))
        dm = DisturbanceModel(w_r=np.zeros(2), w_e=np.zeros(2), p=[0.5, 0.5])
        grid = Grid.uniform(1, 1, p)
        rm = None if theta is None else RiskParams(theta)
        return solve(1, grid, [0.0, 1.0], dm, costs, p, rm)

    @pytest.mark.parametrize("theta", [None, -0.1])
    @pytest.mark.parametrize("stage_cost, V_terminal", [
        ([0.0, 1e308], [1.7e308]),          # only the left-out action overflows
        ([0.0, np.inf], [0.0]),             # the left-out action costs inf
        ([0.0, np.nan], [0.0]),
        ([0.0, 0.0], [np.inf]),
    ], ids=["dominated-overflow", "dominated-inf", "nan", "inf-psi"])
    def test_raises(self, stage_cost, V_terminal, theta):
        with pytest.raises(ArithmeticError, match="non-finite value in entropic backup"):
            self._solve(np.array([stage_cost]), V_terminal, theta)

    @pytest.mark.parametrize("theta", [None, -0.1])
    def test_loose_bound_checks_every_value(self, theta):
        # the greatest cost and the greatest psi sit on different nodes:
        # their sum overflows, every value does not
        p = PlantParams(tau=1.0)
        cost = np.array([[0.0, 1e308], [0.0, 0.0]])
        costs = CostSpec(stage=lambda t, x1, x2, u: cost,
                         terminal=lambda x1, x2: np.array([0.0, 1.7e308]))
        dm = DisturbanceModel(w_r=np.zeros(1), w_e=np.zeros(1), p=[1.0])
        grid = Grid([0.0, 1.0], [0.0])
        tables = riskdp._Tables(grid, [0.0, 1.0], dm, costs, np.array([[[0], [0]], [[1], [1]]]))
        assert tables.cand.tolist() == [[0], [0]]
        V, mu = riskdp._backup(tables.terminal_cost(), cost, theta, tables)
        ref = dense_backup(tables.terminal_cost(), cost, theta, tables)
        assert np.array_equal(V, ref[0])
        assert np.array_equal(mu, ref[1])


class TestCollapsedRows:
    """psi of a row whose atoms all share one node n is V'[n], bit for
    bit, under every kernel the spread rows of its table take."""

    @given(seed=st.integers(0, 2 ** 32 - 1), theta=st.sampled_from([None, -0.7, -10.0]),
           top=st.floats(1e-3, 1.7e308), shape=st.tuples(st.integers(1, 8), st.integers(1, 5),
                                                        st.integers(1, 7)))
    @settings(max_examples=150, deadline=None)
    def test_psi_is_the_node_value(self, seed, theta, top, shape):
        n_nodes, n_actions, n_atoms = shape
        rng = np.random.default_rng(seed)
        succ = rng.integers(0, n_nodes, size=shape)
        collapsed = rng.random((n_nodes, n_actions)) < 0.5
        succ[collapsed] = succ[collapsed][:, :1]
        dm = DisturbanceModel(w_r=np.zeros(n_atoms), w_e=np.zeros(n_atoms),
                              p=rng.dirichlet(np.ones(n_atoms)))
        costs = CostSpec(stage=lambda t, x1, x2, u: np.zeros((n_nodes, n_actions)),
                         terminal=None)
        tables = riskdp._Tables(Grid(np.linspace(0.0, 1.0, n_nodes), [0.0]),
                                np.linspace(0.0, 1.0, n_actions), dm, costs, succ)
        # values of either sign up to ``top``, one of them at +-top
        V = top * rng.uniform(-1.0, 1.0, n_nodes)
        V[0] = top * rng.choice([-1.0, 1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            psi = riskdp._row_psi(V, theta, tables).take(tables.row_of)
        assert np.array_equal(psi[collapsed], V[succ[collapsed][:, 0]])

    @pytest.mark.parametrize("theta", [None, -0.7, -10.0])
    def test_no_spread_rows_returns_the_values(self, theta):
        # every row collapsed: psi is V' itself, not a kernel's result
        tables = riskdp._Tables.from_plant(*_one_second_inputs())
        V = np.linspace(0.0, 1e3, 41 * 41)
        assert riskdp._row_psi(V, theta, tables) is V


def _split(tables):
    """The numbers of distinct collapsed and spread rows ``row_of`` reads."""
    used = np.unique(tables.row_of)
    return (int(np.count_nonzero(used < tables.grid.nnodes)),
            int(np.count_nonzero(used >= tables.grid.nnodes)))


class TestRowCount:
    def test_fast_instance(self):
        # 41 x 41 nodes x 11 actions x 3 atoms at tau = 60 s
        weather = wet_12h(dt=60.0)
        tables = _plant_tables(PlantParams(tau=60.0), weather.w_r[:720], weather.w_e[:720])
        assert tables.row_of.shape == (41 * 41, 11)
        distinct = np.unique(dense_succ(tables).reshape(-1, 3), axis=0)
        assert distinct.shape[0] == 1517
        # every distinct row has its three atoms on one node
        assert np.all(distinct == distinct[:, :1])
        assert _split(tables) == (1517, 0)
        assert tables.rows.shape == (0, 11, 3)
        # the cost rises with u, so a node keeps the first action of each
        # of its distinct rows
        assert tables.cand.shape == (41 * 41, 3)
        kept = [len(set(actions)) for actions in tables.cand.tolist()]
        assert np.bincount(kept).tolist() == [0, 1537, 132, 12]
        assert np.all(tables.cand[:, 0] == 0)

    def test_self_loops_at_one_second(self):
        # a storm repeating three rain levels bins into three atoms; at
        # tau = 1 s no atom moves a node off itself, so the rows are
        # (i, i, i), one per node, shared by all 11 actions
        tables = riskdp._Tables.from_plant(*_one_second_inputs())
        assert tables.dm.natoms == 3
        nodes = np.arange(41 * 41)
        assert _split(tables) == (1681, 0)
        assert tables.rows.shape == (0, 11, 3)
        assert np.array_equal(dense_succ(tables),
                              np.broadcast_to(nodes[:, None, None], (nodes.size, 11, 3)))
        # each collapsed row is read at its node
        assert np.array_equal(tables.row_of, np.repeat(nodes[:, None], 11, axis=1))
        # so action 0, the cheapest, is the only one each node keeps
        assert tables.cand.shape == (41 * 41, 1)
        assert not tables.cand.any()
        assert np.array_equal(tables.cand_row[:, 0], nodes)

    def test_spread_instance(self):
        # tau = 300 s under 0/10/40 mm/h: 1089 distinct rows, 146 spread
        tables = riskdp._Tables.from_plant(*spread_inputs())
        distinct = np.unique(dense_succ(tables).reshape(-1, 3), axis=0)
        assert distinct.shape[0] == 1089
        assert np.count_nonzero(np.all(distinct == distinct[:, :1], axis=1)) == 943
        assert _split(tables) == (943, 146)
        # the blocks hold each spread row once, plus the last block's padding
        assert tables.rows.shape == (14, 11, 3)
        assert np.unique(tables.rows.reshape(-1, 3), axis=0).shape[0] == 146


def broadcast_succ(grid, actions, dm, p):
    """The dense successor table of one broadcast ``plant.step`` over
    every node, action and atom at once."""
    x1n, x2n, _, _ = plant.step(grid.node_x1[:, None, None], grid.node_x2[:, None, None],
                                np.asarray(actions, dtype=float)[:, None], dm.w_r, dm.w_e, p)
    return grid.nearest(np.clip(x1n, grid.x1_nodes[0], grid.x1_nodes[-1]),
                        np.clip(x2n, grid.x2_nodes[0], grid.x2_nodes[-1]))


def broadcast_tables(grid, actions, dm, costs, p):
    """The tables of ``broadcast_succ``: the reference for
    ``from_plant``, which steps one action at a time."""
    return riskdp._Tables(grid, np.asarray(actions, dtype=float), dm, costs,
                          broadcast_succ(grid, actions, dm, p))


def _oracle_inputs():
    inst = oracle_instance()
    return inst.grid, inst.actions, inst.dm, inst.costs, inst.plant


class TestOneActionAtATime:
    """``from_plant`` projects the successors one action at a time, with
    the tables of the one broadcast projection."""

    @pytest.mark.parametrize("inputs", [_one_second_inputs, _fast_inputs, _oracle_inputs,
                                        spread_inputs],
                             ids=["41x41-1s", "41x41-60s", "oracle-3x1", "41x41-300s"])
    def test_same_tables(self, inputs):
        args = inputs()
        ours, ref = riskdp._Tables.from_plant(*args), broadcast_tables(*args)
        for name in ("rows", "row_of", "cand", "cand_row"):
            assert getattr(ours, name).dtype == getattr(ref, name).dtype, name
            assert np.array_equal(getattr(ours, name), getattr(ref, name)), name
        grid, actions, dm, _, p = args
        assert np.array_equal(dense_succ(ours), broadcast_succ(grid, actions, dm, p))

    def test_one_step_per_action(self, monkeypatch):
        calls = []
        step = plant.step

        def counted(x1, x2, u, *rest):
            calls.append(np.shape(u))
            return step(x1, x2, u, *rest)

        monkeypatch.setattr(plant, "step", counted)
        riskdp._Tables.from_plant(*_fast_inputs())
        assert calls == [()] * 11


def dense_mu(N, theta, tables):
    """The policy table filled stage by stage with ``_backup``, shape
    (N, nnodes), uint8."""
    mu = np.empty((N, tables.grid.nnodes), dtype=np.uint8)
    V = tables.terminal_cost()
    for t in range(N - 1, -1, -1):
        V, mu[t] = riskdp._backup(V, tables.stage_cost(t), theta, tables)
    return mu


def _time_varying(args):
    grid, actions, dm, costs, p = args
    return grid, actions, dm, CostSpec(costs.stage, costs.terminal, True), p


class TestHeldPolicyRow:
    """``solve`` stores one policy row when every stage takes it, and the
    dense table otherwise; either reads as the dense table."""

    @staticmethod
    def _both(N, args, theta=-0.1):
        _, policy = solve(N, *args, RiskParams(theta), keep_values=False)
        return policy.mu, dense_mu(N, theta, riskdp._Tables.from_plant(*args))

    def test_one_row_at_one_second(self):
        mu, ref = self._both(600, _one_second_inputs())
        assert mu.dtype == np.uint8 and mu.shape == (600, 41 * 41)
        assert np.array_equal(mu, ref)
        assert mu.strides[0] == 0
        assert not mu.flags.writeable
        with pytest.raises(ValueError):
            mu[0, 0] = 1

    def test_dense_at_fast(self):
        mu, ref = self._both(720, _fast_inputs())
        assert mu.dtype == np.uint8 and mu.flags.c_contiguous and mu.flags.writeable
        assert np.array_equal(mu, ref)
        assert np.unique(mu, axis=0).shape[0] == 4

    def test_dense_under_time_varying_cost(self):
        args = _time_varying(_oracle_inputs())
        mu, ref = self._both(3, args, theta=-1.5)
        assert mu.flags.c_contiguous and mu.flags.writeable
        assert np.array_equal(mu, ref)
        assert np.unique(mu, axis=0).shape[0] > 1

    def test_one_row_under_time_varying_flag(self):
        # the flag asks for a cost per stage; the rows still all agree
        mu, ref = self._both(60, _time_varying(_one_second_inputs()))
        assert np.array_equal(mu, ref)
        assert mu.strides[0] == 0


class TestSolveMemory:
    """The traced peak of a two-row solve stays below 3 MB: the successor
    table is built one action at a time, and one policy row is stored
    where every stage takes it."""

    @pytest.mark.parametrize("inputs, N", [(_one_second_inputs, 2520), (_fast_inputs, 720)],
                             ids=["41x41-1s-N2520", "fast-N720"])
    def test_peak_below_3_mb(self, inputs, N):
        args = inputs()
        tracemalloc.start()
        try:
            solve(N, *args, RiskParams(-0.1), keep_values=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6, f"peak {peak / 1e6:.2f} MB"
