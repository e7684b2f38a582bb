"""The distinct-row successor table of the entropic DP.

``riskdp._Tables`` keeps each distinct successor row once and backs it
up once per stage. These tests hold that kernel to the bits of the
full-gather kernel it replaced, which backed up every (node, action,
atom) successor of the dense table, and count the rows of two instances
by hand.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _instances import oracle_instance
from stormdp import riskdp
from stormdp.plant import PlantParams
from stormdp.riskdp import (
    CostSpec,
    DisturbanceModel,
    Grid,
    RiskParams,
    brute_force_optimal,
    evaluate_policy_W,
    solve,
    tracking_cost,
)
from stormdp.sim import ControllerSpec, wet_12h


def full_gather_q_values(V_next, cost, theta, succ, p):
    """The full-gather kernel: c + psi over the dense (nodes, actions,
    atoms) successor table ``succ``, one gather per successor."""
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
    return cost + psi


def _full_gather(V_next, cost, theta, tables):
    return full_gather_q_values(V_next, cost, theta, tables.succ, tables.dm.p)


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
        assert np.array_equal(tables.succ, succ)
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

    @staticmethod
    def _both(monkeypatch, run):
        """``run()`` with the distinct-row kernel, then with the full-gather one."""
        ours = run()
        monkeypatch.setattr(riskdp, "_q_values", _full_gather)
        return ours, run()

    @pytest.mark.parametrize("theta", [None, -1.5, -1000.0])
    @pytest.mark.parametrize("time_varying", [False, True])
    def test_solve(self, monkeypatch, theta, time_varying):
        inst = oracle_instance()
        costs = CostSpec(inst.costs.stage, inst.costs.terminal, time_varying)
        rm = None if theta is None else RiskParams(theta)
        ours, ref = self._both(monkeypatch, lambda: solve(
            inst.N, inst.grid, inst.actions, inst.dm, costs, inst.plant, rm))
        assert np.array_equal(ours[0].V, ref[0].V)
        assert np.array_equal(ours[1].mu, ref[1].mu)

    @pytest.mark.parametrize("theta", [-0.3, -1.5])
    def test_evaluate_policy_W(self, monkeypatch, theta):
        inst = oracle_instance()
        rm = RiskParams(theta)
        _, policy = solve(inst.N, inst.grid, inst.actions, inst.dm, inst.costs,
                          inst.plant, rm)
        ours, ref = self._both(monkeypatch, lambda: evaluate_policy_W(
            policy, inst.dm, inst.costs, inst.plant, rm))
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
    spec = ControllerSpec(kind="dp")
    dm = DisturbanceModel.from_series(w_r, w_e, n_atoms=spec.n_atoms)
    return riskdp._Tables.from_plant(Grid.uniform(*spec.grid_shape, p),
                                     np.linspace(0.0, 1.0, spec.n_actions), dm,
                                     tracking_cost(p, lam=spec.lam), p)


class TestRowCount:
    def test_fast_instance(self):
        # 41 x 41 nodes x 11 actions x 3 atoms at tau = 60 s
        weather = wet_12h(dt=60.0)
        tables = _plant_tables(PlantParams(tau=60.0), weather.w_r[:720], weather.w_e[:720])
        assert tables.row_of.shape == (41 * 41, 11)
        assert np.unique(tables.succ.reshape(-1, 3), axis=0).shape[0] == 1517
        assert np.unique(tables.row_of).size == 1517
        # the blocks hold each distinct row once, plus the last block's padding
        assert tables.rows.shape == (138, 11, 3)

    def test_self_loops_at_one_second(self):
        # a storm repeating three rain levels bins into three atoms; at
        # tau = 1 s no atom moves a node off itself, so the rows are
        # (i, i, i), one per node, shared by all 11 actions
        rain = np.tile([0.0, 2.0e-3 / 3600.0, 5.0e-3 / 3600.0], 60)
        tables = _plant_tables(PlantParams(tau=1.0), rain, np.full(rain.size, 4.0e-5))
        assert tables.dm.natoms == 3
        nodes = np.arange(41 * 41)
        assert tables.rows.shape == (153, 11, 3)
        assert np.array_equal(tables.succ,
                              np.broadcast_to(nodes[:, None, None], (nodes.size, 11, 3)))
        assert np.array_equal(tables.row_of, np.repeat(nodes[:, None], 11, axis=1))

    def test_dense_table_is_read_only(self):
        tables = _plant_tables(PlantParams(tau=60.0), np.zeros(3), np.zeros(3))
        with pytest.raises(AttributeError):
            tables.succ = np.zeros_like(tables.succ)
        with pytest.raises(ValueError):
            tables.succ[0, 0, 0] = 1
