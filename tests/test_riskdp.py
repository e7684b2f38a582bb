"""Tests for the entropic-risk dynamic-programming solver."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _instances import (
    dense_succ,
    dp_spec_inputs,
    lookup_cost,
    oracle_instance,
    path_enumeration_value,
    random_tiny_instance,
    spread_inputs,
)
from stormdp import riskdp
from stormdp.control import dp_step
from stormdp.plant import PlantParams
from stormdp.riskdp import (
    CostSpec,
    DisturbanceModel,
    Grid,
    RiskParams,
    brute_force_optimal,
    evaluate_policy_W,
    lipschitz_regularize,
    risk_functional,
    solve,
    tracking_cost,
)
from stormdp.sim import ControllerSpec, solve_dp, wet_12h

P = PlantParams()


class TestRiskParams:
    def test_rejects_nonnegative_theta(self):
        with pytest.raises(ValueError):
            RiskParams(0.0)
        with pytest.raises(ValueError):
            RiskParams(0.5)
        assert RiskParams(-2.0).gamma == 1.0


class TestGridProjection:
    def test_node_exact(self):
        g = Grid([0.0, 1.0, 2.0], [0.0, 10.0])
        assert g.nearest(1.0, 10.0) == 1 * 2 + 1

    def test_tie_goes_to_lower_index(self):
        g = Grid([0.0, 1.0, 2.0], [0.0])
        assert g.nearest(0.5, 0.0) == 0
        assert g.nearest(1.5, 0.0) == 1

    def test_out_of_box_rejected(self):
        g = Grid([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            g.nearest(2.0, 0.0)
        with pytest.raises(ValueError):
            g.nearest(0.5, -0.5)

    @pytest.mark.parametrize("x1, x2", [(float("nan"), 0.0), (0.5, float("nan")),
                                        ([0.5, float("nan")], [0.0, 1.0])],
                             ids=["x1", "x2", "one-of-two"])
    def test_nan_state_rejected(self, x1, x2):
        # a NaN fails every comparison, so it must fail the box check too
        g = Grid([0.0, 1.0, 2.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="outside the grid's state box"):
            g.nearest(x1, x2)


    @pytest.mark.parametrize("nodes", [[0.0, math.nan, 1.0], [0.0, math.inf], [-math.inf],
                                       [math.nan], [0.0, 1.0, 1.0], [1.0, 0.0]])
    def test_bad_breakpoints_rejected(self, nodes):
        # NaN fails the increasing check's comparison, so it needs its own
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            Grid(nodes, [0.0])
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            Grid([0.0], nodes)


def _clip_nearest(grid, x1, x2):
    """``Grid.nearest`` written with np.clip and np.all: the reference
    that the wrapper-free lookup must reproduce."""
    tol = 1e-9
    x1, x2 = np.asarray(x1), np.asarray(x2)
    if not np.all((x1 >= grid.x1_nodes[0] - tol) & (x1 <= grid.x1_nodes[-1] + tol)
                  & (x2 >= grid.x2_nodes[0] - tol) & (x2 <= grid.x2_nodes[-1] + tol)):
        raise ValueError("state outside the grid's state box")

    def nearest_1d(nodes, x):
        if nodes.size == 1:
            return np.zeros(x.shape, dtype=int) if x.shape else 0
        j = np.clip(np.searchsorted(nodes, x), 1, nodes.size - 1)
        return np.where(x - nodes[j - 1] <= nodes[j] - x, j - 1, j)

    return nearest_1d(grid.x1_nodes, x1) * grid.n2 + nearest_1d(grid.x2_nodes, x2)


LOOKUP_GRIDS = [Grid.uniform(41, 41, P), Grid.uniform(9, 9, P),
                Grid([0.0, 75.0, 150.0], [0.0]), Grid([-1.0, 0.5, 2.0, 40.0], [0.0, 34.4])]
# every node, the midpoints between nodes (ties), the box's ends 1e-9
# outside and just past that, -0.0 and NaN
_NODES = sorted({float(v) for g in LOOKUP_GRIDS for v in (*g.x1_nodes, *g.x2_nodes)})
LOOKUP_X = (st.sampled_from(_NODES + [(a + b) / 2 for a, b in zip(_NODES, _NODES[1:])]
                            + [-0.0, -1e-9, -2e-9, P.cap1 + 1e-9, P.cap2 + 1e-9, math.nan])
            | st.floats(-1.0, P.cap1))


class TestWrapperFreeLookup:
    """``Grid.nearest`` clamps its integer indices with np.minimum and
    np.maximum and reduces the box check with ``.all()``: the same index,
    or the same refusal, as the np.clip / np.all form, on Python floats,
    numpy scalars and arrays."""

    @given(points=st.lists(st.tuples(LOOKUP_X, LOOKUP_X), min_size=1, max_size=5),
           grid=st.sampled_from(LOOKUP_GRIDS))
    @settings(max_examples=200, deadline=None)
    def test_same_index_as_clip_form(self, points, grid):
        calls = [tuple(np.array(c) for c in zip(*points))]
        calls += [tuple(kind(v) for v in point) for point in points
                  for kind in (float, np.float64)]
        for x1, x2 in calls:
            try:
                want = _clip_nearest(grid, x1, x2)
            except ValueError:
                with pytest.raises(ValueError, match="outside the grid's state box"):
                    grid.nearest(x1, x2)
                continue
            got = grid.nearest(x1, x2)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            assert np.shape(got) == np.shape(want)


class TestDisturbanceModel:
    def test_invariants(self):
        with pytest.raises(ValueError):
            DisturbanceModel(w_r=[0.0], w_e=[0.0], p=[0.5])
        with pytest.raises(ValueError):
            DisturbanceModel(w_r=[0.0, 1.0], w_e=[0.0, 0.0], p=[1.0, 0.0])

    def test_rejects_nan_probability(self):
        with pytest.raises(ValueError, match="finite"):
            DisturbanceModel(w_r=[0.0, 1.0], w_e=[0.0, 0.0], p=[math.nan, 1.0])

    def test_from_series_equal_mass(self):
        w_r = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
        dm = DisturbanceModel.from_series(w_r, np.zeros(6), n_atoms=3)
        assert dm.natoms == 3
        assert np.allclose(np.sort(dm.w_r), [0.0, 1.0, 2.0])
        assert np.allclose(dm.p, [1 / 3] * 3)

    def test_from_series_deterministic(self):
        rng = np.random.default_rng(5)
        w_r = rng.uniform(0, 1e-4, 500)
        w_e = rng.uniform(0, 1e-5, 500)
        a = DisturbanceModel.from_series(w_r, w_e, n_atoms=3)
        b = DisturbanceModel.from_series(w_r.copy(), w_e.copy(), n_atoms=3)
        assert np.array_equal(a.w_r, b.w_r) and np.array_equal(a.w_e, b.w_e)
        assert np.array_equal(a.p, b.p)

    def test_from_series_empty_rejected(self):
        with pytest.raises(ValueError):
            DisturbanceModel.from_series([], [], n_atoms=3)


def _stage(V_next, t, theta, inst, dm=None):
    """V_t and its argmin from V_{t+1}: one backward stage, taken as
    ``solve`` takes it."""
    tables = riskdp._Tables.from_plant(inst.grid, inst.actions, dm or inst.dm, inst.costs,
                                       inst.plant)
    return riskdp._backup(V_next, tables.stage_cost(t), theta, tables)


class TestBackup:
    def test_single_atom_reduces_to_lookup(self):
        inst = oracle_instance()
        dm1 = DisturbanceModel(w_r=[0.0], w_e=[0.0], p=[1.0])
        V_next = np.array([1.0, 5.0, 2.0])
        V, mu = _stage(V_next, 0, -1.0, inst, dm1)
        # psi equals V_next at the (deterministic) successor exactly
        for i in range(3):
            choices = [inst.stage_table[0, i, a]
                       + V_next[_succ(inst, i, a, dm1)] for a in range(2)]
            assert V[i] == pytest.approx(min(choices), abs=1e-12)
            assert mu[i] == int(np.argmin(choices))

    def test_constant_V_next(self):
        inst = oracle_instance()
        V_next = np.full(3, 7.25)
        V, mu = _stage(V_next, 1, -0.7, inst)
        expected = 7.25 + inst.stage_table[1].min(axis=1)
        assert np.allclose(V, expected, atol=1e-12)

    def test_two_atom_scalar_value(self):
        # gamma = 1: psi = log(0.5 + 0.5 e^2) for successor values (0, 2)
        assert risk_functional([0.0, 2.0], [0.5, 0.5], -2.0) == pytest.approx(
            math.log(0.5 + 0.5 * math.e ** 2), rel=1e-12)

    def test_shift_stability(self):
        inst = oracle_instance()
        for theta in (-0.01, -1.0, -100.0):
            V_next = np.array([0.3, 1.1, 0.7])
            V, _ = _stage(V_next, 0, theta, inst)
            V_shift, _ = _stage(V_next + 700.0, 0, theta, inst)
            assert np.all(np.abs((V_shift - 700.0) - V) <= 1e-9)


def _random_tables(rng, cost, n_atoms):
    """Tables on a 1-D grid with the (nodes, actions) stage cost ``cost``,
    built from successors drawn at random."""
    n_nodes, n_actions = cost.shape
    grid = Grid(np.linspace(0.0, P.cap1, n_nodes), [0.0])
    dm = DisturbanceModel(w_r=np.zeros(n_atoms), w_e=np.zeros(n_atoms),
                          p=rng.dirichlet(np.ones(n_atoms)))
    costs = CostSpec(stage=lambda t, x1, x2, u: cost, terminal=None)
    succ = rng.integers(0, n_nodes, size=(n_nodes, n_actions, n_atoms))
    return riskdp._Tables(grid, np.linspace(0.0, 1.0, n_actions), dm, costs, succ)


def _q_and_kernel(tables, V_next, theta):
    """The shared backup's Q-values, and whether it took the per-row shift."""
    with mock.patch.object(riskdp, "_psi", wraps=riskdp._psi) as row_shift:
        q = riskdp._q_values(V_next, tables.stage_cost(0), theta, tables)
    return q, row_shift.called


class TestPerNodeKernel:
    """psi from one exponential per node, against the per-row max shift."""

    @given(seed=st.integers(0, 2 ** 32 - 1), theta=st.floats(-20.0, -1e-3),
           gamma_range=st.floats(0.0, 699.0), offset=st.floats(-1e3, 1e3),
           shape=st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(1, 4)))
    @settings(max_examples=100, deadline=None)
    def test_matches_row_shift(self, seed, theta, gamma_range, offset, shape):
        rng = np.random.default_rng(seed)
        tables = _random_tables(rng, np.zeros(shape[:2]), shape[2])
        gamma = -theta / 2.0
        V = offset + rng.uniform(0.0, gamma_range / gamma, shape[0])
        q, row_shifted = _q_and_kernel(tables, V, theta)
        assert not row_shifted
        ref = riskdp._psi(V[dense_succ(tables)], tables.dm.p, theta)
        # both kernels round at the scale of |V'| and of 1/gamma
        scale = np.abs(V).max() + 1.0 / gamma
        np.testing.assert_allclose(q, ref, rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("gamma_range, row_shifted", [
        (699.0, False), (701.0, True), (2500.0, True)])
    def test_both_sides_of_the_overflow_switch(self, gamma_range, row_shifted):
        rng = np.random.default_rng(8)
        cost = rng.uniform(0.0, 1.0, size=(6, 4))
        tables = _random_tables(rng, cost, 3)
        theta = -10.0
        V = np.linspace(0.0, gamma_range / 5.0, 6)
        with np.errstate(over="raise"):
            q, shifted = _q_and_kernel(tables, V, theta)
            ref = cost + riskdp._psi(V[dense_succ(tables)], tables.dm.p, theta)
        assert shifted == row_shifted
        assert np.all(np.isfinite(q))
        np.testing.assert_allclose(q, ref, rtol=1e-12)
        assert np.array_equal(q.argmin(axis=1), ref.argmin(axis=1))

    def test_solve_across_the_switch_matches_row_shift(self, monkeypatch):
        # theta = -10 on an instance with spread rows: gamma (max V' -
        # min V') starts below the limit and passes it mid-recursion
        args = (*spread_inputs(), RiskParams(-10.0))
        values, policy = solve(720, *args)
        gamma_range = 5.0 * np.ptp(values.V[1:], axis=1)
        assert gamma_range.min() <= riskdp.EXP_SHIFT_LIMIT < gamma_range.max()
        monkeypatch.setattr(riskdp, "EXP_SHIFT_LIMIT", -1.0)
        ref_values, ref_policy = solve(720, *args)
        assert np.array_equal(policy.mu, ref_policy.mu)
        np.testing.assert_allclose(values.V, ref_values.V, rtol=1e-10)


def _succ(inst, node, action_idx, dm):
    from _instances import TinyInstance, successor_node
    inst1 = TinyInstance(plant=inst.plant, grid=inst.grid, actions=inst.actions,
                         dm=dm, costs=inst.costs, N=inst.N,
                         stage_table=inst.stage_table,
                         terminal_table=inst.terminal_table)
    return successor_node(inst1, node, action_idx, 0)


class TestSolve:
    def test_terminal_and_single_stage(self):
        inst = oracle_instance()
        values, policy = solve(1, inst.grid, inst.actions, inst.dm, inst.costs,
                               inst.plant, RiskParams(-1.0))
        assert np.allclose(values.V[1], inst.terminal_table)
        V0, mu0 = _stage(values.V[1], 0, -1.0, inst)
        assert np.allclose(values.V[0], V0)
        assert np.array_equal(policy.mu[0], mu0)

    @pytest.mark.parametrize("n_actions, dtype", [
        (2, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_policy_table_is_compact(self, n_actions, dtype):
        # the cost prefers the last action, so mu holds the largest index
        grid = Grid.uniform(3, 3, P)
        actions = np.linspace(0.0, 1.0, n_actions)
        costs = CostSpec(stage=lambda t, x1, x2, u: (1.0 - np.asarray(u)) ** 2,
                         terminal=lambda x1, x2: np.zeros(np.shape(x1)))
        _, policy = solve(2, grid, actions, DisturbanceModel([0.0], [0.0], [1.0]),
                          costs, P, RiskParams(-1.0))
        assert policy.mu.dtype == dtype
        assert np.all(policy.mu == n_actions - 1)
        assert dp_step(0, grid.node_x1[4], grid.node_x2[4], policy) == 1.0

    def test_zero_costs(self):
        inst = oracle_instance()
        zero = CostSpec(stage=lambda t, x1, x2, u: np.zeros(np.broadcast(x1, u).shape),
                        terminal=lambda x1, x2: np.zeros(np.shape(x1)))
        values, _ = solve(3, inst.grid, inst.actions, inst.dm, zero,
                          inst.plant, RiskParams(-1.0))
        assert np.allclose(values.V, 0.0, atol=1e-14)

    def test_value_bounds(self):
        inst = oracle_instance()
        values, _ = solve(inst.N, inst.grid, inst.actions, inst.dm, inst.costs,
                          inst.plant, RiskParams(-2.0))
        c_lo = inst.stage_table.min()
        c_hi = inst.stage_table.max()
        for t in range(inst.N + 1):
            lo = c_lo * (inst.N - t) + inst.terminal_table.min()
            hi = c_hi * (inst.N - t) + inst.terminal_table.max()
            assert np.all(values.V[t] >= lo - 1e-9)
            assert np.all(values.V[t] <= hi + 1e-9)

    def test_matches_brute_force(self):
        inst = oracle_instance()
        rm = RiskParams(-1.0)
        values, _ = solve(inst.N, inst.grid, inst.actions, inst.dm, inst.costs,
                          inst.plant, rm)
        res = brute_force_optimal(inst.N, inst.grid, inst.actions, inst.dm,
                                  inst.costs, inst.plant, rm)
        assert np.all(np.abs(values.V[0] - res.optimal_values) <= 1e-9)

    def test_strong_risk_aversion_stays_finite(self):
        # gamma = 25: exp(gamma V) spans e^0 to e^100 across the instance
        inst = oracle_instance()
        values, _ = solve(inst.N, inst.grid, inst.actions, inst.dm, inst.costs,
                          inst.plant, RiskParams(-50.0))
        assert np.all(np.isfinite(values.V))
        res = brute_force_optimal(inst.N, inst.grid, inst.actions, inst.dm,
                                  inst.costs, inst.plant, RiskParams(-50.0))
        assert np.all(np.abs(values.V[0] - res.optimal_values) <= 1e-9)

    def test_extracted_policy_attains_value(self):
        inst = oracle_instance()
        rm = RiskParams(-1.5)
        values, policy = solve(inst.N, inst.grid, inst.actions, inst.dm,
                               inst.costs, inst.plant, rm)
        W = evaluate_policy_W(policy, inst.dm, inst.costs, inst.plant, rm)
        attained = (-2.0 / rm.theta) * np.log(W[0])
        assert np.all(np.abs(attained - values.V[0]) <= 1e-9)


class TestKeepValues:
    """``keep_values=False`` solves in two value rows and returns V[0]
    alone, with the bits of the full table's V[0] and the same policy."""

    @staticmethod
    def _assert_same(N, grid, actions, dm, costs, p, rm):
        full_values, full_policy = solve(N, grid, actions, dm, costs, p, rm)
        values, policy = solve(N, grid, actions, dm, costs, p, rm, keep_values=False)
        assert values.V.shape == (1, grid.nnodes)
        assert np.array_equal(values.V[0], full_values.V[0])
        assert np.array_equal(policy.mu, full_policy.mu)

    @pytest.mark.parametrize("time_varying", [False, True])
    @pytest.mark.parametrize("theta", [None, -0.1, -10.0])
    @pytest.mark.parametrize("N", [1, 2, 3, 720])
    def test_fast_instance(self, N, theta, time_varying):
        # every successor row collapses onto one node
        p = PlantParams(tau=60.0)
        weather = wet_12h(dt=60.0)
        grid, actions, dm, costs = dp_spec_inputs(p, weather.w_r[:720], weather.w_e[:720])
        costs = CostSpec(costs.stage, costs.terminal, time_varying)
        self._assert_same(N, grid, actions, dm, costs, p,
                          None if theta is None else RiskParams(theta))

    @pytest.mark.parametrize("theta", [None, -10.0])
    @pytest.mark.parametrize("N", [3, 720])
    def test_spread_instance(self, N, theta):
        # spread rows beside collapsed ones; theta = -10 passes
        # EXP_SHIFT_LIMIT mid-recursion at N = 720
        self._assert_same(N, *spread_inputs(), None if theta is None else RiskParams(theta))

    @pytest.mark.parametrize("time_varying", [False, True])
    @pytest.mark.parametrize("theta", [None, -0.1, -10.0])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_oracle_instance(self, N, theta, time_varying):
        inst = oracle_instance()
        costs = CostSpec(inst.costs.stage, inst.costs.terminal, time_varying)
        self._assert_same(N, inst.grid, inst.actions, inst.dm, costs, inst.plant,
                          None if theta is None else RiskParams(theta))

    def test_solve_dp_peak_memory(self):
        # at tau = 1 s the full (N+1, 1681) float64 table is 27 MB at
        # N = 2000 and the uint8 policy 3.4 MB; solve_dp keeps two rows
        p = PlantParams(tau=1.0)
        weather = wet_12h(dt=1.0)
        N = 2000
        tracemalloc.start()
        try:
            values, policy = solve_dp(ControllerSpec(kind="dp"), p, weather, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nnodes = policy.grid.nnodes
        assert peak < (N + 1) * nnodes * 8 / 2
        assert values.V.shape == (1, nnodes)


def _counting(costs, time_varying):
    """``costs`` with its callables wrapped to record each stage t asked
    for and each terminal evaluation."""
    calls = {"stage": [], "terminal": 0}

    def stage(t, x1, x2, u):
        calls["stage"].append(t)
        return costs.stage(t, x1, x2, u)

    def terminal(x1, x2):
        calls["terminal"] += 1
        return costs.terminal(x1, x2)

    return CostSpec(stage=stage, terminal=terminal, time_varying=time_varying), calls


class TestStageCostEvaluatedOnce:
    """A time-invariant stage cost is evaluated once per call; a
    time-varying one once per stage of each call. The terminal cost is
    evaluated once per call."""

    @staticmethod
    def _expected(inst, time_varying):
        return {"stage": list(range(inst.N - 1, -1, -1)) if time_varying else [0],
                "terminal": 1}

    @pytest.mark.parametrize("time_varying", [False, True])
    def test_solve(self, time_varying):
        inst = oracle_instance()
        costs, calls = _counting(inst.costs, time_varying)
        solve(inst.N, inst.grid, inst.actions, inst.dm, costs, inst.plant,
              RiskParams(-1.0))
        assert calls == self._expected(inst, time_varying)

    @pytest.mark.parametrize("time_varying", [False, True])
    def test_evaluate_policy_W(self, time_varying):
        inst = oracle_instance()
        rm = RiskParams(-1.0)
        _, policy = solve(inst.N, inst.grid, inst.actions, inst.dm, inst.costs,
                          inst.plant, rm)
        costs, calls = _counting(inst.costs, time_varying)
        evaluate_policy_W(policy, inst.dm, costs, inst.plant, rm)
        assert calls == self._expected(inst, time_varying)

    @pytest.mark.parametrize("time_varying", [False, True])
    def test_brute_force_optimal(self, time_varying):
        inst = oracle_instance()
        costs, calls = _counting(inst.costs, time_varying)
        res = brute_force_optimal(inst.N, inst.grid, inst.actions, inst.dm, costs,
                                  inst.plant, RiskParams(-1.0))
        n_policies = res.policy_values.shape[0]
        assert n_policies == inst.actions.size ** (inst.N * inst.grid.nnodes)
        # every stage and the terminal cost once per call, shared by all
        # the enumerated policies
        assert calls == self._expected(inst, time_varying)


class TestPolicyEvaluation:
    def test_zero_cost_gives_unit_W(self):
        inst = oracle_instance()
        zero = CostSpec(stage=lambda t, x1, x2, u: np.zeros(np.broadcast(x1, u).shape),
                        terminal=lambda x1, x2: np.zeros(np.shape(x1)))
        _, policy = solve(3, inst.grid, inst.actions, inst.dm, zero,
                          inst.plant, RiskParams(-2.0))
        W = evaluate_policy_W(policy, inst.dm, zero, inst.plant, RiskParams(-2.0))
        assert np.allclose(W, 1.0, atol=1e-12)

    def test_positivity(self):
        inst = oracle_instance()
        rm = RiskParams(-5.0)
        _, policy = solve(inst.N, inst.grid, inst.actions, inst.dm, inst.costs,
                          inst.plant, rm)
        W = evaluate_policy_W(policy, inst.dm, inst.costs, inst.plant, rm)
        assert np.all(W > 0.0) and np.all(np.isfinite(W))

    def test_action_out_of_range_raises(self):
        # node 0's action 2 of 2 must not read node 1's action 0
        inst = oracle_instance()
        rm = RiskParams(-1.0)
        _, policy = solve(inst.N, inst.grid, inst.actions, inst.dm, inst.costs,
                          inst.plant, rm)
        mu = policy.mu.copy()
        mu[0, 0] = inst.actions.size
        bad = riskdp.PolicyTable(mu=mu, actions=policy.actions, grid=policy.grid)
        with pytest.raises(ValueError):
            evaluate_policy_W(bad, inst.dm, inst.costs, inst.plant, rm)

    def test_matches_path_enumeration(self):
        inst = oracle_instance()
        rm = RiskParams(-1.0)
        _, policy = solve(inst.N, inst.grid, inst.actions, inst.dm, inst.costs,
                          inst.plant, rm)
        W = evaluate_policy_W(policy, inst.dm, inst.costs, inst.plant, rm)
        for start in range(inst.grid.nnodes):
            ref = path_enumeration_value(inst, policy.mu, rm.theta, start)
            got = (-2.0 / rm.theta) * math.log(W[0, start])
            assert got == pytest.approx(ref, rel=1e-12)

    @staticmethod
    def _fast_policy_args(theta):
        """evaluate_policy_W's arguments for the --fast DP policy at theta."""
        p = PlantParams(tau=60.0)
        weather = wet_12h(dt=60.0)
        spec = ControllerSpec(kind="dp", theta=theta)
        _, policy = solve_dp(spec, p, weather, 720)
        dm = DisturbanceModel.from_series(weather.w_r[:720], weather.w_e[:720],
                                          n_atoms=spec.n_atoms)
        return policy, dm, tracking_cost(p, spec.lam), p, RiskParams(theta)

    def test_overflow_raises_before_exp(self):
        # on the --fast instance gamma * max V is 744 at theta = -10, past
        # log(float max) ~ 709.78, so W is not representable there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            args = self._fast_policy_args(-10.0)
            with pytest.raises(ArithmeticError,
                               match=r"max V = 744\.\d+ exceeds log\(float max\) = 709\.783"):
                evaluate_policy_W(*args)

    def test_fast_instance_in_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            W = evaluate_policy_W(*self._fast_policy_args(-0.1))
        assert np.all(np.isfinite(W)) and np.all(W > 0.0)


class TestBruteForce:
    def test_rejects_oversized(self):
        p = PlantParams()
        grid = Grid(np.linspace(0, p.cap1, 8), np.linspace(0, p.cap2, 8))
        dm = DisturbanceModel(w_r=[0.0], w_e=[0.0], p=[1.0])
        with pytest.raises(ValueError, match="too large"):
            brute_force_optimal(5, grid, np.linspace(0, 1, 5), dm,
                                tracking_cost(p), p, RiskParams(-1.0))

    def test_deterministic_instance_theta_invariant(self):
        # with a single atom the dynamics are deterministic and the
        # entropic value of any policy equals its plain cost, so the
        # optimum is theta-independent (classical shortest path)
        inst = oracle_instance()
        dm1 = DisturbanceModel(w_r=[0.0], w_e=[0.0], p=[1.0])
        vals = []
        for theta in (-0.01, -1.0, -5.0):
            res = brute_force_optimal(inst.N, inst.grid, inst.actions, dm1,
                                      inst.costs, inst.plant, RiskParams(theta))
            vals.append(res.optimal_values)
        assert np.allclose(vals[0], vals[1], atol=1e-9)
        assert np.allclose(vals[1], vals[2], atol=1e-9)

    def test_every_policy_dominates_optimum(self):
        inst = oracle_instance()
        rm = RiskParams(-1.0)
        values, _ = solve(inst.N, inst.grid, inst.actions, inst.dm, inst.costs,
                          inst.plant, rm)
        res = brute_force_optimal(inst.N, inst.grid, inst.actions, inst.dm,
                                  inst.costs, inst.plant, rm)
        assert np.all(res.policy_values >= values.V[0][None, :] - 1e-9)


class TestRiskFunctional:
    def test_degenerate(self):
        assert risk_functional([3.25], [1.0], -7.0) == pytest.approx(3.25, rel=1e-14)

    def test_near_risk_neutral(self):
        rng = np.random.default_rng(30)
        z = rng.uniform(0, 5, 20)
        p = rng.dirichlet(np.ones(20))
        assert risk_functional(z, p, -1e-6) == pytest.approx(float(z @ p), abs=1e-4)

    @given(st.floats(-50.0, -1e-3))
    @settings(max_examples=30, deadline=None)
    def test_upper_bounds_expectation(self, theta):
        z = np.array([0.0, 1.0, 4.0])
        p = np.array([0.2, 0.5, 0.3])
        assert risk_functional(z, p, theta) >= float(z @ p) - 1e-12

    def test_spread_beyond_exp_overflow(self):
        # gamma * (max Z - min Z) = 2.5 * 1000 is far past log(float max) ~ 709;
        # exactly, psi = 1000 + log(0.5 + 0.5 e^-2500) / 2.5
        got = risk_functional([0.0, 1000.0], [0.5, 0.5], -5.0)
        assert math.isfinite(got)
        assert got == pytest.approx(1000.0 + math.log(0.5) / 2.5, rel=1e-15)

    def test_zero_probability_outcomes_ignored(self):
        assert risk_functional([0.0, 1000.0], [1.0, 0.0], -5.0) == 0.0

    @pytest.mark.parametrize("probs, message", [
        ([0.2, 0.2], "sum to 1"),
        ([-0.5, 1.5], "nonnegative"),
        ([0.5, 0.25, 0.25], "shape"),
        ([0.0, 0.0], "sum to 1"),
        ([math.nan, 1.0], "finite"),
    ], ids=["short-sum", "negative", "length-mismatch", "all-zero", "nan"])
    def test_rejects_a_non_distribution(self, probs, message):
        with pytest.raises(ValueError, match=message):
            risk_functional([1.0, 2.0], probs, -1.0)

    @given(st.lists(st.tuples(st.floats(-30.0, 30.0), st.floats(0.01, 1.0)),
                    min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_matches_naive_log_sum_exp(self, atoms):
        # theta = -2 gives gamma = 1, so the risk is log sum p exp(z) itself;
        # the absolute floor covers results that round to near zero
        z = [a for a, _ in atoms]
        w = [b for _, b in atoms]
        p = [b / sum(w) for b in w]
        naive = math.log(sum(pk * math.exp(zk) for zk, pk in zip(z, p)))
        assert risk_functional(z, p, -2.0) == pytest.approx(naive, rel=1e-12, abs=1e-12)


class TestRiskNeutralAndProperties:
    def test_risk_neutral_limit_tiny(self):
        inst = oracle_instance()
        v_rn, _ = solve(inst.N, inst.grid, inst.actions, inst.dm, inst.costs,
                        inst.plant, None)
        v_th, _ = solve(inst.N, inst.grid, inst.actions, inst.dm, inst.costs,
                        inst.plant, RiskParams(-1e-4))
        tol = 1e-3 * (1.0 + np.abs(v_rn.V[0]))
        assert np.all(np.abs(v_th.V[0] - v_rn.V[0]) <= tol)

    def test_monotone_risk_aversion(self):
        for seed in range(5):
            inst = random_tiny_instance(seed)
            vs = []
            for theta in (-0.5, -2.0, -8.0):
                values, _ = solve(inst.N, inst.grid, inst.actions, inst.dm,
                                  inst.costs, inst.plant, RiskParams(theta))
                vs.append(values.V[0])
            assert np.all(vs[1] >= vs[0] - 1e-9)
            assert np.all(vs[2] >= vs[1] - 1e-9)

    def test_constant_shift_covariance(self):
        inst = oracle_instance()
        rm = RiskParams(-1.0)
        K = 3.7
        t0 = 1
        base, _ = solve(inst.N, inst.grid, inst.actions, inst.dm, inst.costs,
                        inst.plant, rm)
        shifted_table = inst.stage_table.copy()
        shifted_table[t0] += K
        shifted_costs = lookup_cost(inst.grid, inst.actions, shifted_table,
                                    inst.terminal_table)
        shifted, _ = solve(inst.N, inst.grid, inst.actions, inst.dm,
                           shifted_costs, inst.plant, rm)
        for t in range(inst.N + 1):
            expected = base.V[t] + (K if t <= t0 else 0.0)
            assert np.all(np.abs(shifted.V[t] - expected) <= 1e-9)


class TestLipschitzRegularizer:
    def _line(self, rng, n=12):
        x = np.sort(rng.uniform(0, 10, n))
        dist = np.abs(x[:, None] - x[None, :])
        h = rng.uniform(0, 5, n)
        return x, dist, h

    def test_m_zero_gives_min(self):
        rng = np.random.default_rng(40)
        _, dist, h = self._line(rng)
        assert np.allclose(lipschitz_regularize(h, dist, 0.0), h.min())

    def test_chain_and_lipschitz(self):
        rng = np.random.default_rng(41)
        _, dist, h = self._line(rng)
        prev = np.full_like(h, h.min())
        for m in (0.1, 0.5, 2.0, 10.0):
            hm = lipschitz_regularize(h, dist, m)
            assert np.all(hm <= h + 1e-12)
            assert np.all(hm >= prev - 1e-12)
            assert np.all(hm >= h.min() - 1e-12)
            # pairwise m-Lipschitz certificate
            assert np.all(np.abs(hm[:, None] - hm[None, :])
                          <= m * dist + 1e-9)
            prev = hm

    def test_exact_recovery_threshold(self):
        rng = np.random.default_rng(42)
        _, dist, h = self._line(rng)
        pos = dist[dist > 0]
        m_star = (h.max() - h.min()) / pos.min()
        assert np.array_equal(lipschitz_regularize(h, dist, m_star * 1.001), h)

    def test_step_function_ramps(self):
        x = np.arange(6, dtype=float)
        dist = np.abs(x[:, None] - x[None, :])
        h = np.where(x >= 3, 10.0, 0.0)
        hm = lipschitz_regularize(h, dist, 2.0)
        assert np.allclose(hm, [0, 0, 0, 2 * 1, 2 * 2, 2 * 3])
        # the ramp climbs with slope m from the nearest low node, capped at h

    @pytest.mark.parametrize("m", [-1.0, math.inf, math.nan])
    def test_rejects_bad_slope(self, m):
        _, dist, h = self._line(np.random.default_rng(43))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            lipschitz_regularize(h, dist, m)

    def test_rejects_bad_metric(self):
        h = np.zeros(3)
        with pytest.raises(ValueError):
            lipschitz_regularize(h, np.ones((3, 3)), 1.0)  # nonzero diagonal
        bad = np.array([[0.0, 1.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            lipschitz_regularize(h, bad, 1.0)  # asymmetric
