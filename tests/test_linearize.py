"""Tests for the linearization and the condensed receding-horizon QP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormdp.linearize import (
    MAX_HORIZON,
    CondensedHorizon,
    LinearModel,
    NearSingularSystem,
    OperatingPoint,
    condense,
    condensed_cost,
    linearize_at,
    predict,
    solve_mpc_qp,
)
from stormdp.plant import PlantParams
from stormdp.smooth import SmoothParams, f_eps_rhs

P = PlantParams()
SP = SmoothParams(plant=P, eps=0.5)


def random_operating_point(rng):
    """Valid random operating point, clear of the two points where the
    smooth sqrt's curvature blows up (central differences are
    ill-conditioned there, the derivative still exists)."""
    while True:
        x1 = rng.uniform(0.0, P.cap1)
        y = x1 / P.a1 - P.z_o
        if abs(y) > 2e-2 and abs(y - SP.eps) > 2e-2:
            break
    return OperatingPoint(x1=x1, x2=rng.uniform(0.0, P.cap2),
                          u=rng.uniform(0.01, 0.99),
                          w_r=rng.uniform(0.0, 1e-4), w_e=rng.uniform(0.0, 1e-4))


def fd_jacobians(op, sp, hx=1e-3, hu=1e-6, hw=1e-9):
    """Central-difference Jacobians of the smooth vector field at op."""
    def f(x1, x2, u, wr, we):
        f1, f2 = f_eps_rhs(x1, x2, u, wr, we, sp)
        return np.array([float(f1), float(f2)])

    base = (op.x1, op.x2, op.u, op.w_r, op.w_e)
    jx = np.empty((2, 2))
    for j, h in ((0, hx), (1, hx)):
        hi = list(base)
        lo = list(base)
        hi[j] += h
        lo[j] -= h
        jx[:, j] = (f(*hi) - f(*lo)) / (2 * h)
    hi = list(base)
    lo = list(base)
    hi[2] = min(op.u + hu, 1.0)
    lo[2] = max(op.u - hu, 0.0)
    ju = ((f(*hi) - f(*lo)) / (hi[2] - lo[2])).reshape(2, 1)
    jw = np.empty((2, 2))
    for k, j in enumerate((3, 4)):
        hi = list(base)
        lo = list(base)
        hi[j] += hw
        lo[j] = max(lo[j] - hw, 0.0)
        jw[:, k] = (f(*hi) - f(*lo)) / (hi[j] - lo[j])
    return jx, ju, jw


class TestLinearize:
    def test_structure(self):
        lm = linearize_at(OperatingPoint(100.0, 1.0, 0.5, 1e-5, 1e-5), SP)
        assert lm.A.shape == (2, 2) and lm.B.shape == (2, 1)
        assert lm.C.shape == (2, 2) and lm.b.shape == (2,)
        # the pump enters tank 1 negatively and tank 2 positively
        assert lm.B[0, 0] == pytest.approx(-lm.B[1, 0], rel=1e-12)
        # disturbances enter linearly
        assert np.allclose(lm.C, P.tau * np.array([[P.a_in, 0.0], [P.a2, -1.0]]))
        f = np.array(f_eps_rhs(100.0, 1.0, 0.5, 1e-5, 1e-5, SP), dtype=float)
        assert np.allclose(lm.b, P.tau * f.reshape(-1))

    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            op = random_operating_point(rng)
            lm = linearize_at(op, SP)
            jx, ju, jw = fd_jacobians(op, SP)
            A_fd = np.eye(2) + P.tau * jx
            assert np.all(np.abs(lm.A - A_fd) <= 1e-5 * (1.0 + np.abs(lm.A)))
            assert np.all(np.abs(lm.B - P.tau * ju) <= 1e-5 * (1.0 + np.abs(lm.B)))
            assert np.all(np.abs(lm.C - P.tau * jw) <= 1e-5 * (1.0 + np.abs(lm.C)))

    def test_rejects_control_out_of_range(self):
        for u in (1.2, -0.1):
            with pytest.raises(ValueError, match="control fraction"):
                linearize_at(OperatingPoint(100.0, 1.0, u, 1e-5, 1e-5), SP)

    def test_batch_equals_scalar_calls_in_the_outlet_band(self):
        # the outlet root's cubic blend on (a1 z_o, a1 (z_o + eps)] rounds
        # a scalar state as it rounds the same state in a batch
        x1 = np.linspace(P.a1 * P.z_o, P.a1 * (P.z_o + SP.eps), 2001)[1:]
        x2 = np.linspace(0.0, P.cap2, x1.size)
        u = np.linspace(0.0, 1.0, x1.size)
        batch = linearize_at(OperatingPoint(x1=x1, x2=x2, u=u, w_r=1e-5, w_e=2e-5), SP)
        for j in range(x1.size):
            alone = linearize_at(OperatingPoint(x1=x1[j], x2=x2[j], u=u[j],
                                                w_r=1e-5, w_e=2e-5), SP)
            for name in ("A", "B", "b"):
                assert getattr(batch, name)[j].tobytes() == getattr(alone, name).tobytes(), \
                    (name, x1[j])

    def test_A_close_to_identity_at_unit_step(self):
        # |A - I| <= tau * (Lipschitz bound of the smooth field): at
        # tau = 1 s the off-identity entries are tiny for this plant
        rng = np.random.default_rng(12)
        for _ in range(20):
            lm = linearize_at(random_operating_point(rng), SP)
            assert np.all(np.abs(lm.A - np.eye(2)) <= P.tau * 1.0)
            assert np.all(np.isfinite(lm.A))


def random_linear_model(rng):
    op = random_operating_point(rng)
    return linearize_at(op, SP)


def synthetic_model(A, B, C, b, u_bar=0.0):
    op = OperatingPoint(x1=0.0, x2=0.0, u=u_bar, w_r=0.0, w_e=0.0)
    return LinearModel(A=np.asarray(A, float), B=np.asarray(B, float),
                       C=np.asarray(C, float), b=np.asarray(b, float), op=op)


class TestCondense:
    def test_m1_blocks(self):
        lm = synthetic_model([[0.9, 0.1], [0.0, 0.8]], [[0.2], [0.3]],
                             [[1.0, 0.0], [0.0, -1.0]], [0.5, -0.5])
        y0 = np.array([0.4, -0.2])
        w = np.array([1e-3, 2e-3])
        ch = condense(lm, 1, y0, [w], 1e-3, P)
        assert np.allclose(ch.G, [[lm.B[1, 0]]])
        x1 = lm.A @ y0 + lm.C @ w + lm.b
        assert np.allclose(ch.free, [x1[1]])

    def test_identity_dynamics_blocks(self):
        lm = synthetic_model(np.eye(2), [[0.2], [0.3]], np.zeros((2, 2)),
                             [0.0, 0.0])
        ch = condense(lm, 3, [0.0, 0.0], np.zeros((3, 2)), 1e-3, P)
        for k in range(3):
            for j in range(k + 1):
                assert ch.G[k, j] == pytest.approx(lm.B[1, 0], rel=1e-12)

    def test_block_triangular(self):
        rng = np.random.default_rng(13)
        lm = random_linear_model(rng)
        M = 5
        ch = condense(lm, M, rng.normal(size=2), rng.normal(size=(M, 2)),
                      1e-3, P)
        assert np.all(np.triu(ch.G, k=1) == 0.0)
        assert ch.lam == 1e-3

    def test_prediction_matches_forward_recursion(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            lm = random_linear_model(rng)
            M = int(rng.integers(1, 8))
            y0 = rng.normal(size=2)
            w_dev = rng.normal(size=(M, 2)) * 1e-4
            U = rng.uniform(0.0, 1.0, size=M)
            ch = condense(lm, M, y0, w_dev, 1e-3, P)
            Y = predict(ch, U)
            d = lm.b - lm.B[:, 0] * lm.op.u
            x = y0.copy()
            for k in range(M):
                x = lm.A @ x + lm.B[:, 0] * U[k] + lm.C @ w_dev[k] + d
                assert np.all(np.abs(Y[2 * k:2 * k + 2] - x) <= 1e-12
                              * (1.0 + np.abs(x)))

    def test_rejects_bad_horizon_and_weight(self):
        lm = synthetic_model(np.eye(2), [[0.1], [0.1]], np.zeros((2, 2)),
                             [0.0, 0.0])
        with pytest.raises(ValueError):
            condense(lm, 0, [0, 0], np.zeros((0, 2)), 1e-3, P)
        with pytest.raises(ValueError):
            condense(lm, 65, [0, 0], np.zeros((65, 2)), 1e-3, P)
        with pytest.raises(ValueError):
            condense(lm, 2, [0, 0], np.zeros((2, 2)), 0.0, P)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, 0.0])
    def test_rejects_weight_that_is_not_finite_and_positive(self, lam):
        lm = synthetic_model(np.eye(2), [[0.1], [0.1]], np.zeros((2, 2)),
                             [0.0, 0.0])
        with pytest.raises(ValueError, match="lam must be finite and positive"):
            condense(lm, 2, [0, 0], np.zeros((2, 2)), lam, P)


class TestSolveQp:
    def _random_condensed(self, rng, M):
        lm = random_linear_model(rng)
        return condense(lm, M, rng.normal(size=2), rng.normal(size=(M, 2)) * 1e-4,
                        float(rng.uniform(1e-4, 1.0)), P)

    def test_gradient_zero_at_unclamped_solution(self):
        rng = np.random.default_rng(15)
        for M in (1, 4, 10):
            for _ in range(10):
                ch = self._random_condensed(rng, M)
                sol = solve_mpc_qp(ch)
                h = 1e-6
                grad = np.empty(M)
                for j in range(M):
                    e = np.zeros(M)
                    e[j] = h
                    grad[j] = (condensed_cost(ch, sol.u_free + e)
                               - condensed_cost(ch, sol.u_free - e)) / (2 * h)
                scale = 1.0 + abs(condensed_cost(ch, sol.u_free)) \
                    + float(np.linalg.norm(sol.u_free))
                assert np.linalg.norm(grad) <= 1e-7 * scale

    def test_local_minimality(self):
        rng = np.random.default_rng(16)
        ch = self._random_condensed(rng, 4)
        sol = solve_mpc_qp(ch)
        j_star = condensed_cost(ch, sol.u_free)
        for _ in range(100):
            delta = rng.normal(size=4)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert j_star <= condensed_cost(ch, sol.u_free + delta) + 1e-15

    def test_huge_control_weight_zeroes_control(self):
        rng = np.random.default_rng(17)
        lm = random_linear_model(rng)
        ch = condense(lm, 4, rng.normal(size=2), np.zeros((4, 2)), 1e9, P)
        sol = solve_mpc_qp(ch)
        assert np.max(np.abs(sol.u_free)) <= 1e-6

    def test_on_target_zero_everything_gives_zero_control(self):
        lm = synthetic_model(np.eye(2), [[0.2], [0.3]], np.zeros((2, 2)),
                             [0.0, 0.0])
        lm2 = LinearModel(A=lm.A, B=lm.B, C=lm.C, b=lm.b,
                          op=OperatingPoint(0.0, P.x2_target, 0.0, 0.0, 0.0))
        ch = condense(lm2, 4, [0.0, 0.0], np.zeros((4, 2)), 1e-3, P)
        sol = solve_mpc_qp(ch)
        assert np.allclose(sol.u, 0.0, atol=1e-12)
        assert not sol.clamped

    @pytest.mark.parametrize("tau", [1.0, 60.0])
    def test_matches_dense_reference_at_max_horizon(self, tau):
        # Dense QP of the full 2M-state prediction, its response matrix
        # read off ``predict`` on unit vectors: (B'QB + lam I) u = -B'Q r.
        p = PlantParams(tau=tau)
        rng = np.random.default_rng(19)
        M = MAX_HORIZON
        # full cistern, dry soil: the pump is open and u matters
        op = OperatingPoint(x1=97.5, x2=2.42, u=0.3, w_r=1e-6, w_e=4e-5)
        lm = linearize_at(op, SmoothParams(plant=p, eps=0.5))
        ch = condense(lm, M, rng.normal(size=2), rng.normal(size=(M, 2)) * 1e-4,
                      1e-3, p)
        y_free = predict(ch, np.zeros(M))
        B_full = np.column_stack([predict(ch, e) - y_free for e in np.eye(M)])
        Q = np.kron(np.eye(M), np.diag([0.0, 1.0 / p.a2 ** 2]))
        target = np.tile([0.0, p.x2_target - lm.op.x2], M)
        H = B_full.T @ Q @ B_full + 1e-3 * np.eye(M)
        u_ref = np.linalg.solve(H, -B_full.T @ Q @ (y_free - target))
        u_free = solve_mpc_qp(ch).u_free
        assert np.linalg.norm(u_ref) > 0.0
        assert np.linalg.norm(u_free - u_ref) <= 1e-10 * np.linalg.norm(u_ref)

    def test_clamping(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            ch = self._random_condensed(rng, 3)
            sol = solve_mpc_qp(ch)
            assert np.all(sol.u >= 0.0) and np.all(sol.u <= 1.0)
            assert sol.clamped == bool(np.any(sol.u != sol.u_free))


class TestBatchedQp:
    def _horizon(self, G, free, lam):
        return CondensedHorizon(G=np.asarray(G, float), free=np.asarray(free, float), lam=lam,
                                x2_ref=np.zeros(np.shape(free)[:-1]), a2=1.0,
                                lm=None, y0=None, w_dev=None)

    def test_batch_entries_equal_single_solves(self):
        rng = np.random.default_rng(21)
        G = np.tril(rng.normal(size=(5, 6, 6)))
        free = rng.normal(size=(5, 6))
        batch = solve_mpc_qp(self._horizon(G, free, 1e-2))
        for j in range(5):
            alone = solve_mpc_qp(self._horizon(G[j], free[j], 1e-2))
            assert batch.u_free[j].tobytes() == alone.u_free.tobytes()
            assert batch.u[j].tobytes() == alone.u.tobytes()
        # one flag for the whole batch: set if any entry clamped
        assert batch.clamped == bool((batch.u != batch.u_free).any())

    def test_one_singular_entry_fails_the_batch(self):
        rng = np.random.default_rng(22)
        good = np.tril(rng.normal(size=(4, 4)))
        bad = np.tril(np.ones((4, 4))) * 1e10
        bad[:, -1] = bad[:, 0]   # rank deficient, and lam too small to mend it
        free = rng.normal(size=(2, 4))
        solve_mpc_qp(self._horizon(good, free[0], 1e-30))
        with pytest.raises(NearSingularSystem):
            solve_mpc_qp(self._horizon(bad, free[1], 1e-30))
        with pytest.raises(NearSingularSystem):
            solve_mpc_qp(self._horizon([good, bad], free, 1e-30))

    def test_overflowed_residual_scale_fails(self):
        # at 1e150 G'G stays finite, but |H|_F overflows, so the residual
        # scale is inf and an unguarded comparison would pass any residual;
        # at 1e160 G'G itself overflows, which must not warn either
        free = np.random.default_rng(22).normal(size=4)
        for size in (1e150, 1e160):
            bad = np.tril(np.ones((4, 4))) * size
            bad[:, -1] = bad[:, 0]
            with pytest.raises(NearSingularSystem):
                solve_mpc_qp(self._horizon(bad, free, 1e-300))

    def test_condense_rejects_misshapen_inputs(self):
        lm = synthetic_model(np.eye(2), [[0.1], [0.1]], np.zeros((2, 2)), [0.0, 0.0])
        with pytest.raises(ValueError, match="y0"):
            condense(lm, 2, [0.0, 0.0, 0.0], np.zeros((2, 2)), 1e-3, P)
        with pytest.raises(ValueError, match="w_dev"):
            condense(lm, 2, [0.0, 0.0], np.zeros((3, 2)), 1e-3, P)


def _two_product_condense(lm, M, y0, w_dev):
    """(G, free) of the forward pass with one product per recursion and
    step: the reference that the stacked product must reproduce bit for
    bit."""
    batch = lm.A.shape[:-2]
    drive = (w_dev @ lm.C.T
             + (lm.b - lm.B[..., 0] * np.asarray(lm.op.u)[..., None])[..., None, :])[..., None]
    h = np.zeros((*batch, 2 * M - 1))
    free = np.empty((*batch, M))
    AkB, x = lm.B, y0[..., None]
    for k in range(M):
        h[..., k] = AkB[..., 1, 0]
        AkB = lm.A @ AkB
        x = lm.A @ x + drive[..., k, :, :]
        free[..., k] = x[..., 1, 0]
    n = np.arange(M)
    return h[..., (n[:, None] - n) % (2 * M - 1)], free


EDGE_X1 = st.sampled_from([-0.0, P.a1 * P.z_o, P.pump_gate_volume, P.cap1]) \
    | st.floats(P.a1 * P.z_o, P.a1 * (P.z_o + SP.eps)) | st.floats(0.0, P.cap1)
EDGE_X2 = st.sampled_from([-0.0, P.x2_target, P.z_cap]) | st.floats(0.0, P.cap2)
EDGE_U = st.sampled_from([-0.0, 0.0, 1.0]) | st.floats(0.0, 1.0)


class TestStackedCondense:
    """``condense`` advances A^k B and the free state as the two entries of
    one stacked product; it gives the bits of one product per recursion,
    for a scalar model and for each model of a batch, at models linearized
    at edge states and at random ones."""

    @given(points=st.lists(st.tuples(EDGE_X1, EDGE_X2, EDGE_U), min_size=1, max_size=4),
           M=st.integers(1, 12), tau=st.sampled_from([1.0, 60.0, 3600.0]),
           seed=st.integers(0, 2 ** 16), per_model=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_same_bits_as_two_products(self, points, M, tau, seed, per_model):
        rng = np.random.default_rng(seed)
        sp = SmoothParams(plant=PlantParams(tau=tau), eps=0.5)
        x1, x2, u = (np.array(c) for c in zip(*points))
        models = [linearize_at(OperatingPoint(x1=x1, x2=x2, u=u, w_r=1e-6, w_e=4e-5), sp),
                  synthetic_model(rng.normal(size=(len(u), 2, 2)), rng.normal(size=(len(u), 2, 1)),
                                  rng.normal(size=(2, 2)), rng.normal(size=(len(u), 2)), u)]
        models += [linearize_at(OperatingPoint(x1=float(a), x2=float(b), u=float(c),
                                               w_r=1e-6, w_e=4e-5), sp)
                   for a, b, c in points]
        for lm in models:
            batch = lm.A.shape[:-2]
            y0 = rng.choice([-0.0, 0.0, 1.0], size=(*batch, 2)) if per_model else np.zeros(2)
            w_dev = rng.normal(size=(*batch, M, 2) if per_model else (M, 2)) * 1e-4
            ch = condense(lm, M, y0, w_dev, 1e-3, P)
            G, free = _two_product_condense(lm, M, y0, w_dev)
            assert ch.G.flags.c_contiguous and ch.free.flags.c_contiguous
            assert (ch.G.shape, ch.free.shape) == (G.shape, free.shape)
            assert ch.G.tobytes() == G.tobytes() and ch.free.tobytes() == free.tobytes()
