"""Operating-point model of the smooth plant and the condensed
single-shot quadratic program behind the receding-horizon controller.

``linearize_at`` assembles the affine model from ``smooth.f_eps_jacobians``.
The MPC cost reads only tank 2, so the horizon is condensed onto the x2
channel: Markov parameters in a lower-triangular Toeplitz matrix and one
free response (Jerez, Kerrigan & Constantinides, CDC-ECC 2011). The
full-state ``predict`` and ``condensed_cost`` step the model directly and
serve as independent oracles for the condensed solve.

``linearize_at``, ``condense`` and ``solve_mpc_qp`` take leading batch
dimensions: an operating point whose state is an array of shape (m,)
gives m models, m condensed horizons and m QP solves, and each is the
one a scalar operating point gives, bit for bit."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .plant import PlantParams
from .smooth import SmoothParams, f_eps_jacobians

__all__ = [
    "OperatingPoint",
    "LinearModel",
    "CondensedHorizon",
    "MpcSolution",
    "NearSingularSystem",
    "check_horizon",
    "linearize_at",
    "condense",
    "solve_mpc_qp",
    "condensed_cost",
    "predict",
]

MAX_HORIZON = 64


class NearSingularSystem(RuntimeError):
    """The condensed normal equations could not be solved reliably."""


@dataclass(frozen=True)
class OperatingPoint:
    """Point (state, control, disturbance) the smooth model is expanded at.
    The state and control are scalars or arrays of one shape; the
    disturbance is shared."""

    x1: float
    x2: float
    u: float
    w_r: float
    w_e: float


@dataclass(frozen=True)
class LinearModel:
    """Affine one-step model in deviation coordinates about ``op``.

    x~_{k+1} = A x~_k + B u~_k + C w~_k + b, where x~ = x - x_op etc.
    C carries both disturbance channels (w_r, w_e) as columns.
    """

    A: np.ndarray  # (..., 2, 2)
    B: np.ndarray  # (..., 2, 1)
    C: np.ndarray  # (2, 2), shared
    b: np.ndarray  # (..., 2)
    op: OperatingPoint


@functools.cache
def _identity(n: int) -> np.ndarray:
    """The n x n identity, built once per size and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


@functools.cache
def _toeplitz_index(M: int) -> np.ndarray:
    """Index into (h_0, ..., h_{M-1}, 0, ..., 0), of length 2M - 1, that
    reads h_{k-j} at [k, j] on and below the diagonal and a zero above."""
    n = np.arange(M)
    index = (n[:, None] - n) % (2 * M - 1)
    index.flags.writeable = False
    return index


def linearize_at(op: OperatingPoint, sp: SmoothParams) -> LinearModel:
    """Euler step of the smooth field's expansion at ``op``: A = I + tau Jx,
    B = tau Ju, C = tau Jw and b = tau f_eps(op)."""
    f, jx, ju, jw = f_eps_jacobians(op.x1, op.x2, op.u, op.w_r, op.w_e, sp)
    tau = sp.plant.tau
    return LinearModel(A=_identity(2) + tau * jx, B=tau * ju, C=tau * jw, b=tau * f, op=op)


@dataclass(frozen=True)
class CondensedHorizon:
    """M steps of the affine model, condensed onto the tank-2 channel.

    The horizon cost sum_k (x2_k/a2 - z_veg)^2 + lam u_k^2 reads only
    tank 2, so only its rows of the prediction are kept: the predicted
    x2 deviations are ``G @ U + free``, with U the absolute control
    sequence (the operating-point control is folded into the affine
    term, so ``lam`` penalizes the physical pump fraction directly).
    ``lm``, ``y0`` and ``w_dev`` are kept for the full-state ``predict``.
    """

    G: np.ndarray       # (..., M, M) lower-triangular Toeplitz, G[k, j] = (A^(k-j) B)_2
    free: np.ndarray    # (..., M) x2 deviation after steps 1..M with U = 0
    lam: float
    x2_ref: np.ndarray  # (...) x2 deviation hitting x2 = a2 * z_veg
    a2: float
    lm: LinearModel
    y0: np.ndarray      # (..., 2) current state deviation
    w_dev: np.ndarray   # (..., M, 2) disturbance deviations

    @property
    def M(self) -> int:
        return self.free.shape[-1]


def check_horizon(M: int, lam: float) -> None:
    """Refuse a horizon length M outside 1..MAX_HORIZON or a control weight
    lam that is not finite and positive: the rule of every condensed
    horizon, checked too where an MPC is configured."""
    if M < 1:
        raise ValueError("horizon M must be at least 1")
    if M > MAX_HORIZON:
        raise ValueError(f"horizon M must not exceed {MAX_HORIZON}")
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"control weight lam must be finite and positive, got {lam!r}")


def condense(lm: LinearModel, M: int, y0, w_dev, lam: float,
             plant: PlantParams) -> CondensedHorizon:
    """Condense M steps of ``lm`` onto the x2 rows the cost reads.

    One forward pass gives the x2 Markov parameters h_k = (A^k B)_2,
    k = 0..M-1, and the x2 free response of x <- A x + C w_k + (b - B u_op)
    from ``y0``; ``G`` is the lower-triangular Toeplitz matrix of the h_k.
    ``y0`` is (2,) or (..., 2) and ``w_dev`` is (M, 2) or (..., M, 2),
    where ``...`` is the models' batch: one for every model, or one per
    model.
    """
    check_horizon(M, lam)
    y0 = np.asarray(y0, dtype=float)
    w_dev = np.asarray(w_dev, dtype=float)
    batch = lm.A.shape[:-2]
    if (y0.shape not in ((2,), (*batch, 2))
            or w_dev.shape not in ((M, 2), (*batch, M, 2))):
        raise ValueError(f"expected y0 of shape (2,) or {(*batch, 2)} and w_dev of shape "
                         f"({M}, 2) or {(*batch, M, 2)}, got {y0.shape} and {w_dev.shape}")
    n = lm.A.size // 4   # the batch, flattened
    # disturbance and affine term, with the absolute control folded in,
    # as (M, n, 2, 1) columns
    drive = (w_dev @ lm.C.T
             + (lm.b - lm.B[..., 0] * np.asarray(lm.op.u)[..., None])[..., None, :])
    drive = drive.reshape(n, M, 2, 1).swapaxes(0, 1)
    # S[k, 0] = A^k B and S[k, 1] = the free state after k steps: two
    # independent recursions, advanced as the two entries of one stacked
    # product. Each entry is the per-matrix BLAS call its recursion makes
    # alone; a two-column product A @ [A^k B, x] would round differently.
    S = np.empty((M + 1, 2, n, 2, 1))
    S[0, 0] = lm.B.reshape(n, 2, 1)
    S[0, 1] = y0.reshape(-1, 2, 1)
    A = lm.A.reshape(n, 2, 2)
    for s, s_next, x_next, d in zip(S, S[1:], S[1:, 1], drive):
        np.matmul(A, s, out=s_next)
        x_next += d
    h = np.zeros((n, 2 * M - 1))   # h_0..h_{M-1}, then zeros
    h[:, :M] = S[:M, 0, :, 1, 0].T
    # take, unlike fancy indexing, leaves each G C-contiguous, as BLAS
    # needs; so does the copy of free, whose strided view would carry its
    # layout into the QP's products and round them differently
    G = np.take(h, _toeplitz_index(M), axis=-1).reshape(*batch, M, M)
    free = S[1:, 1, :, 1, 0].T.copy().reshape(*batch, M)
    return CondensedHorizon(G=G, free=free, lam=float(lam),
                            x2_ref=plant.x2_target - lm.op.x2, a2=plant.a2,
                            lm=lm, y0=y0, w_dev=w_dev)


def predict(ch: CondensedHorizon, U) -> np.ndarray:
    """Stacked state-deviation prediction Y = (x_1, ..., x_M) for a control
    sequence U, stepped through the affine model (independent of ``G``)."""
    U = np.asarray(U, dtype=float).reshape(ch.M)
    lm = ch.lm
    d = lm.b - lm.B[:, 0] * lm.op.u
    Y = np.empty((ch.M, 2))
    x = ch.y0
    for k in range(ch.M):
        x = lm.A @ x + lm.B[:, 0] * U[k] + lm.C @ ch.w_dev[k] + d
        Y[k] = x
    return Y.reshape(-1)


def condensed_cost(ch: CondensedHorizon, U) -> float:
    """Quadratic horizon cost J(U) = sum_k (x2_k - s)^2 / a2^2 + lam U'U,
    evaluated on ``predict``."""
    U = np.asarray(U, dtype=float).reshape(ch.M)
    e = predict(ch, U)[1::2] - ch.x2_ref
    return float(e @ e / ch.a2 ** 2 + ch.lam * (U @ U))


@dataclass(frozen=True)
class MpcSolution:
    u: np.ndarray        # (..., M) clamped to [0, 1]
    u_free: np.ndarray   # (..., M) unconstrained stationary point
    clamped: bool        # any entry of any solve clamped


def _norm(a):
    """Frobenius norm of each matrix or column of a batch."""
    return np.sqrt(np.add.reduce(a * a, axis=(-2, -1)))


def solve_mpc_qp(ch: CondensedHorizon) -> MpcSolution:
    """Solve the unconstrained condensed QP, then clamp to [0, 1].

    The unclamped solution zeroes the cost gradient; a residual check
    guards against a near-singular normal matrix, and fails if any solve
    of a batch fails it. On ``condense``'s C-contiguous ``G`` every product
    is a BLAS call per batch entry, so an entry has the bits of the same
    solve on its own.
    """
    # vectors as (..., M, 1) columns, so each product is one stacked matmul
    G, Gt = ch.G, ch.G.swapaxes(-1, -2)
    # an overflow in G'G or in the residual is checked just below
    with np.errstate(over="ignore", invalid="ignore"):
        H = ch.lam * _identity(ch.M) + Gt @ G / ch.a2 ** 2
        g = Gt @ (ch.free - np.asarray(ch.x2_ref)[..., None])[..., None] / ch.a2 ** 2
        try:
            u_free = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError as exc:
            raise NearSingularSystem("condensed QP normal matrix is singular") from exc
        scale = _norm(H) * (1.0 + _norm(u_free)) + _norm(g)
        residual = _norm(H @ u_free + g)
        # an overflowed scale or a NaN residual would pass a plain `>` test
        if not ((residual <= 1e-8 * scale) & np.isfinite(scale)).all():
            raise NearSingularSystem("condensed QP solve residual exceeds tolerance")
    u_free = u_free[..., 0]
    u = u_free.clip(0.0, 1.0)   # np.clip without its dispatch
    return MpcSolution(u=u, u_free=u_free, clamped=bool((u != u_free).any()))
