"""The three pump controllers as step functions (time, state, forecast) -> u."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linearize import OperatingPoint, condense, linearize_at, solve_mpc_qp
from .plant import PlantParams, pump_gate
from .riskdp import PolicyTable
from .smooth import SmoothParams

__all__ = [
    "MpcConfig",
    "ControllerState",
    "initial_controller_state",
    "mpc_step",
    "onoff_step",
    "dp_step",
]


@dataclass(frozen=True)
class MpcConfig:
    plant: PlantParams
    horizon: int = 10
    lam: float = 1e-3
    eps: float = 0.5

    @cached_property
    def smooth(self) -> SmoothParams:
        """The smooth surrogate, built once per config."""
        return SmoothParams(plant=self.plant, eps=self.eps)


@dataclass(frozen=True)
class ControllerState:
    """Receding-horizon bookkeeping: last control and the disturbance
    history (trailing window of length <= horizon) with its mean. The
    last control has the states' shape; every state sees the same
    weather, so the history and its mean are shared."""

    u_bar: float | np.ndarray
    w_bar: tuple[float, float]
    history: tuple[tuple[float, float], ...]


def initial_controller_state() -> ControllerState:
    """Starting operating point: no pumping, no weather."""
    return ControllerState(u_bar=0.0, w_bar=(0.0, 0.0), history=())


def mpc_step(t: int, x1, x2, forecast, cs: ControllerState,
             cfg: MpcConfig) -> tuple[float | np.ndarray, ControllerState]:
    """One receding-horizon step, elementwise on state arrays.

    Linearizes at the measured state with the previous control and the
    trailing-mean disturbance, condenses the horizon, solves the QP, and
    applies the first (clamped) control. The returned state has the
    operating point updated for the next call. States of shape (m,) give
    m controls, each the bits of that state's scalar call; all of them
    share the one forecast.
    """
    forecast = np.asarray(forecast, dtype=float).reshape(-1, 2)
    if forecast.shape[0] != cfg.horizon:
        raise ValueError("forecast length must equal the MPC horizon")
    op = OperatingPoint(x1=np.asarray(x1, dtype=float), x2=np.asarray(x2, dtype=float),
                        u=cs.u_bar, w_r=cs.w_bar[0], w_e=cs.w_bar[1])
    lm = linearize_at(op, cfg.smooth)
    y0 = np.zeros(2)  # linearized at the measured state
    w_dev = forecast - np.asarray(cs.w_bar)
    ch = condense(lm, cfg.horizon, y0, w_dev, cfg.lam, cfg.plant)
    u = solve_mpc_qp(ch).u[..., 0][()]   # [()] makes a scalar state's control a scalar

    history = (cs.history + (tuple(forecast[0]),))[-cfg.horizon:]
    w_bar = tuple(np.mean(history, axis=0))
    return u, ControllerState(u_bar=u, w_bar=w_bar, history=history)


def onoff_step(x1, x2, v: float, p: PlantParams):
    """Reactive on/off rule: pump at rate v, clamped to [0, 1], wherever
    the plant's pump gate is open, else stay off. Elementwise on state
    arrays."""
    if v <= 0:
        raise ValueError("on/off rate v must be positive")
    return np.where(pump_gate(x1, x2, p), min(v, 1.0), 0.0)


def dp_step(t: int, x1, x2, policy: PolicyTable):
    """Tabulated risk-averse policy looked up at the policy grid's nearest
    node. Elementwise on state arrays."""
    if t >= policy.horizon:
        raise ValueError("time index beyond the policy horizon")
    return policy.actions[policy.mu[t, policy.grid.nearest(x1, x2)]]
