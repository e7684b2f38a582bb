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
    history (trailing window of length <= horizon) with its mean."""

    u_bar: float
    w_bar: tuple[float, float]
    history: tuple[tuple[float, float], ...]


def initial_controller_state() -> ControllerState:
    """Starting operating point: no pumping, no weather."""
    return ControllerState(u_bar=0.0, w_bar=(0.0, 0.0), history=())


def mpc_step(t: int, x1: float, x2: float, forecast, cs: ControllerState,
             cfg: MpcConfig) -> tuple[float, ControllerState]:
    """One receding-horizon step.

    Linearizes at the measured state with the previous control and the
    trailing-mean disturbance, condenses the horizon, solves the QP, and
    applies the first (clamped) control. The returned state has the
    operating point updated for the next call.
    """
    forecast = np.asarray(forecast, dtype=float).reshape(-1, 2)
    if forecast.shape[0] != cfg.horizon:
        raise ValueError("forecast length must equal the MPC horizon")
    op = OperatingPoint(x1=float(x1), x2=float(x2), u=cs.u_bar,
                        w_r=cs.w_bar[0], w_e=cs.w_bar[1])
    lm = linearize_at(op, cfg.smooth)
    y0 = np.zeros(2)  # linearized at the measured state
    w_dev = forecast - np.asarray(cs.w_bar)
    ch = condense(lm, cfg.horizon, y0, w_dev, cfg.lam, cfg.plant)
    sol = solve_mpc_qp(ch)
    u = float(sol.u[0])

    history = (cs.history + (tuple(forecast[0]),))[-cfg.horizon:]
    w_bar = tuple(np.mean(history, axis=0))
    return u, ControllerState(u_bar=u, w_bar=w_bar, history=history)


def onoff_step(x1: float, x2: float, v: float, p: PlantParams) -> float:
    """Reactive on/off rule: pump at rate v, clamped to [0, 1], wherever
    the plant's pump gate is open, else stay off."""
    if v <= 0:
        raise ValueError("on/off rate v must be positive")
    return float(min(v, 1.0)) if pump_gate(x1, x2, p) else 0.0


def dp_step(t: int, x1: float, x2: float, policy: PolicyTable) -> float:
    """Tabulated risk-averse policy looked up at the policy grid's nearest node."""
    if t >= policy.horizon:
        raise ValueError("time index beyond the policy horizon")
    idx = int(policy.grid.nearest(x1, x2))
    return float(policy.actions[policy.mu[t, idx]])
