"""The three pump controllers as step functions of the time and the
measured state. None of them keeps state between calls: the closed loop
hands the MPC its previous control, and the MPC reads its forecast and
its trailing disturbance window from the weather series."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .linearize import OperatingPoint, check_horizon, condense, linearize_at, solve_mpc_qp
from .plant import PlantParams, pump_gate
from .riskdp import PolicyTable
from .smooth import SmoothParams

__all__ = [
    "MpcConfig",
    "mpc_step",
    "onoff_step",
    "dp_step",
]

_NO_WEATHER = np.zeros(2)   # the disturbance before any weather row is seen
_ZERO_STATE = np.zeros(2)   # the deviation of the state the model is linearized at
_NO_WEATHER.flags.writeable = _ZERO_STATE.flags.writeable = False


@dataclass(frozen=True)
class MpcConfig:
    """MPC settings. A stage of the horizon is ``hold`` plant steps, the
    closed loop's control period: the model steps ``hold * tau``. The
    horizon, the control weight and the smoothing scale are checked when
    the config is built, not at its first decision."""

    plant: PlantParams
    horizon: int = 10
    lam: float = 1e-3
    eps: float = 0.5
    hold: int = 1

    def __post_init__(self):
        if not (isinstance(self.hold, numbers.Integral) and self.hold >= 1):
            raise ValueError(f"hold must be a whole number of plant steps, got {self.hold!r}")
        check_horizon(self.horizon, self.lam)
        self.smooth   # builds the surrogate, so SmoothParams checks eps now

    @cached_property
    def smooth(self) -> SmoothParams:
        """The smooth surrogate over one stage, built once per config."""
        return SmoothParams(plant=replace(self.plant, tau=self.plant.tau * self.hold),
                            eps=self.eps)


def mpc_step(t: int, x1, x2, u_prev, weather, cfg: MpcConfig):
    """One receding-horizon step, elementwise on state arrays.

    A stage of the M-stage horizon is k = ``cfg.hold`` plant steps.
    Linearizes at the measured state, the previous control ``u_prev``
    and the mean disturbance of the last min(t, M k) weather rows (none
    at t = 0), condenses the forecast rows t..t+Mk-1 of ``weather`` (a
    ``sim.WeatherSeries``) as M stages, each the mean of its k rows,
    solves the QP, and returns the first (clamped) control. At k = 1
    every mean is of one row and keeps its bits. States of shape (m,),
    with ``u_prev`` of the same shape, give m controls, each the bits of
    that state's scalar call; all of them share the one weather series.
    """
    rows = cfg.horizon * cfg.hold
    n = min(t, rows)
    # the (n, 2) window's column means, rounded as one stacked reduction:
    # np.mean's own arithmetic, without its wrapper
    w_bar = np.add.reduce(weather.forecast(t - n, n), axis=0) / n if n > 0 else _NO_WEATHER
    op = OperatingPoint(x1=x1, x2=x2, u=u_prev, w_r=w_bar[0], w_e=w_bar[1])
    lm = linearize_at(op, cfg.smooth)
    stages = weather.forecast(t, rows)
    if cfg.hold > 1:   # a mean of one row is that row, bit for bit
        stages = np.add.reduce(stages.reshape(-1, cfg.hold, 2), axis=1) / cfg.hold
    ch = condense(lm, cfg.horizon, _ZERO_STATE, stages - w_bar, cfg.lam, cfg.plant)
    return solve_mpc_qp(ch).u[..., 0][()]   # [()] makes a scalar state's control a scalar


def onoff_step(x1, x2, v, p: PlantParams):
    """Reactive on/off rule: pump at rate v, clamped to [0, 1], wherever
    the plant's pump gate is open, else stay off. Elementwise on state
    arrays; ``v`` is one rate, or an array of one rate per state."""
    rate = np.minimum(v, 1.0)
    if not (rate > 0.0).all():
        raise ValueError("on/off rate v must be positive")
    return np.where(pump_gate(x1, x2, p), rate, 0.0)


def dp_step(t: int, x1, x2, policy: PolicyTable):
    """Tabulated risk-averse policy looked up at the policy grid's nearest
    node. Elementwise on state arrays."""
    if t >= policy.horizon:
        raise ValueError("time index beyond the policy horizon")
    return policy.actions[policy.mu[t, policy.grid.nearest(x1, x2)]]
