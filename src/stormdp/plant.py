"""Exact (non-smooth) two-tank stormwater plant.

Tank 1 is an underground cistern fed by street runoff through an inlet;
tank 2 is a rooftop vegetation bed irrigated by two pumps in series.
All flow laws are written to accept scalars or numpy arrays.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "PlantParams",
    "q_out",
    "q_pump_max",
    "pump_gate",
    "q_pump",
    "q_drain",
    "mass_balance",
    "f_rhs",
    "step",
]


@dataclass(frozen=True)
class PlantParams:
    """Physical constants of the two-tank system (SI units).

    Defaults are the green-roof site values. ``z_cap``, ``cap1`` and
    ``cap2`` are derived from the other parameters when omitted.
    """

    a1: float = 25.0            # cistern bottom area (m^2)
    a2: float = 68.8            # vegetation bed bottom area (m^2)
    a_pump: float = 0.01 * math.pi   # pump flow area (m^2)
    a_in: float = 0.305 ** 2 * math.pi  # tank-1 inlet area (m^2)
    a_hat: float = -5.78e5      # pump-curve quadratic coefficient (s^2/m^5)
    c_hat: float = 55.2         # pump-curve head at zero flow (m)
    c_d: float = 0.61           # outlet discharge coefficient
    d: float = 16.0             # roof elevation above cistern (m)
    D: float = 0.2              # pipe diameter (m)
    F: float = 3.56             # pipe friction factor
    g: float = 9.81             # gravity (m/s^2)
    K: float = 7.83e-8          # saturated hydraulic conductivity (m/s)
    k_L: float = 0.6            # minor loss coefficient
    l: float = 18.4             # pipe length (m)
    r_o: float = 0.125          # outlet radius (m)
    tau: float = 1.0            # time step (s)
    z_H: float = 0.6            # net positive suction head (m)
    z_o: float = 3.0            # outlet elevation (m)
    z_pump: float = 0.15        # pump elevation above cistern base (m)
    z_soil: float = 0.5         # soil depth (m)
    z_veg: float = 4.57e-2      # desired soil water depth (m)
    z_cap: float = None         # soil capacity (m^3); a2 * z_soil by default
    cap1: float = None          # tank-1 volume clamp (m^3); 2 * a1 * z_o by default
    cap2: float = None          # tank-2 volume clamp (m^3); a2 * z_soil by default

    def __post_init__(self):
        if self.z_cap is None:
            object.__setattr__(self, "z_cap", self.a2 * self.z_soil)
        if self.cap1 is None:
            object.__setattr__(self, "cap1", 2.0 * self.a1 * self.z_o)
        if self.cap2 is None:
            object.__setattr__(self, "cap2", self.a2 * self.z_soil)
        for f in fields(self):
            value = getattr(self, f.name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"parameter {f.name!r} must be a finite number")
        for name in ("a1", "a2", "a_pump", "a_in", "c_d", "d", "D", "F",
                     "g", "K", "k_L", "l", "r_o", "tau", "z_H", "z_o",
                     "z_pump", "z_soil", "z_veg"):
            if getattr(self, name) <= 0:
                raise ValueError(f"parameter {name!r} must be strictly positive")
        if self.a_hat >= 0:
            raise ValueError("a_hat must be negative (pump head falls with flow)")
        if self.c_hat <= self.d:
            raise ValueError("c_hat must exceed d so the pump radicand stays positive")
        if self.cap1 < 0 or self.cap2 < 0:
            raise ValueError("state clamps must be nonnegative")
        if self._b_squared_inv() <= 0:
            raise ValueError("head-loss coefficient must dominate a_hat")

    def _b_squared_inv(self) -> float:
        return (self.F * self.l / self.D + self.k_L) / (2.0 * self.g * self.a_pump ** 2) - self.a_hat

    @property
    def b(self) -> float:
        """Pump flow coefficient: intersection of pump curve and head loss."""
        return self._b_squared_inv() ** -0.5

    @property
    def c_out(self) -> float:
        """Outlet discharge coefficient c_d * pi * r_o^2 * sqrt(2 g)."""
        return self.c_d * math.pi * self.r_o ** 2 * math.sqrt(2.0 * self.g)

    @property
    def x2_target(self) -> float:
        """Desired water volume in tank 2 (m^3)."""
        return self.a2 * self.z_veg

    @property
    def pump_gate_volume(self) -> float:
        """Tank-1 volume below which the pumps cannot run (m^3)."""
        return self.a1 * (self.z_pump + self.z_H)

    @classmethod
    def from_dict(cls, data: dict) -> "PlantParams":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown plant parameter keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "PlantParams":
        """Read parameters from a JSON object, either flat or nested under
        a ``"plant"`` key."""
        with open(path) as fh:
            data = json.load(fh)
        if isinstance(data, dict):
            data = data.get("plant", data)
        if not isinstance(data, dict):
            raise ValueError("plant config must be a JSON object")
        return cls.from_dict(data)


def q_out(x1, p: PlantParams):
    """Gravity-driven outlet flow from tank 1 (m^3/s)."""
    head = np.asarray(x1, dtype=float) / p.a1 - p.z_o
    return np.where(head > 0.0, p.c_out * np.sqrt(np.maximum(head, 0.0)), 0.0)


def q_pump_max(x1, p: PlantParams):
    """Maximum aggregate pump flow (m^3/s): pump curve meets head loss."""
    radicand = np.asarray(x1, dtype=float) / p.a1 + p.c_hat - p.d
    if np.any(radicand <= 0.0):
        raise ValueError("pump-curve radicand not positive; invalid parameters")
    return p.b * np.sqrt(radicand)


def pump_gate(x1, x2, p: PlantParams):
    """True where the pumps may run: the soil is below its desired depth
    and the cistern level reaches the suction head. Plain arithmetic, so
    a scalar state costs no array round trip."""
    return (x2 / p.a2 < p.z_veg) & (x1 / p.a1 >= p.z_pump + p.z_H)


def q_pump(x1, x2, u, p: PlantParams):
    """Pump flow (m^3/s): a fraction u of the maximum where
    :func:`pump_gate` is open, else zero."""
    u = np.asarray(u, dtype=float)
    if np.any((u < 0.0) | (u > 1.0)):
        raise ValueError("control fraction u must lie in [0, 1]")
    x1 = np.asarray(x1, dtype=float)
    return np.where(pump_gate(x1, np.asarray(x2, dtype=float), p),
                    u * q_pump_max(x1, p), 0.0)


def q_drain(x2, p: PlantParams):
    """Darcy drainage from the soil once it reaches capacity (m^3/s)."""
    x2 = np.asarray(x2, dtype=float)
    rate = p.K * p.a2 * (x2 / p.a2 + p.z_soil) / p.z_soil
    return np.where(x2 < p.z_cap, 0.0, rate)


def mass_balance(q_o, q_p, q_d, w_r, w_e, p: PlantParams):
    """Rates of change of (x1, x2) given the outlet, pump and drain flows:
    rain on the inlet and the bed, pumping from tank 1 to tank 2, and
    evapotranspiration from the bed. The smooth surrogate shares it."""
    w_r = np.asarray(w_r, dtype=float)
    return w_r * p.a_in - q_o - q_p, w_r * p.a2 + q_p - np.asarray(w_e, dtype=float) - q_d


def f_rhs(x1, x2, u, w_r, w_e, p: PlantParams):
    """Right-hand side of the exact plant: rates of change of (x1, x2)."""
    return mass_balance(q_out(x1, p), q_pump(x1, x2, u, p), q_drain(x2, p), w_r, w_e, p)


def step(x1, x2, u, w_r, w_e, p: PlantParams):
    """Forward-Euler step of length tau, clamped to [0, cap_i] per tank.

    Returns (x1_next, x2_next, clamp1, clamp2), where ``clamp_i`` is the
    volume the clamp added (positive) or removed (negative).
    """
    f1, f2 = f_rhs(x1, x2, u, w_r, w_e, p)
    x1e = np.asarray(x1, dtype=float) + p.tau * f1
    x2e = np.asarray(x2, dtype=float) + p.tau * f2
    x1n = np.clip(x1e, 0.0, p.cap1)
    x2n = np.clip(x2e, 0.0, p.cap2)
    return x1n, x2n, x1n - x1e, x2n - x2e
