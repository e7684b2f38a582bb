"""Smooth surrogate of the plant: the vector field and its Jacobian.

A smooth square root replaces the kinked square roots, and logistic
gates replace the hard on/off conditions. As the smoothing scale eps
shrinks, the smooth vector field converges pointwise to the exact one
away from the switching surfaces. Each root, gate and flow law is
written once and returns its value with its derivatives from the same
evaluation; ``f_eps_rhs`` and ``f_eps_jacobians`` both build on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .plant import PlantParams, mass_balance

__all__ = [
    "SmoothParams",
    "smooth_sqrt",
    "smooth_sqrt_deriv",
    "sigmoid_gate",
    "sigmoid_gate_deriv",
    "q_out_eps",
    "q_pump_eps",
    "q_drain_eps",
    "f_eps_rhs",
    "f_eps_jacobians",
]

EXP_CLAMP = 500.0  # gates are saturated long before the exponent gets here


@dataclass(frozen=True)
class SmoothParams:
    """Smoothing scale and the plant it applies to."""

    plant: PlantParams = field(default_factory=PlantParams)
    eps: float = 0.5

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("smoothing scale eps must be positive")


def _sqrt_and_slope(y, eps: float):
    """:func:`smooth_sqrt` and its derivative, from one evaluation."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    y = np.asarray(y, dtype=float)
    yc = np.clip(y, 0.0, None)
    low = (2.0 / 3.0) * np.sqrt(eps)
    high = np.sqrt(np.maximum(yc, eps))
    value = np.where(y <= 0.0, low, np.where(y <= eps, yc ** 1.5 / (3.0 * eps) + low, high))
    slope = np.where(y <= 0.0, 0.0, np.where(y <= eps, np.sqrt(yc) / (2.0 * eps), 0.5 / high))
    return value, slope


def _gate_and_slope(z, threshold: float, sense: str, eps: float):
    """:func:`sigmoid_gate` and its derivative, from one evaluation."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    z = np.asarray(z, dtype=float)
    if sense == "activate-above":
        e, sign = (threshold - z) / eps, 1.0
    elif sense == "activate-below":
        e, sign = (z - threshold) / eps, -1.0
    else:
        raise ValueError(f"unknown gate sense {sense!r}")
    s = 1.0 / (1.0 + np.exp(np.clip(e, -EXP_CLAMP, EXP_CLAMP)))
    return s, sign * s * (1.0 - s) / eps


def smooth_sqrt(y, eps: float):
    """C1 approximation of sqrt(max(y, 0)).

    Constant (2/3)sqrt(eps) for y <= 0, a cubic-power blend on (0, eps],
    and exactly sqrt(y) for y > eps.
    """
    return _sqrt_and_slope(y, eps)[0]


def smooth_sqrt_deriv(y, eps: float):
    """Derivative of :func:`smooth_sqrt` with respect to y."""
    return _sqrt_and_slope(y, eps)[1]


def sigmoid_gate(z, threshold: float, sense: str, eps: float):
    """Logistic gate in (0, 1) switching at ``threshold``.

    ``sense='activate-above'`` rises towards 1 as z exceeds the threshold;
    ``sense='activate-below'`` falls towards 0. The exponent is clamped so
    a fully saturated gate never overflows.
    """
    return _gate_and_slope(z, threshold, sense, eps)[0]


def sigmoid_gate_deriv(z, threshold: float, sense: str, eps: float):
    """Derivative of :func:`sigmoid_gate` with respect to z."""
    return _gate_and_slope(z, threshold, sense, eps)[1]


def _outlet(x1, sp: SmoothParams):
    """Smooth outlet flow and its slope in x1."""
    p = sp.plant
    r, dr = _sqrt_and_slope(np.asarray(x1, dtype=float) / p.a1 - p.z_o, sp.eps)
    return p.c_out * r, p.c_out * dr / p.a1


def _pump(x1, x2, u, sp: SmoothParams):
    """Smooth pump flow and its partials in x1, x2 and u."""
    u = np.asarray(u, dtype=float)
    if np.any((u < 0.0) | (u > 1.0)):
        raise ValueError("control fraction u must lie in [0, 1]")
    p = sp.plant
    psi, dpsi = _sqrt_and_slope(np.asarray(x1, dtype=float) / p.a1 + p.c_hat - p.d, sp.eps)
    g1, dg1 = _gate_and_slope(x1, p.pump_gate_volume, "activate-above", sp.eps)
    g2, dg2 = _gate_and_slope(x2, p.x2_target, "activate-below", sp.eps)
    ub = u * p.b
    return (ub * psi * g1 * g2, ub * (dpsi / p.a1 * g1 + psi * dg1) * g2,
            ub * psi * g1 * dg2, p.b * psi * g1 * g2)


def _drain(x2, sp: SmoothParams):
    """Smooth drainage and its slope in x2."""
    p = sp.plant
    x2 = np.asarray(x2, dtype=float)
    g3, dg3 = _gate_and_slope(x2, p.z_cap, "activate-above", sp.eps)
    level = x2 / p.a2 + p.z_soil
    rate = p.K * p.a2 * level / p.z_soil
    return rate * g3, p.K * p.a2 * (g3 / (p.a2 * p.z_soil) + level / p.z_soil * dg3)


def q_out_eps(x1, sp: SmoothParams):
    """Smooth outlet flow: the kink at x1/a1 = z_o is blended over eps."""
    return _outlet(x1, sp)[0]


def q_pump_eps(x1, x2, u, sp: SmoothParams):
    """Smooth pump flow: smooth pump curve times two logistic gates."""
    return _pump(x1, x2, u, sp)[0]


def q_drain_eps(x2, sp: SmoothParams):
    """Smooth drainage: the Darcy rate gated above the soil capacity."""
    return _drain(x2, sp)[0]


def f_eps_rhs(x1, x2, u, w_r, w_e, sp: SmoothParams):
    """Smooth vector field: same mass balance as the exact plant."""
    return mass_balance(q_out_eps(x1, sp), q_pump_eps(x1, x2, u, sp),
                        q_drain_eps(x2, sp), w_r, w_e, sp.plant)


def f_eps_jacobians(x1, x2, u, w_r, w_e, sp: SmoothParams):
    """The smooth field at one point and its Jacobians in x, u and w there:
    ``(f, Jx, Ju, Jw)`` of shapes (2,), (2, 2), (2, 1) and (2, 2)."""
    p = sp.plant
    q_o, dqo = _outlet(x1, sp)
    q_p, qp_x1, qp_x2, qp_u = _pump(x1, x2, u, sp)
    q_d, dqd = _drain(x2, sp)
    f1, f2 = mass_balance(q_o, q_p, q_d, w_r, w_e, p)
    return (np.array([float(f1), float(f2)]),
            np.array([[-dqo - qp_x1, -qp_x2], [qp_x1, qp_x2 - dqd]]),
            np.array([[-qp_u], [qp_u]]),
            np.array([[p.a_in, 0.0], [p.a2, -1.0]]))
