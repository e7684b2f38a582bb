"""Smooth surrogate of the plant: the vector field and its Jacobian.

A smooth square root replaces the kinked square roots, and logistic
gates replace the hard on/off conditions. As the smoothing scale eps
shrinks, the smooth vector field converges pointwise to the exact one
away from the switching surfaces. Each root, gate and flow law is
written once and returns its value with its derivatives from the same
evaluation; ``f_eps_rhs`` and ``f_eps_jacobians`` both build on them.
The two roots are evaluated as one stacked array and the three gates as
another, in two rounds of numpy calls instead of five; each entry keeps
the bits of its own evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .plant import PlantParams, check_control, mass_balance

__all__ = [
    "SmoothParams",
    "smooth_sqrt",
    "sigmoid_gate",
    "q_out_eps",
    "q_pump_eps",
    "q_drain_eps",
    "f_eps_rhs",
    "f_eps_jacobians",
]

EXP_CLAMP = 500.0  # gates are saturated long before the exponent gets here

_SENSE_SIGNS = {"activate-above": 1.0, "activate-below": -1.0}
# the plant's three gates in the order they stack on a first axis:
# drainage on x2 opens above the soil capacity, the pumps' moisture gate
# on x2 below the target, and their suction gate on x1 above its volume
_GATE_SIGNS = np.array([1.0, -1.0, 1.0])


@dataclass(frozen=True)
class SmoothParams:
    """Smoothing scale and the plant it applies to."""

    plant: PlantParams = field(default_factory=PlantParams)
    eps: float = 0.5

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("smoothing scale eps must be positive")


def _sqrt_and_slope(y, eps: float):
    """:func:`smooth_sqrt` and its derivative, from one evaluation. The
    cubic blend calls np.power, which, unlike ``**`` on a numpy scalar,
    takes the array loop at every shape, so a scalar and a batch round
    alike."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    y = np.asarray(y, dtype=float)
    yc = np.maximum(y, 0.0)
    low = (2.0 / 3.0) * math.sqrt(eps)   # IEEE sqrt, as np.sqrt, without a ufunc call
    high = np.sqrt(np.maximum(yc, eps))
    off, band = y <= 0.0, y <= eps
    value = np.where(off, low, np.where(band, np.power(yc, 1.5) / (3.0 * eps) + low, high))
    slope = np.where(off, 0.0, np.where(band, np.sqrt(yc) / (2.0 * eps), 0.5 / high))
    return value, slope


def _logistic(z, threshold, sign, eps: float):
    """Logistic gates and their slopes in z, from one evaluation. ``sign``
    is +1 for a gate that opens above its threshold and -1 for one that
    opens below: -(threshold - z) is exactly z - threshold. Thresholds and
    signs may be arrays that broadcast against z, one entry per gate."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    e = sign * (threshold - np.asarray(z, dtype=float)) / eps
    # np.clip's value, at a fraction of its call cost on a scalar
    s = 1.0 / (1.0 + np.exp(np.minimum(np.maximum(e, -EXP_CLAMP), EXP_CLAMP)))
    return s, sign * s * (1.0 - s) / eps


def _gate_and_slope(z, threshold: float, sense: str, eps: float):
    """:func:`sigmoid_gate` and its derivative, from one evaluation."""
    if sense not in _SENSE_SIGNS:
        raise ValueError(f"unknown gate sense {sense!r}")
    return _logistic(z, threshold, _SENSE_SIGNS[sense], eps)


def smooth_sqrt(y, eps: float):
    """C1 approximation of sqrt(max(y, 0)).

    Constant (2/3)sqrt(eps) for y <= 0, a cubic-power blend on (0, eps],
    and exactly sqrt(y) for y > eps.
    """
    return _sqrt_and_slope(y, eps)[0]


def sigmoid_gate(z, threshold: float, sense: str, eps: float):
    """Logistic gate in (0, 1) switching at ``threshold``.

    ``sense='activate-above'`` rises towards 1 as z exceeds the threshold;
    ``sense='activate-below'`` falls towards 0. The exponent is clamped so
    a fully saturated gate never overflows.
    """
    return _gate_and_slope(z, threshold, sense, eps)[0]


def _roots(x1, sp: SmoothParams):
    """The outlet root and the pump-curve root, stacked on a first axis
    in that order, and their slopes in their radicands: one evaluation
    for both."""
    p = sp.plant
    y = np.add.outer((-p.z_o, p.c_hat), x1 / p.a1)   # -z_o + x rounds as x - z_o
    y[1] -= p.d   # rounded as x1 / a1 + c_hat - d
    return _sqrt_and_slope(y, sp.eps)


def _gates(sp: SmoothParams, *inputs):
    """The first len(inputs) of the plant's gates, in ``_GATE_SIGNS``'s
    order, at their inputs, and their slopes: one evaluation for all,
    stacked on a first axis."""
    p = sp.plant
    # the inputs broadcast and stacked row by row: np.stack costs several
    # times more at these sizes
    z = np.empty((len(inputs), *np.broadcast(*inputs).shape))
    for k, x in enumerate(inputs):
        z[k] = x
    column = (len(inputs),) + (1,) * (z.ndim - 1)
    thresholds = np.array([p.z_cap, p.x2_target, p.pump_gate_volume][:len(inputs)])
    return _logistic(z, thresholds.reshape(column),
                     _GATE_SIGNS[:len(inputs)].reshape(column), sp.eps)


def _outlet(root, slope, p: PlantParams):
    """Smooth outlet flow and its slope in x1, from the outlet root."""
    return p.c_out * root, p.c_out * slope / p.a1


def _pump(psi, dpsi, g1, dg1, g2, dg2, u, p: PlantParams):
    """Smooth pump flow and its partials in x1, x2 and u, from the
    pump-curve root psi and the suction and moisture gates g1 and g2."""
    check_control(u)
    ub = u * p.b
    flow = ub * psi * g1   # the left-to-right prefix q_p and its x2 partial share
    return (flow * g2, ub * (dpsi / p.a1 * g1 + psi * dg1) * g2, flow * dg2,
            p.b * psi * g1 * g2)


def _drain(x2, g3, dg3, p: PlantParams):
    """Smooth drainage and its slope in x2, from the drainage gate g3."""
    level = x2 / p.a2 + p.z_soil
    rate = p.K * p.a2 * level / p.z_soil
    return rate * g3, p.K * p.a2 * (g3 / (p.a2 * p.z_soil) + level / p.z_soil * dg3)


def q_out_eps(x1, sp: SmoothParams):
    """Smooth outlet flow: the kink at x1/a1 = z_o is blended over eps."""
    r, dr = _roots(x1, sp)
    return _outlet(r[0], dr[0], sp.plant)[0]


def q_pump_eps(x1, x2, u, sp: SmoothParams):
    """Smooth pump flow: smooth pump curve times two logistic gates."""
    r, dr = _roots(x1, sp)
    g, dg = _gates(sp, x2, x2, x1)
    return _pump(r[1], dr[1], g[2], dg[2], g[1], dg[1], u, sp.plant)[0]


def q_drain_eps(x2, sp: SmoothParams):
    """Smooth drainage: the Darcy rate gated above the soil capacity."""
    g, dg = _gates(sp, x2)
    return _drain(x2, g[0], dg[0], sp.plant)[0]


def f_eps_rhs(x1, x2, u, w_r, w_e, sp: SmoothParams):
    """Smooth vector field: same mass balance as the exact plant."""
    return mass_balance(q_out_eps(x1, sp), q_pump_eps(x1, x2, u, sp),
                        q_drain_eps(x2, sp), w_r, w_e, sp.plant)


def f_eps_jacobians(x1, x2, u, w_r, w_e, sp: SmoothParams):
    """The smooth field and its Jacobians in x, u and w, elementwise on
    state arrays: ``(f, Jx, Ju, Jw)`` of shapes (..., 2), (..., 2, 2),
    (..., 2, 1) and (2, 2), where ``...`` is the states' shape. Jw does
    not depend on the point, so all points share it. Both roots are one
    evaluation and the three gates another; each flow law then reads its
    entries, with the arithmetic of the single-flow functions."""
    p = sp.plant
    r, dr = _roots(x1, sp)
    g, dg = _gates(sp, x2, x2, x1)
    q_o, dqo = _outlet(r[0], dr[0], p)
    q_p, qp_x1, qp_x2, qp_u = _pump(r[1], dr[1], g[2], dg[2], g[1], dg[1], u, p)
    q_d, dqd = _drain(x2, g[0], dg[0], p)
    f1, f2 = mass_balance(q_o, q_p, q_d, w_r, w_e, p)
    shape = np.shape(f1)
    f = np.empty((*shape, 2))
    f[..., 0], f[..., 1] = f1, f2
    jx = np.empty((*shape, 2, 2))
    jx[..., 0, 0], jx[..., 0, 1] = -dqo - qp_x1, -qp_x2
    jx[..., 1, 0], jx[..., 1, 1] = qp_x1, qp_x2 - dqd
    ju = np.empty((*shape, 2, 1))
    ju[..., 0, 0], ju[..., 1, 0] = -qp_u, qp_u
    return f, jx, ju, np.array([[p.a_in, 0.0], [p.a2, -1.0]])
