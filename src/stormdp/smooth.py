"""Smooth surrogate of the plant: the vector field and its Jacobian.

A smooth square root replaces the kinked square roots, and logistic
gates replace the hard on/off conditions. As the smoothing scale eps
shrinks, the smooth vector field converges pointwise to the exact one
away from the switching surfaces. ``f_eps_jacobians`` is the one
evaluation of the model: it evaluates the two roots as one stacked array
and the three gates as another, each entry with the bits of its own
evaluation, and takes every flow law and its partials from them.
``f_eps_rhs`` returns its field's columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .plant import PlantParams, check_control, mass_balance

__all__ = [
    "SmoothParams",
    "smooth_sqrt",
    "f_eps_rhs",
    "f_eps_jacobians",
]

EXP_CLAMP = 500.0  # gates are saturated long before the exponent gets here

# the plant's three gates in the order they stack on a first axis:
# drainage on x2 opens above the soil capacity (+1), the pumps' moisture
# gate on x2 below the target (-1), and their suction gate on x1 above
# its volume (+1)
_GATE_SIGNS = np.array([1.0, -1.0, 1.0])


@dataclass(frozen=True)
class SmoothParams:
    """Smoothing scale and the plant it applies to."""

    plant: PlantParams = field(default_factory=PlantParams)
    eps: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"smoothing scale eps must be finite and positive, "
                             f"got {self.eps!r}")


def _sqrt_and_slope(y, eps: float):
    """:func:`smooth_sqrt` and its derivative, from one evaluation. The
    cubic blend calls np.power, which, unlike ``**`` on a numpy scalar,
    takes the array loop at every shape, so a scalar and a batch round
    alike."""
    y = np.asarray(y, dtype=float)
    yc = np.maximum(y, 0.0)
    low = (2.0 / 3.0) * math.sqrt(eps)   # IEEE sqrt, as np.sqrt, without a ufunc call
    high = np.sqrt(np.maximum(yc, eps))
    off, band = y <= 0.0, y <= eps
    value = np.where(off, low, np.where(band, np.power(yc, 1.5) / (3.0 * eps) + low, high))
    slope = np.where(off, 0.0, np.where(band, np.sqrt(yc) / (2.0 * eps), 0.5 / high))
    return value, slope


def smooth_sqrt(y, eps: float):
    """C1 approximation of sqrt(max(y, 0)).

    Constant (2/3)sqrt(eps) for y <= 0, a cubic-power blend on (0, eps],
    and exactly sqrt(y) for y > eps.
    """
    return _sqrt_and_slope(y, SmoothParams(eps=eps).eps)[0]


def f_eps_rhs(x1, x2, u, w_r, w_e, sp: SmoothParams):
    """Smooth vector field (f1, f2): the columns of
    :func:`f_eps_jacobians`'s field."""
    f = f_eps_jacobians(x1, x2, u, w_r, w_e, sp)[0]
    return f[..., 0], f[..., 1]


def f_eps_jacobians(x1, x2, u, w_r, w_e, sp: SmoothParams):
    """The smooth field and its Jacobians in x, u and w, elementwise on
    state arrays: ``(f, Jx, Ju, Jw)`` of shapes (..., 2), (..., 2, 2),
    (..., 2, 1) and (2, 2), where ``...`` is the states' shape. Jw does
    not depend on the point, so all points share it.

    The outlet flow is c_out times the smooth root of x1/a1 - z_o. The
    pump flow is u b psi g1 g2, with psi the smooth root of the pump
    curve, g1 the suction gate and g2 the moisture gate. Drainage is the
    Darcy rate times the drainage gate g3. Each gate is a logistic in
    (0, 1) whose exponent is clamped, so a saturated gate never
    overflows. The mass balance is the exact plant's."""
    p, eps = sp.plant, sp.eps
    check_control(u)
    # the outlet root and the pump-curve root, stacked on a first axis
    y = np.add.outer((-p.z_o, p.c_hat), x1 / p.a1)   # -z_o + x rounds as x - z_o
    y[1] -= p.d   # rounded as x1 / a1 + c_hat - d
    (root, psi), (droot, dpsi) = _sqrt_and_slope(y, eps)
    # the three gates' inputs stacked row by row in _GATE_SIGNS's order:
    # np.stack costs several times more at these sizes
    z = np.empty((3, *np.broadcast(x2, x1).shape))
    z[0], z[1], z[2] = x2, x2, x1
    column = (3,) + (1,) * (z.ndim - 1)
    threshold = np.array([p.z_cap, p.x2_target, p.pump_gate_volume]).reshape(column)
    sign = _GATE_SIGNS.reshape(column)
    e = sign * (threshold - z) / eps   # -(threshold - z) is exactly z - threshold
    # np.clip's value, at a fraction of its call cost on a scalar
    g = 1.0 / (1.0 + np.exp(np.minimum(np.maximum(e, -EXP_CLAMP), EXP_CLAMP)))
    (g3, g2, g1), (dg3, dg2, dg1) = g, sign * g * (1.0 - g) / eps
    q_o, dqo = p.c_out * root, p.c_out * droot / p.a1
    ub = u * p.b
    flow = ub * psi * g1   # the left-to-right prefix q_p and its x2 partial share
    q_p, qp_x2 = flow * g2, flow * dg2
    qp_x1 = ub * (dpsi / p.a1 * g1 + psi * dg1) * g2
    qp_u = p.b * psi * g1 * g2
    level = x2 / p.a2 + p.z_soil
    q_d = p.K * p.a2 * level / p.z_soil * g3
    dqd = p.K * p.a2 * (g3 / (p.a2 * p.z_soil) + level / p.z_soil * dg3)
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
