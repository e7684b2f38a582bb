#!/usr/bin/env python3
"""Receding-horizon control: linearize, condense, solve, apply, repeat.

Each MPC step linearizes the smooth plant at the measured state, the
previous control and the mean of the last M weather samples, stacks M
steps of the affine model into one quadratic program in the control
sequence, solves the unconstrained stationarity system, clamps to
[0, 1], and applies the first control to the exact (non-smooth) plant.
The controller keeps no state: the loop hands it the previous control,
and it reads its forecast and its past weather from the series.
"""

import numpy as np

from stormdp import (
    MpcConfig,
    OperatingPoint,
    PlantParams,
    SmoothParams,
    condense,
    linearize_at,
    mpc_step,
    solve_mpc_qp,
    wet_12h,
)
from stormdp.plant import step

p = PlantParams(tau=60.0)
sp = SmoothParams(plant=p, eps=0.5)

print("== one linearization, spelled out ==")
op = OperatingPoint(x1=97.5, x2=2.42, u=0.0, w_r=0.0, w_e=0.0)
lm = linearize_at(op, sp)
print("A =\n", lm.A)
print("B =", lm.B.ravel(), " (pump leaves tank 1, enters tank 2)")
print("C =\n", lm.C, " (rain and evapotranspiration channels)")
print("b =", lm.b, " (drift: the affine term tau * f_eps at the point)")

print("\n== one condensed QP at horizon M = 10 ==")
ch = condense(lm, 10, np.zeros(2), np.zeros((10, 2)), 1e-3, p)
sol = solve_mpc_qp(ch)
print("first three planned controls:", np.round(sol.u[:3], 4))
print("clamp active:", sol.clamped)

print("\n== closed loop on the wet 12 h preset, dry-ish start ==")
w = wet_12h(dt=p.tau)
cfg = MpcConfig(plant=p, horizon=10, lam=1e-3)
x1, x2 = 57.7, 2.42
u = 0.0   # the previous control: the loop, not the controller, keeps it
dev = 0.0
for t in range(720):
    u = mpc_step(t, x1, x2, u, w, cfg)
    x1n, x2n, _, _ = step(x1, x2, u, w.w_r[t], w.w_e[t], p)
    x1, x2 = float(x1n), float(x2n)
    dev += abs(x2 - p.x2_target)
    if t % 120 == 0:
        print(f"t = {t * p.tau / 3600:4.1f} h   u = {u:5.3f}   "
              f"x2 = {x2:6.3f} m^3 (target {p.x2_target:.3f})")
dev += abs(x2 - p.x2_target)
print(f"cumulative soil-moisture deviation: {dev:.2f} m^3*steps")
print("the controller pumps early, then idles once the bed sits on target.")
