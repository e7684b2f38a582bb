#!/usr/bin/env python3
"""The differentiable plant surrogate and how it converges to the exact one.

The exact flow laws have kinks (square roots switched on at thresholds)
and hard on/off gates. The smooth surrogate replaces the square root by
a C1 blend and the gates by logistic sigmoids with scale eps, which is
what makes the linearization behind the MPC well defined everywhere.
"""

import numpy as np

from stormdp import PlantParams, SmoothParams, f_eps_jacobians, f_eps_rhs, f_rhs, smooth_sqrt

p = PlantParams()
sp = SmoothParams(plant=p, eps=0.5)

print("== smooth square root across its branches (eps = 0.5) ==")
for y in (-2.0, 0.0, 0.25, 0.5, 1.0, 4.0):
    print(f"  smooth_sqrt({y:5.2f}) = {float(smooth_sqrt(y, 0.5)):.6f}"
          f"   (exact sqrt(max(y,0)) = {np.sqrt(max(y, 0.0)):.6f})")
print("note the floor (2/3)sqrt(eps) below zero: the blend trades exactness")
print("near the kink for a globally defined derivative.")

print("\n== pump flow per unit control around the suction gate (18.75 m^3) ==")
for x1 in (14.0, 17.0, 18.75, 20.5, 23.5):
    # the exact flow is tank 2's inflow at u = 1 less that at u = 0; the
    # smooth flow is linear in u, so its u-partial is the flow at u = 1
    exact = f_rhs(x1, 0.0, 1.0, 0.0, 0.0, p)[1] - f_rhs(x1, 0.0, 0.0, 0.0, 0.0, p)[1]
    smooth = f_eps_jacobians(x1, 0.0, 0.0, 0.0, 0.0, sp)[2][1, 0]
    print(f"  x1 = {x1:5.2f}: exact = {float(exact):.6f}, smooth = {float(smooth):.6f}")

print("\n== outlet flow: exact vs smooth across the kink at 75 m^3 ==")
# with the pump off and no weather, tank 1 only drains through its
# outlet (0.0 - f keeps a zero flow from printing as -0)
for x1 in (60.0, 74.0, 75.0, 76.0, 90.0):
    exact = 0.0 - f_rhs(x1, 0.0, 0.0, 0.0, 0.0, p)[0]
    smooth = 0.0 - f_eps_rhs(x1, 0.0, 0.0, 0.0, 0.0, sp)[0]
    print(f"  x1 = {x1:5.1f}: exact = {float(exact):.6f}, smooth = {float(smooth):.6f}")
jx = f_eps_jacobians(p.a1 * p.z_o, 0.0, 0.0, 0.0, 0.0, sp)[1]
print(f"at the kink the smooth outlet's slope d(-f1)/dx1 is {0.0 - jx[0, 0]:.1f}:")
print("the linearization is defined there.")

print("\n== pointwise convergence as eps shrinks ==")
pt = (100.0, 10.0, 0.7, 2e-5, 1e-5)
f = np.array(f_rhs(*pt, p), dtype=float)
print(f"exact f at x=(100, 10), u=0.7: ({f[0]:+.6e}, {f[1]:+.6e})")
for eps in (0.5, 0.1, 0.02, 0.004):
    fe = np.array(f_eps_rhs(*pt, SmoothParams(plant=p, eps=eps)), dtype=float)
    gap = np.max(np.abs(fe - f))
    print(f"  eps = {eps:5.3f}: max |f_eps - f| = {gap:.3e}")
print("away from the switching surfaces the mismatch vanishes with eps.")
