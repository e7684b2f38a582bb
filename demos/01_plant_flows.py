#!/usr/bin/env python3
"""Tour of the exact two-tank plant: flow laws and a passive storm.

The system is an underground cistern (tank 1) collecting street runoff
and a rooftop vegetation bed (tank 2) irrigated from the cistern by a
pump. This script prints the individual flow laws at a few states and
then integrates the plant through a storm with the pump switched off.
"""

from stormdp import PlantParams, q_drain, q_out, q_pump, q_pump_max, step, wet_12h

p = PlantParams(tau=60.0)

print("== plant constants ==")
print(f"outlet coefficient c_out      = {p.c_out:.6f} m^2.5/s")
print(f"pump coefficient b            = {p.b:.6e} m^2.5/s")
print(f"soil moisture target x2*      = {p.x2_target:.5f} m^3")
print(f"pump suction gate (tank 1)    = {p.pump_gate_volume:.2f} m^3")
print(f"state box                     = [0, {p.cap1:g}] x [0, {p.cap2:g}] m^3")

print("\n== flow laws ==")
for x1 in (0.0, 75.0, 100.0, 150.0):
    print(f"q_out({x1:6.1f})      = {float(q_out(x1, p)):.6f} m^3/s")
for x1 in (0.0, 100.0):
    print(f"q_pump_max({x1:6.1f}) = {float(q_pump_max(x1, p)):.6e} m^3/s")
print(f"pump gated off when soil moist:   q_pump(100, x2*, u=1) = "
      f"{float(q_pump(100.0, p.x2_target, 1.0, p)):.1f}")
print(f"pump gated off when cistern low:  q_pump(18, 0, u=1)    = "
      f"{float(q_pump(18.0, 0.0, 1.0, p)):.1f}")
print(f"drain starts at soil capacity:    q_drain(z_cap) = "
      f"{float(q_drain(p.z_cap, p)):.4e} m^3/s")

print("\n== passive storm response (pump off, 12 h synthetic wet preset) ==")
w = wet_12h(dt=p.tau)
x1, x2 = 57.7, 2.42
for t in range(721):
    if t % 120 == 0:
        print(f"t = {t * p.tau / 3600.0:4.1f} h   x1 = {x1:7.3f} m^3   "
              f"x2 = {x2:6.3f} m^3   rain = {w.w_r[t] * 3.6e6:4.1f} mm/h")
    x1n, x2n, _, _ = step(x1, x2, 0.0, w.w_r[t], w.w_e[t], p)
    x1, x2 = float(x1n), float(x2n)
print(f"final: x1 = {x1:.3f}, x2 = {x2:.3f} (target {p.x2_target:.3f})")
print("without pumping the bed relies on rain alone and drifts off target.")
