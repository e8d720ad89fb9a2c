#!/usr/bin/env python3
"""The grim reaper cylinder as a translating soliton.

The product of the grim reaper curve x3 = -log cos(x1) with an x4 line
translates with unit speed in the x3 direction.  Along it the phase energy
densities, the curvature norms and the soliton residual all have closed
forms in the profile parameter u, which this script tabulates and checks.

Usage:
    python3 demos/grim_reaper_translator.py
"""
import numpy as np

from hkflow import (GrimReaper, arc_distance, frames, mean_curvature,
                    phase_sample_exact, tension, translator_residual)

g = GrimReaper()

print("profile quantities (all equal cos^2 u on the reaper)")
print(f"{'u':>8} {'|dJ|^2':>12} {'|H|^2':>12} {'det dJ':>12} {'e_del':>12}")
for u in (-1.2, -0.6, 0.0, 0.6, 1.2):
    jet = g.jet(u, 0.0)
    fr = frames(jet)
    h = mean_curvature(jet, fr)
    sm = phase_sample_exact(g, u, 0.0)
    print(f"{u:8.2f} {sm.dj_norm2():12.8f} {float(np.sum(h * h)):12.8f} "
          f"{sm.detdj:12.2e} {sm.e_del:12.8f}")
print("(det dJ = 0: the reaper cylinder is Lagrangian for omega_2,")
print(" so e_del = e_delbar = cos^2(u) / 4 pointwise)")

# Translator residual: H = V0^perp for the unit velocity V0 = e3.
uu = np.linspace(-np.pi / 2 + 0.05, np.pi / 2 - 0.05, 41)
jet = g.jet(uu, np.zeros_like(uu))
fr = frames(jet)
h = mean_curvature(jet, fr)

v_right = np.array([0.0, 0.0, 1.0, 0.0])
v_wrong = np.array([0.0, 0.0, 0.0, 1.0])
print(f"\ntranslator residual, V0 = e3: "
      f"{translator_residual(fr, h, v_right):.2e}")
print(f"translator residual, V0 = e4: "
      f"{translator_residual(fr, h, v_wrong):.6f}  (closed form sqrt(2) "
      f"= {np.sqrt(2):.6f} at u = 0)")

# Tension of the phase map has the closed form sin u cos u (sin u, 0, cos u)
# and equals -dJ(V0^tangential): translating surfaces transport their phase.
worst = 0.0
for u in np.linspace(-1.3, 1.3, 9):
    tau = tension(g, float(u), 0.0)
    closed = np.sin(u) * np.cos(u) * np.array([np.sin(u), 0.0, np.cos(u)])
    worst = max(worst, float(np.max(np.abs(tau - closed))))
print(f"\ntension vs closed form, max gap over u: {worst:.2e}")

# The reaper phase stays away from the forbidden half circle.
lam = phase_sample_exact(g, uu, np.zeros_like(uu)).lam
print(f"containment margin along the profile: {float(np.min(arc_distance(lam))):.6f}")
