#!/usr/bin/env python3
"""Mean curvature flow of triangle meshes in R^4.

Runs the semi-implicit cotangent-Laplacian flow on an icosphere and checks
the round-sphere law r(t)^2 = r0^2 - 4t, then shows the resolution guard
and the soliton residuals that classify the usual suspects.

Usage:
    python3 demos/mesh_flow.py
"""
import numpy as np

from hkflow import (Cylinder, Plane, Sphere, icosphere, run_mcf,
                    shrinker_radius_by_bisection, shrinker_residual_of_family,
                    type1_monitor)

mesh = icosphere(3, radius=1.0)
print(f"icosphere(3): {len(mesh.vertices)} vertices, "
      f"{len(mesh.triangles)} triangles, area {mesh.area():.6f} "
      f"(4 pi = {4 * np.pi:.6f})")

hist = run_mcf(mesh, dt=1e-3, t_end=0.15, scheme="semi-implicit")
print(f"\nflow to t = {hist.t[-1]:.3f}, truncated = {hist.truncated}")
# the area radius sqrt(area / 4 pi) of a round sphere is its radius
print(f"{'t':>7} {'area r':>9} {'sqrt(1-4t)':>11} {'area ratio':>11} {'1-4t':>7}")
for t, area in list(zip(hist.t, hist.area))[:: max(1, len(hist.t) // 6)]:
    r = np.sqrt(area / (4 * np.pi))
    print(f"{t:7.3f} {r:9.5f} {np.sqrt(1 - 4 * t):11.5f} "
          f"{area / hist.area[0]:11.5f} {1 - 4 * t:7.3f}")

rep = type1_monitor(hist)
print(f"\nType-I fit from max|B|: T_est = {rep.t_est:.5f} (exact 0.25)")

# Resolution guard: a coarse icosphere fails max|B| * h_min <= 0.5 at once,
# so the run truncates instead of producing garbage curvature statistics.
coarse = run_mcf(icosphere(1, radius=1.0), dt=1e-3, t_end=0.05)
print(f"icosphere(1) run: {len(coarse.t)} state(s), "
      f"truncated = {coarse.truncated}")

# Soliton residuals max |H + x^perp / 2| on parametric families: zero
# exactly on the planes through the origin and on the radius-sqrt(2)
# cylinder and radius-2 sphere.
print("\nshrinker residuals")
for label, fam in (("plane", Plane()),
                   ("cylinder r=sqrt(2)", Cylinder(np.sqrt(2.0), half_length=2.0)),
                   ("sphere r=2", Sphere(2.0)),
                   ("sphere r=1", Sphere(1.0))):
    print(f"  {label:<22} {shrinker_residual_of_family(fam):.3e}")

r = shrinker_radius_by_bisection(
    lambda r: Cylinder(r, half_length=2.0), lo=1.0, hi=2.0)
print(f"\ncylinder shrinking radius by bisection: {r:.10f} "
      f"(sqrt(2) = {np.sqrt(2):.10f})")
