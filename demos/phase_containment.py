#!/usr/bin/env python3
# Where a surface's phase lives on the sphere, and what that costs it.
#
# The phase map misses the closed half circle {lam1 = 0, lam2 >= 0} exactly
# when the surface is a graph in the right sense; the chart below covers the
# complement, and arc_distance measures how far each phase value stays from
# that forbidden set.  Degree and Euler numbers tie the global count of
# phase values to the topology: 2 deg = chi(T) + chi(T_perp).
#
# Usage:
#   python3 demos/phase_containment.py
import tempfile
from pathlib import Path

import numpy as np

from hkflow import (Cylinder, GrimReaper, PlaneCurve, Sphere, TorusFromCurve,
                    arc_distance, chart, containment_margin, degree, errors,
                    euler_numbers, phase_sample_exact, write_phase_field_csv)

# --- chart coordinates and distance to the half circle ----------------------
pts = {
    "south pole (0,-1,0)": np.array([0.0, -1.0, 0.0]),
    "equator (1,0,0)": np.array([1.0, 0.0, 0.0]),
    "north pole (0,1,0)": np.array([0.0, 1.0, 0.0]),
    "tilted": np.array([0.6, 0.0, 0.8]),
}
print(f"{'point':>22} {'r':>8} {'phi':>8} {'distance':>9}")
for name, lam in pts.items():
    d = float(arc_distance(lam))
    try:
        c = chart(lam)
        print(f"{name:>22} {float(c.r):8.4f} {float(c.phi):8.4f} {d:9.4f}")
    except errors.OnForbiddenSet:
        # the chart covers the complement of the half circle only
        print(f"{name:>22} {'on the forbidden set':>17} {d:9.4f}")

# --- who touches the forbidden set -----------------------------------------
# The cylinder phase (0, x2, -x1) sweeps a great circle through the set;
# the grim reaper cylinder keeps a positive margin.
uu = np.linspace(-1.5, 1.5, 20)
vv = np.linspace(-np.pi, np.pi, 40, endpoint=False)
ug, vg = np.meshgrid(uu, vv, indexing="ij")

lam_cyl = phase_sample_exact(Cylinder(1.0, half_length=2.0), ug, vg).lam
rep = containment_margin(lam_cyl.reshape(-1, 3))
print(f"\ncylinder:    margin = {rep.margin:.4f}, violation = {rep.violation}")

ur = np.linspace(-1.4, 1.4, 30)
lam_gr = phase_sample_exact(GrimReaper(), ur, np.zeros_like(ur)).lam
rep = containment_margin(lam_gr)
print(f"grim reaper: margin = {rep.margin:.4f}, violation = {rep.violation}")

# Equivariant lifts of closed curves always graze the set: their phase has
# lam1 = 0 and Re(gamma gamma') integrates to zero around the loop, so the
# margin of any closed-curve lift is exactly zero.
lift = TorusFromCurve(PlaneCurve.from_function(
    lambda x: np.exp(1j * x) * (1 + 0.3 * np.cos(2 * x)), n=128))
g = np.linspace(0, 2 * np.pi, 64, endpoint=False)
gg, hh = np.meshgrid(g, g, indexing="ij")
rep = containment_margin(phase_sample_exact(lift, gg, hh).lam.reshape(-1, 3))
print(f"curve lift:  margin = {rep.margin:.4f}, violation = {rep.violation}")

# --- degree and Euler numbers ----------------------------------------------
sph = Sphere(1.0)
d = degree(sph, n=96)
chi_t, chi_n = euler_numbers(sph, n=96)
print(f"\nsphere: deg = {d:.4f}, chi(T) = {chi_t:.4f}, chi(T_perp) = {chi_n:.1e}")
print(f"        2 deg - chi(T) - chi(T_perp) = {2 * d - chi_t - chi_n:.1e}")

torus = TorusFromCurve(PlaneCurve.circle(1.0, center=0.0, n=64))
print(f"torus:  deg = {degree(torus, n=48):.1e} (zero for any lift)")

# --- full phase field to CSV ------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "reaper_phase.csv"
    write_phase_field_csv(out, GrimReaper(), n=16)
    rows = out.read_text().strip().splitlines()
print(f"\nwrote {out.name}: {len(rows) - 1} rows, header: {rows[0]}")
