#!/usr/bin/env python3
"""Pointwise identities of the sphere-valued phase map.

Every surface in flat R^4 carries a phase lam = (omega_a(e1, e2))_a in S^2.
This script evaluates the differential of that map two independent ways on
a random graph surface, splits its energy, and checks the algebraic
identities that tie dJ to the second fundamental form.

Usage:
    python3 demos/phase_identities.py
"""
import numpy as np

from hkflow import (QuadraticGraph, coupling_residual, curvature_form,
                    energy_split, frames, gauss_normal_curvatures,
                    mean_curvature, phase_differential, second_fundamental_form,
                    tension, Cylinder)

rng = np.random.default_rng(42)
g = QuadraticGraph.random(rng)
u, v = 0.3, -0.2

print(f"surface: {g.name}, sampled at (u, v) = ({u}, {v})\n")

jet = g.jet(u, v)
fr = frames(jet)
sff = second_fundamental_form(jet, fr)
h = mean_curvature(jet, fr, sff)

sample = phase_differential(g, u, v)
print(f"phase lam            = {np.array2string(sample.lam, precision=6)}")
print(f"|lam|                = {np.linalg.norm(sample.lam):.15f}")
print(f"dJ route gap (FD vs shape operator): {sample.route_gap:.2e}")

# Energy split: e_del + e_delbar = |dJ|^2 / 2 and e_del - e_delbar = det dJ.
print("\nenergy split")
print(f"  e_del + e_delbar - |dJ|^2/2 = "
      f"{sample.e_del + sample.e_delbar - 0.5 * sample.dj_norm2():+.2e}")
print(f"  e_del - e_delbar - det dJ   = "
      f"{sample.e_del - sample.e_delbar - sample.detdj:+.2e}")

# The holomorphic energy is pinned to the mean curvature: e_del = |H|^2/4.
res = energy_split(sample, h)
print(f"  e_del - |H|^2/4             = {float(np.max(res)):+.2e}")

# det dJ = kappa + kappa_perp (Gauss plus normal curvature).
kappa, kperp = gauss_normal_curvatures(sff)
print(f"  det dJ - (kappa + kappa_perp) = {sample.detdj - kappa - kperp:+.2e}")

# Coupling of the shape operator to dJ: B(X, Jt Y) - Jt_perp B(X, Y)
# contracts exactly against the phase differential.
cres = coupling_residual(fr, sff, sample.dj)
print(f"\ncoupling identity residual (FD dJ): {float(cres):.2e}")

# The curvature form pairs H with the structures; its rows are orthogonal
# to lam and rotate into each other under the tangent rotation.
cf = curvature_form(fr, h)
row1, row2 = cf[..., 0, :], cf[..., 1, :]
print("curvature form rows:")
print(f"  <row1, lam>          = {float(np.dot(row1, sample.lam)):+.2e}")
print(f"  row2 - lam x row1    = "
      f"{float(np.max(np.abs(row2 - np.cross(sample.lam, row1)))):.2e}")

# Tension of the phase map, checked against its alternative contraction.
cyl = Cylinder(0.8, half_length=2.0)
tau = tension(cyl, 0.4, 1.1)
print(f"\ntension on a round cylinder (harmonic phase): |tau| = "
      f"{float(np.linalg.norm(tau)):.2e}")
