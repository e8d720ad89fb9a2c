"""The identity suite of `hkflow verify`: one table of rows, each an identity
of the phase map checked by two routes.  A row's function may serve several
rows; it runs once, told the wanted rows, on one geometry pass (jet ->
frames -> second fundamental form) per set of sampled points.

Every draw comes first, in one order whatever rows are wanted: the families
(the quadratic graph's coefficients), the quaternionic rotation, one
sample_domain set per family, then the 20 det graphs, each graph's
coefficients before its samples.  So a subset reports the same rows as the
full suite; a row added later appends its draws at the end.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .curves import PlaneCurve, TorusFromCurve
from .phase import (ENERGY_TOL, _dj_fields, _dj_shape_operator,
                    _phase_differential, closed_invariants, coupling_residual,
                    degree, gauss_normal_curvatures)
from .structure import QUATERNIONIC_TOL, standard_structure
from .surfaces import (QuadraticGraph, frames, grid_geometry, mean_curvature,
                       second_fundamental_form)
from .util import random_rotation

#: the families of the rows that run on one family, in draw order
SURFACES = ("plane", "cylinder", "sphere", "grim-reaper", "quadratic-graph")


class Draws(NamedTuple):
    rotation: np.ndarray
    samples: list          # (family, u, v) per family of the suite
    graphs: list           # (graph, u, v) per det graph
    make_family: Callable  # name -> family


class Identity(NamedTuple):
    name: str
    tol: float             # on the largest residual
    own_families: bool     # samples its own, so not run with --surface
    residuals: Callable    # (Draws, wanted names) -> {name: residual}


def _worst(residuals) -> float:
    """The largest residual, NaN when any is NaN.  The builtin max keeps a
    number against a later NaN (nan > x is False), which would report a
    broken identity as a pass."""
    return float(np.max(np.asarray(residuals, dtype=float)))


def _quaternionic(d: Draws, want) -> dict:
    s = standard_structure()
    worst = _worst([s.quaternionic_residual(),
                    s.rotate(d.rotation).quaternionic_residual()])
    return {"quaternionic": worst}


def _family_rows(d: Draws, want) -> dict:
    """phase-block (omega_a(e_i, e_j) against lam) and, when wanted,
    coupling and energy, whose stencil dJ reads the pass's frames and sff."""
    s = standard_structure()
    rows = {"phase-block": [], "coupling": [], "energy": []}
    for fam, u, v in d.samples:
        jet = fam.jet(u, v)
        fr = frames(jet)
        rows["phase-block"] += [np.max(np.abs(r)) for a in (1, 2, 3) for r in (
            s.kahler_form(a, fr.e1, fr.e1), s.kahler_form(a, fr.e2, fr.e2),
            s.kahler_form(a, fr.e1, fr.e2) - fr.lam[..., a - 1])]
        if want & {"coupling", "energy"}:
            sff = second_fundamental_form(jet, fr)
            h = mean_curvature(jet, fr, sff)
            smp = _phase_differential(fam, u, v, fr, sff)
            rows["coupling"].append(np.max(coupling_residual(fr, sff, smp.dj)))
            rows["energy"].append(np.max(np.abs(
                smp.e_del - 0.25 * np.sum(h * h, axis=-1))))
    return {name: _worst(r) for name, r in rows.items() if r}


def _det_fields(fr, sff):
    """det dJ (shape-operator route), kappa + kappa_perp, |H|^2, |dJ|^2."""
    _, dj, _, _, detdj = _dj_fields(fr.lam, _dj_shape_operator(fr, sff))
    kap, kperp = gauss_normal_curvatures(sff)
    h = mean_curvature(None, fr, sff)   # with sff given, no jet is read
    return (detdj, kap + kperp, np.sum(h * h, axis=-1),
            np.sum(dj * dj, axis=(-2, -1)))


def _det_rows(d: Draws, want) -> dict:
    """det dJ = kappa + kappa_perp and = |H|^2/2 - |dJ|^2/2 on the graphs."""
    gauss, norms = [], []
    for fam, u, v in d.graphs:
        detdj, curv, h2, dj2 = grid_geometry(fam, u, v, _det_fields)
        gauss.append(np.max(np.abs(detdj - curv)))
        norms.append(np.max(np.abs(detdj - (0.5 * h2 - 0.5 * dj2))))
    return {"det-gauss": _worst(gauss), "det-norms": _worst(norms)}


def _degree_torus(d: Draws, want) -> dict:
    return {"degree-torus": abs(degree(
        TorusFromCurve(PlaneCurve.circle(1.0, n=256)), n=64))}


def _degree_sphere(d: Draws, want) -> dict:
    """2 deg = chi_T + chi_N on the sphere at n = 128."""
    deg, chi_t, chi_n = closed_invariants(d.make_family("sphere"), 128)
    return {"degree-sphere": abs(2.0 * deg - (chi_t + chi_n))}


#: the rows of verify, in report order
IDENTITIES = (
    Identity("quaternionic", QUATERNIONIC_TOL, False, _quaternionic),
    Identity("phase-block", 1e-10, False, _family_rows),
    Identity("coupling", 1e-5, False, _family_rows),
    Identity("energy", ENERGY_TOL, False, _family_rows),
    Identity("det-gauss", 1e-6, True, _det_rows),
    Identity("det-norms", 1e-6, True, _det_rows),
    Identity("degree-torus", 1e-3, True, _degree_torus),
    Identity("degree-sphere", 1e-2, True, _degree_sphere),
)


def identity_suite(make_family, rng, points: int, names, surface=None):
    """(name, residual, tolerance) of the rows called names, in table order,
    evaluating no other row.  make_family(name) builds a family, drawing
    from rng if it is random; the rows that run on one family sample points
    points of each SURFACES family, or of surface alone."""
    families = [make_family(name) for name in (
        SURFACES if surface is None else (surface,))]
    rotation = random_rotation(rng)

    def sampled(fam):
        return fam, *fam.sample_domain(rng, points)

    draws = Draws(rotation, [sampled(fam) for fam in families],
                  [sampled(QuadraticGraph.random(rng)) for _ in range(20)],
                  make_family)
    want, res = set(names), {}
    for row in IDENTITIES:
        if row.name in want and row.name not in res:
            res.update(row.residuals(draws, want))
    return [(row.name, res[row.name], row.tol) for row in IDENTITIES
            if row.name in want]
