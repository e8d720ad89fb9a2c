"""Workload definitions: the INI config a seed produces, the CLI commands a
run issues, and the exact laws its outputs must satisfy.

Standard library only: the parent process imports this module without
numpy, and the child imports it before hkflow so that writing the config
counts toward set-up time.

Seed 0 gives the canonical inputs.  Other seeds vary only the inputs that
the laws are stated for (the radius, and [scenario] seed for the randomized
families), inside a band where every law keeps its tolerance:

- mesh-sphere: icosphere(4) of radius r, 40 semi-implicit steps of
  dt = 5e-4; the area ratio follows 1 - 4t/r^2.
- curve-phase: a circle of radius r integrated to t_end = 0.24 r^2; the
  blow-up time is r^2/4.  The adaptive step scales with r^2 too, so every
  seed takes the same number of steps.  Then verify with 2000 points per
  family, and the phase field of each family at n = 128.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("mesh-sphere", "curve-phase")

PHASE_FAMILIES = ("plane", "cylinder", "sphere", "grim-reaper",
                  "quadratic-graph", "torus")

MESH_DT = 5e-4
MESH_STEPS = 40
CURVE_T_END = 0.24
CONFIG_NAME = "run.ini"
OUT_DIR = "out"


def radius(seed: int) -> float:
    """1.0 at seed 0, else drawn from [0.9, 1.1]."""
    if seed == 0:
        return 1.0
    return random.Random(seed).uniform(0.9, 1.1)


def config_text(workload: str, seed: int) -> str:
    r = repr(radius(seed))
    head = f"[scenario]\nname = {workload}\nseed = {seed}\n"
    if workload == "mesh-sphere":
        return head + (
            f"[mesh]\nkind = icosphere\nsubdivisions = 4\nradius = {r}\n"
            f"[flow]\ndt = {MESH_DT!r}\nt_end = {MESH_STEPS * MESH_DT!r}\n"
            "scheme = semi-implicit\n")
    if workload == "curve-phase":
        t_end = CURVE_T_END * radius(seed) ** 2
        return head + (
            f"[curve]\nfamily = circle\nradius = {r}\nn = 256\n"
            f"[flow]\ndt = auto\nt_end = {t_end!r}\nscheme = rk4\n"
            "snapshot_every = 25\n"
            f"[surface]\nradius = {r}\nn = 128\npoints = 2000\n")
    raise ValueError(f"unknown workload {workload!r}")


def commands(workload: str) -> list[list[str]]:
    """argv lists for hkflow.cli.main, run in order in one process."""
    base = ["--config", CONFIG_NAME]
    if workload == "mesh-sphere":
        return [base + ["--out", OUT_DIR, "flow-mesh"]]
    if workload == "curve-phase":
        return ([base + ["--out", f"{OUT_DIR}/curve", "flow-curve"],
                 base + ["--out", f"{OUT_DIR}/verify", "verify"]]
                + [base + ["--out", f"{OUT_DIR}/{fam}", "phase",
                           "--surface", fam] for fam in PHASE_FAMILIES])
    raise ValueError(f"unknown workload {workload!r}")


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def check(workload: str, seed: int, out: Path) -> list[str]:
    """Exact-law misses of one run's outputs; empty when the run is correct."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    r2 = radius(seed) ** 2
    problems = []
    try:
        if workload == "mesh-sphere":
            s = _load(out / "summary.json")
            if s["truncated"]:
                problems.append("mesh flow truncated")
            if s["steps"] != MESH_STEPS:
                problems.append(f"{s['steps']} steps, expected {MESH_STEPS}")
            if not s["area_monotone"]:
                problems.append("area not monotone")
            law = 1.0 - 4.0 * s["t_final"] / r2
            ratio = s["area_final"] / s["area_initial"]
            if abs(ratio - law) > 0.02 * law:
                problems.append(f"area ratio {ratio} vs law {law}")
        else:
            d = _load(out / "curve" / "diagnostics.json")
            if d["truncated"]:
                problems.append("curve flow truncated")
            if d["t_est"] is None or abs(d["t_est"] - r2 / 4) > 1e-3:
                problems.append(f"t_est {d['t_est']} vs {r2 / 4}")
            if d["sup_rescaled"] is None or abs(d["sup_rescaled"] - 1) > 1e-6:
                problems.append(f"sup_rescaled {d['sup_rescaled']} vs 1")
            if not _load(out / "verify" / "verify_report.json")["all_pass"]:
                problems.append("verify: identities failed")
            for fam in PHASE_FAMILIES:
                if not (out / fam / "phase_report.json").is_file():
                    problems.append(f"missing phase_report.json for {fam}")
    except (OSError, KeyError, TypeError, ValueError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems
