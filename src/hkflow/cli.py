"""Command line runner: library scenarios as reproducible experiments.

Subcommands
-----------
verify       run the identity suite, write per-identity max residuals
flow-curve   integrate the reduced torus flow, write snapshots + diagnostics
flow-mesh    integrate mesh mean curvature flow, write a JSONL log
analyze      post-process a trajectory log or a soliton sample file
phase        dump the phase field of a built-in family as CSV

Every run writes a manifest embedding the full resolved configuration, and
all machine-readable output uses fixed 17-significant-digit floats so the
same config and seed give byte-identical files.  Exit codes: 0 success,
1 usage or config error, 2 numerical or identity failure.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .curves import (PlaneCurve, TorusFromCurve, b_norm_history, diagnostics,
                     embed_torus, run_csf, write_curve_csv)
from .errors import GeometryError, InsufficientHistory, NotBlowingUp
from .flow import FlowHistory, run_mcf, translator_residual, type1_monitor
from .mesh import flat_square, icosphere
from .phase import (coupling_residual, degree, euler_numbers,
                    gauss_normal_curvatures, phase_differential,
                    phase_sample_exact, write_phase_field_csv)
from .structure import standard_structure
from .surfaces import (Cylinder, GrimReaper, Plane, QuadraticGraph, Sphere,
                       frames, mean_curvature, second_fundamental_form)
from .util import json_dumps, random_rotation, write_jsonl

# Config schema: section -> key -> (parser, default).  Values stay strings
# until resolve() so that unknown keys in a file can be rejected by name.
_SCHEMA = {
    "scenario": {
        "name": (str, "unnamed"),
        "seed": (int, 0),
    },
    "curve": {
        "family": (str, "circle"),
        "radius": (float, 1.0),
        "n": (int, 256),
        "eps": (float, 0.05),
        "mode": (int, 3),
    },
    "flow": {
        "dt": (str, "auto"),
        "t_end": (float, 0.24),
        "scheme": (str, "auto"),
        "snapshot_every": (int, 25),
        "checkpoint_every": (int, 0),
    },
    "mesh": {
        "kind": (str, "icosphere"),
        "subdivisions": (int, 3),
        "radius": (float, 1.0),
        "ny": (int, 24),
        "n": (int, 16),
        "extent": (float, 1.0),
    },
    "surface": {
        "family": (str, "cylinder"),
        "radius": (float, 1.0),
        "n": (int, 32),
        "points": (int, 50),
    },
    "analyze": {
        "mode": (str, "auto"),
        "family": (str, "grim-reaper"),
        "v0": (str, "0,0,1,0"),
        "tail_frac": (float, 0.4),
    },
    "output": {
        "dir": (str, "out"),
    },
}

# counts a run divides by or samples with, so they must be at least 1
_COUNT_KEYS = (("flow", "snapshot_every"), ("surface", "n"),
               ("surface", "points"), ("mesh", "n"))

_CURVE_FAMILIES = ("circle", "perturbed-circle", "figure-eight")
_MESH_KINDS = ("icosphere", "torus", "square")


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default 2 is reserved for
    # geometry guards here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def load_config(path: str | None) -> dict:
    """Flat INI -> nested dict of typed values, defaults filled in."""
    cfg = {sec: {k: d for k, (_, d) in keys.items()}
           for sec, keys in _SCHEMA.items()}
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}")
    for sec in parser.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, raw in parser.items(sec):
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"unknown key {key!r} in section [{sec}]")
            typ = _SCHEMA[sec][key][0]
            try:
                cfg[sec][key] = typ(raw)
            except ValueError:
                raise ConfigError(
                    f"bad value {raw!r} for [{sec}] {key}: expected "
                    f"{typ.__name__}")
            if (sec, key) in _COUNT_KEYS and cfg[sec][key] < 1:
                raise ConfigError(f"[{sec}] {key} must be at least 1")
    return cfg


def _parse_dt(raw) -> float | None:
    if isinstance(raw, str) and raw.strip().lower() == "auto":
        return None
    try:
        dt = float(raw)
    except ValueError:
        raise ConfigError(f"bad [flow] dt {raw!r}: expected 'auto' or float")
    if dt <= 0:
        raise ConfigError("[flow] dt must be positive")
    return dt


def _parse_v0(raw: str):
    parts = [p for p in raw.replace(";", ",").split(",") if p.strip()]
    if len(parts) != 4:
        raise ConfigError(f"bad v0 {raw!r}: expected 4 comma-separated floats")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise ConfigError(f"bad v0 {raw!r}: expected 4 comma-separated floats")


def _build_curve(cfg):
    c = cfg["curve"]
    fam, r, n = c["family"], c["radius"], c["n"]
    if fam not in _CURVE_FAMILIES:
        raise ConfigError(
            f"unknown curve family {fam!r}; choose from {_CURVE_FAMILIES}")
    eps, mode = c["eps"], c["mode"]
    try:
        if fam == "circle":
            return PlaneCurve.circle(r, n=n)
        if fam == "perturbed-circle":
            return PlaneCurve.from_function(
                lambda x: r * np.exp(1j * x) * (1 + eps * np.cos(mode * x)),
                n=n)
        # embedded zero-Maslov witness: turning number 0, winding 0
        return PlaneCurve.from_function(
            lambda x: 3 + np.sin(x) + 0.5j * np.sin(2 * x), n=n)
    except ValueError as exc:
        raise ConfigError(f"[curve] {fam}: {exc}")


def _make_surface(cfg, rng, name: str):
    r = cfg["surface"]["radius"]
    registry = {
        "plane": lambda: Plane(),
        "cylinder": lambda: Cylinder(r),
        "sphere": lambda: Sphere(r),
        "grim-reaper": lambda: GrimReaper(),
        "quadratic-graph": lambda: QuadraticGraph.random(rng),
        "torus": lambda: TorusFromCurve(PlaneCurve.circle(r, n=256)),
    }
    if name not in registry:
        raise ConfigError(f"unknown surface family {name!r}; choose from "
                          f"{tuple(sorted(registry))}")
    try:
        return registry[name]()
    except ValueError as exc:
        raise ConfigError(f"[surface] {name}: {exc}")


def write_manifest(out: Path, command: str, cfg: dict) -> None:
    payload = {"command": command, "config": cfg}
    (out / "manifest.json").write_text(json_dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_IDENTITY_NAMES = ("quaternionic", "phase-block", "coupling", "energy",
                   "det-gauss", "det-norms", "degree-torus", "degree-sphere")
# the identities that sample families of their own, not the --surface one
_OWN_FAMILIES = ("det-gauss", "det-norms", "degree-torus", "degree-sphere")


def _identity_suite(cfg, rng, surface_only: str | None, suite):
    """(name, residual, tolerance) triples, in _IDENTITY_NAMES order, of
    the identities in suite; no other identity is evaluated.

    The families are built first, then each identity draws from rng in
    turn, so a subset draws differently from the full suite."""
    s = standard_structure()
    npts = cfg["surface"]["points"]

    if surface_only is None:
        families = [_make_surface(cfg, rng, name) for name in
                    ("plane", "cylinder", "sphere", "grim-reaper",
                     "quadratic-graph")]
    else:
        families = [_make_surface(cfg, rng, surface_only)]

    def quaternionic():
        base = s.quaternionic_residual()
        rot = s.rotate(random_rotation(rng)).quaternionic_residual()
        return max(base, rot)

    def per_family(fn):
        worst = 0.0
        for fam in families:
            u, v = fam.sample_domain(rng, npts)
            worst = max(worst, fn(fam, u, v))
        return worst

    def phase_block(fam, u, v):
        fr = frames(fam.jet(u, v))
        worst = 0.0
        for alpha in (1, 2, 3):
            w11 = s.kahler_form(alpha, fr.e1, fr.e1)
            w12 = s.kahler_form(alpha, fr.e1, fr.e2)
            w22 = s.kahler_form(alpha, fr.e2, fr.e2)
            worst = max(worst,
                        float(np.max(np.abs(w11))),
                        float(np.max(np.abs(w22))),
                        float(np.max(np.abs(w12 - fr.lam[..., alpha - 1]))))
        return worst

    def coupling(fam, u, v):
        jet = fam.jet(u, v)
        fr = frames(jet)
        sff = second_fundamental_form(jet, fr)
        smp = phase_differential(fam, u, v)
        return float(np.max(coupling_residual(fr, sff, smp.dj)))

    def energy(fam, u, v):
        jet = fam.jet(u, v)
        fr = frames(jet)
        h = mean_curvature(jet, fr, second_fundamental_form(jet, fr))
        smp = phase_differential(fam, u, v)
        h2 = np.sum(h * h, axis=-1)
        return float(np.max(np.abs(smp.e_del - 0.25 * h2)))

    @functools.cache
    def det_residuals():
        worst_g = worst_n = 0.0
        for _ in range(20):
            fam = QuadraticGraph.random(rng)
            u, v = fam.sample_domain(rng, npts)
            jet = fam.jet(u, v)
            fr = frames(jet)
            sff = second_fundamental_form(jet, fr)
            smp = phase_sample_exact(fam, u, v)
            kap, kperp = gauss_normal_curvatures(sff)
            h = mean_curvature(jet, fr, sff)
            h2 = np.sum(h * h, axis=-1)
            worst_g = max(worst_g, float(np.max(
                np.abs(smp.detdj - (kap + kperp)))))
            worst_n = max(worst_n, float(np.max(
                np.abs(smp.detdj - (0.5 * h2 - 0.5 * smp.dj_norm2())))))
        return worst_g, worst_n

    def degree_torus():
        fam = TorusFromCurve(PlaneCurve.circle(1.0, n=256))
        return abs(degree(fam, n=64))

    def degree_sphere():
        fam = _make_surface(cfg, rng, "sphere")
        deg = degree(fam, n=128)
        chi_t, chi_n = euler_numbers(fam, n=128)
        return abs(2.0 * deg - (chi_t + chi_n))

    checks = (
        ("quaternionic", quaternionic, 1e-14),
        ("phase-block", lambda: per_family(phase_block), 1e-10),
        ("coupling", lambda: per_family(coupling), 1e-5),
        ("energy", lambda: per_family(energy), 1e-6),
        ("det-gauss", lambda: det_residuals()[0], 1e-6),
        ("det-norms", lambda: det_residuals()[1], 1e-6),
        ("degree-torus", degree_torus, 1e-3),
        ("degree-sphere", degree_sphere, 1e-2),
    )
    return [(name, fn(), tol) for name, fn, tol in checks if name in suite]


def cmd_verify(cfg, args, out: Path) -> int:
    rng = np.random.default_rng(cfg["scenario"]["seed"])
    suite = [t.strip() for t in args.suite.split(",")] \
        if args.suite != "all" else list(_IDENTITY_NAMES)
    unknown = [t for t in suite if t not in _IDENTITY_NAMES]
    if unknown:
        raise ConfigError(f"unknown identities {unknown}; choose from "
                          f"{_IDENTITY_NAMES}")
    if args.surface is not None:
        idle = [t for t in suite if t in _OWN_FAMILIES]
        if args.suite != "all" and idle:
            raise ConfigError(f"identities {idle} do not run with --surface; "
                              f"they sample families of their own")
        suite = [t for t in suite if t not in _OWN_FAMILIES]
    identities = {}
    all_pass = True
    for name, res, tol in _identity_suite(cfg, rng, args.surface, suite):
        ok = res <= tol
        all_pass = all_pass and ok
        identities[name] = {"residual": res, "tolerance": tol, "pass": ok}
        print(f"{name:14s} residual {res:.3e}  tol {tol:.0e}  "
              f"{'PASS' if ok else 'FAIL'}")
    report = {
        "scenario": cfg["scenario"]["name"],
        "seed": cfg["scenario"]["seed"],
        "surface": args.surface,
        "identities": identities,
        "all_pass": all_pass,
    }
    (out / "verify_report.json").write_text(json_dumps(report, indent=2)
                                            + "\n")
    return 0 if all_pass else 2


# ---------------------------------------------------------------------------
# flow-curve
# ---------------------------------------------------------------------------

def _type1_fields(cfg, hist: FlowHistory) -> dict:
    """T_est, its CI half-width and sup sqrt(T_est - t) max|B| of a
    trajectory; all None, with a note saying why, when the fit fails."""
    try:
        rep = type1_monitor(hist, tail_frac=cfg["analyze"]["tail_frac"])
    except (InsufficientHistory, NotBlowingUp) as exc:
        return {"t_est": None, "ci_halfwidth": None, "sup_rescaled": None,
                "note": str(exc)}
    return {"t_est": rep.t_est, "ci_halfwidth": rep.ci_halfwidth,
            "sup_rescaled": rep.sup_rescaled}


def cmd_flow_curve(cfg, args, out: Path) -> int:
    curve = _build_curve(cfg)
    fl = cfg["flow"]
    scheme = fl["scheme"] if fl["scheme"] != "auto" else "rk4"
    result = run_csf(curve, t_end=fl["t_end"], dt=_parse_dt(fl["dt"]),
                     scheme=scheme, snapshot_every=fl["snapshot_every"])

    snapdir = out / "snapshots"
    snapdir.mkdir(exist_ok=True)
    for k, c in enumerate(result.curves):
        write_curve_csv(snapdir / f"snap_{k:05d}.csv", c)

    hist = b_norm_history(result)
    write_jsonl(out / "history.jsonl", (
        {"t": float(t), "max_B": float(b), "area": float(a),
         "margin": float(m)}
        for t, b, a, m in zip(hist.t, hist.max_b, hist.area, hist.margin)))

    diag = diagnostics(result.curves[0]).as_dict()
    diag.update({"t_final": float(hist.t[-1]),
                 "truncated": bool(result.truncated)})
    diag.update(_type1_fields(cfg, hist))
    (out / "diagnostics.json").write_text(json_dumps(diag, indent=2) + "\n")
    print(f"flow-curve: {len(result.curves)} snapshots to t="
          f"{hist.t[-1]:g}, diagnostics in {out / 'diagnostics.json'}")
    return 0


# ---------------------------------------------------------------------------
# flow-mesh
# ---------------------------------------------------------------------------

def _build_mesh(cfg):
    m = cfg["mesh"]
    if m["kind"] not in _MESH_KINDS:
        raise ConfigError(
            f"unknown mesh kind {m['kind']!r}; choose from {_MESH_KINDS}")
    try:
        if m["kind"] == "icosphere":
            return icosphere(m["subdivisions"], m["radius"])
        if m["kind"] == "torus":
            return embed_torus(_build_curve(cfg), ny=m["ny"])[0]
        return flat_square(m["n"], m["extent"])
    except ValueError as exc:
        raise ConfigError(f"[mesh] {m['kind']}: {exc}")


def cmd_flow_mesh(cfg, args, out: Path) -> int:
    mesh = _build_mesh(cfg)
    fl = cfg["flow"]
    dt = _parse_dt(fl["dt"])
    if dt is None:
        dt = 0.2 * mesh.min_edge_length() ** 2
    scheme = fl["scheme"] if fl["scheme"] != "auto" else "semi-implicit"
    ckdir = None
    if fl["checkpoint_every"]:
        ckdir = out / "checkpoints"
        ckdir.mkdir(exist_ok=True)
    hist = run_mcf(mesh, dt=dt, t_end=fl["t_end"], scheme=scheme,
                   log_path=out / "history.jsonl",
                   checkpoint_every=fl["checkpoint_every"],
                   checkpoint_dir=ckdir)
    summary = {
        "t_final": float(hist.t[-1]),
        "steps": int(len(hist.t) - 1),
        "area_initial": float(hist.area[0]),
        "area_final": float(hist.area[-1]),
        "max_B_final": float(hist.max_b[-1]),
        "area_monotone": bool(np.all(np.diff(hist.area) < 0)),
        "truncated": bool(hist.truncated),
    }
    (out / "summary.json").write_text(json_dumps(summary, indent=2) + "\n")
    print(f"flow-mesh: {summary['steps']} steps to t={summary['t_final']:g}"
          f", area {summary['area_initial']:.6g} -> "
          f"{summary['area_final']:.6g}")
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _analyze_type1(cfg, path: Path) -> dict:
    """Type-I fit of a trajectory log.  A line that is not a JSON record
    with numeric t, max_B and area, or whose t does not increase, is a
    ConfigError naming the file and the line."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                ok = all(type(rec[k]) in (int, float)
                         for k in ("t", "max_B", "area"))
            except (ValueError, TypeError, KeyError):
                ok = False
            if not ok or (records and not rec["t"] > records[-1]["t"]):
                raise ConfigError(
                    f"{path}, line {lineno}: expected a JSON record with "
                    f"numeric t, max_B and area, t increasing")
            records.append(rec)
    if not records:
        raise ConfigError(f"{path}: empty trajectory log")
    report = {"kind": "type1", "records": len(records)}
    report.update(_type1_fields(cfg, FlowHistory.from_records(records)))
    margins = [r["margin"] for r in records if "margin" in r]
    report["min_margin"] = min(margins) if margins else None
    return report


def _analyze_soliton(cfg, path: Path) -> dict:
    """Translator residual of the [analyze] family at the u,v samples below
    the header line of path.  A line that is not two finite floats strictly
    inside the family's domain, in each direction that is not periodic, is
    a ConfigError naming the file and the line."""
    rng = np.random.default_rng(cfg["scenario"]["seed"])
    fam = _make_surface(cfg, rng, cfg["analyze"]["family"])

    def inside(uv):
        return len(uv) == 2 and all(
            math.isfinite(x) and (per or lo < x < hi)
            for x, (lo, hi), per in zip(uv, fam.domain, fam.periodic))

    samples = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if lineno == 1 or not line.strip():
                continue
            try:
                uv = tuple(map(float, line.split(",")))
            except ValueError:
                uv = ()
            if not inside(uv):
                raise ConfigError(
                    f"{path}, line {lineno}: expected finite u,v strictly "
                    f"inside the {fam.name} domain {fam.domain}")
            samples.append(uv)
    if not samples:
        raise ConfigError(f"{path}: no u,v samples below the header line")
    data = np.array(samples)
    raw_v0 = cfg["analyze"]["v0"]
    v0 = _parse_v0(raw_v0)
    jet = fam.jet(data[:, 0], data[:, 1])
    fr = frames(jet)
    h = mean_curvature(jet, fr, second_fundamental_form(jet, fr))
    try:
        res = translator_residual(fr, h, v0)
    except ValueError as exc:
        raise ConfigError(f"[analyze] v0 {raw_v0!r}: {exc}")
    return {"kind": "soliton", "family": fam.name,
            "n_samples": int(len(data)), "v0": [float(c) for c in v0],
            "translator_residual": res}


def cmd_analyze(cfg, args, out: Path) -> int:
    path = Path(args.path)
    if not path.exists():
        raise ConfigError(f"no such file: {path}")
    mode = args.mode or cfg["analyze"]["mode"]
    if mode == "auto":
        mode = "type1" if path.suffix == ".jsonl" else "soliton"
    if mode == "type1":
        report = _analyze_type1(cfg, path)
    elif mode == "soliton":
        report = _analyze_soliton(cfg, path)
    else:
        raise ConfigError(f"unknown analyze mode {mode!r}")
    (out / "analyze_report.json").write_text(json_dumps(report, indent=2)
                                             + "\n")
    for key, val in report.items():
        print(f"{key}: {val}")
    return 0


# ---------------------------------------------------------------------------
# phase
# ---------------------------------------------------------------------------

def cmd_phase(cfg, args, out: Path) -> int:
    rng = np.random.default_rng(cfg["scenario"]["seed"])
    name = args.surface or cfg["surface"]["family"]
    fam = _make_surface(cfg, rng, name)
    csv_path = out / "phase_field.csv"
    margin = write_phase_field_csv(csv_path, fam, n=cfg["surface"]["n"])
    report = {
        "family": fam.name,
        "n": cfg["surface"]["n"],
        "csv": csv_path.name,
        "min_margin": float(np.min(margin)),
        "touches_forbidden_set": bool(np.min(margin) <= 1e-12),
    }
    (out / "phase_report.json").write_text(json_dumps(report, indent=2)
                                           + "\n")
    print(f"phase: field of {fam.name} in {csv_path}, min margin "
          f"{report['min_margin']:.3e}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="hkflow", description=__doc__.splitlines()[0])
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="INI config file (flat key=value sections)")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (default from config)")
    parser.add_argument("--seed", metavar="N", type=int, default=None,
                        help="seed for randomized checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the identity suite")
    p.add_argument("--suite", default="all",
                   help="comma-separated identity names or 'all'")
    p.add_argument("--surface", default=None,
                   help="restrict per-surface identities to one family")

    sub.add_parser("flow-curve", help="reduced torus flow from [curve]")
    sub.add_parser("flow-mesh", help="mesh mean curvature flow from [mesh]")

    p = sub.add_parser("analyze", help="post-process stored output")
    p.add_argument("path", help=".jsonl trajectory log or u,v sample CSV")
    p.add_argument("--mode", choices=("auto", "type1", "soliton"),
                   default=None)

    p = sub.add_parser("phase", help="dump a phase-field CSV")
    p.add_argument("--surface", default=None,
                   help="family name (default from [surface])")
    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "flow-curve": cmd_flow_curve,
    "flow-mesh": cmd_flow_mesh,
    "analyze": cmd_analyze,
    "phase": cmd_phase,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["scenario"]["seed"] = args.seed
        if args.out is not None:
            cfg["output"]["dir"] = args.out
        out = Path(cfg["output"]["dir"])
        out.mkdir(parents=True, exist_ok=True)
        write_manifest(out, args.command, cfg)
        return _COMMANDS[args.command](cfg, args, out)
    except ConfigError as exc:
        print(f"hkflow: config error: {exc}", file=sys.stderr)
        return 1
    except GeometryError as exc:
        print(f"hkflow: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
