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
import dataclasses
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .checks import IDENTITIES, identity_suite
from .curves import (CSF_SCHEMES, PlaneCurve, TorusFromCurve, csf_march,
                     diagnostics, embed_torus, snapshot_record,
                     write_curve_csv)
from .errors import GeometryError, InsufficientHistory, NotBlowingUp
from .flow import (MCF_SCHEMES, FlowHistory, run_mcf, translator_residual,
                   type1_monitor)
from .mesh import flat_square, icosphere
from .phase import write_phase_field_csv
from .surfaces import (Cylinder, GrimReaper, Plane, QuadraticGraph, Sphere,
                       frames, mean_curvature, second_fundamental_form)
from .util import json_dumps, write_jsonl

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
        "radius": (float, 1.0),
        "n": (int, 32),
        "points": (int, 50),
    },
    "analyze": {
        "family": (str, "grim-reaper"),
        "v0": (str, "0,0,1,0"),
    },
    "output": {
        "dir": (str, "out"),
    },
}

# counts a run divides by or samples with, so they must be at least 1
_COUNT_KEYS = (("flow", "snapshot_every"), ("surface", "n"),
               ("surface", "points"), ("mesh", "n"))
# a negative seed is no numpy seed, and k % -2 would checkpoint every 2
# steps; t_end = 0 asks for the initial state alone
_NONNEGATIVE_KEYS = (("scenario", "seed"), ("flow", "checkpoint_every"),
                     ("flow", "t_end"))


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default 2 is reserved for
    # geometry guards here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def load_config(path: str | None) -> dict:
    """Flat INI -> nested dict of typed values, defaults filled in.

    Every config is checked whole, whatever command reads it: [flow] dt and
    [analyze] v0 must parse (they stay text, as written), and the counts
    must be at least 1 and the _NONNEGATIVE_KEYS not negative.  A scheme
    name is checked by the flow that runs it."""
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
            if typ is float and not math.isfinite(cfg[sec][key]):
                raise ConfigError(f"[{sec}] {key} must be finite")
            if (sec, key) in _COUNT_KEYS and cfg[sec][key] < 1:
                raise ConfigError(f"[{sec}] {key} must be at least 1")
            if (sec, key) in _NONNEGATIVE_KEYS and cfg[sec][key] < 0:
                raise ConfigError(f"[{sec}] {key} must not be negative")
    _parse_dt(cfg["flow"]["dt"])
    _parse_v0(cfg["analyze"]["v0"])
    return cfg


def _parse_dt(raw) -> float | None:
    if isinstance(raw, str) and raw.strip().lower() == "auto":
        return None
    try:
        dt = float(raw)
    except ValueError:
        raise ConfigError(f"bad [flow] dt {raw!r}: expected 'auto' or float")
    if not 0 < dt < math.inf:
        raise ConfigError("[flow] dt must be positive and finite")
    return dt


def _check_scheme(cfg, schemes) -> None:
    """[flow] scheme must be 'auto' or one of the flow's schemes; a flow
    has one integrator, which either name selects."""
    choices = ("auto",) + schemes
    if cfg["flow"]["scheme"] not in choices:
        raise ConfigError(f"unknown [flow] scheme {cfg['flow']['scheme']!r}; "
                          f"choose from {choices}")


def _parse_v0(raw: str):
    parts = [p for p in raw.replace(";", ",").split(",") if p.strip()]
    if len(parts) != 4:
        raise ConfigError(f"bad v0 {raw!r}: expected 4 comma-separated floats")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise ConfigError(f"bad v0 {raw!r}: expected 4 comma-separated floats")


def _build(section: str, label: str, name: str, builders: dict):
    """builders[name]() for the [section] family or kind called name; an
    unknown name or a ValueError from the builder is a ConfigError."""
    if name not in builders:
        raise ConfigError(f"unknown {section} {label} {name!r}; choose from "
                          f"{tuple(builders)}")
    try:
        return builders[name]()
    except ValueError as exc:
        raise ConfigError(f"[{section}] {name}: {exc}")


def _build_curve(cfg):
    c = cfg["curve"]
    r, n, eps, mode = c["radius"], c["n"], c["eps"], c["mode"]
    return _build("curve", "family", c["family"], {
        "circle": lambda: PlaneCurve.circle(r, n=n),
        "perturbed-circle": lambda: PlaneCurve.from_function(
            lambda x: r * np.exp(1j * x) * (1 + eps * np.cos(mode * x)),
            n=n),
        # embedded zero-Maslov witness: turning number 0, winding 0
        "figure-eight": lambda: PlaneCurve.from_function(
            lambda x: 3 + np.sin(x) + 0.5j * np.sin(2 * x), n=n),
    })


def _make_surface(cfg, rng, name: str):
    r = cfg["surface"]["radius"]
    return _build("surface", "family", name, {
        "cylinder": lambda: Cylinder(r),
        "grim-reaper": lambda: GrimReaper(),
        "plane": lambda: Plane(),
        "quadratic-graph": lambda: QuadraticGraph.random(rng),
        "sphere": lambda: Sphere(r),
        "torus": lambda: TorusFromCurve(PlaneCurve.circle(r, n=256)),
    })


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def write_manifest(out: Path, command: str, argv: list, cfg: dict) -> None:
    """manifest.json: the subcommand, the exact argv, the package, python,
    numpy and scipy versions, the BLAS thread variables (null when unset)
    and the resolved configuration, seed included."""
    payload = {"command": command, "argv": argv, "version": __version__,
               "python": platform.python_version(), "numpy": np.__version__,
               "scipy": scipy.__version__,
               "threads": {k: os.environ.get(k) for k in _THREAD_VARS},
               "config": cfg}
    (out / "manifest.json").write_text(json_dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(cfg, args, out: Path) -> int:
    rng = np.random.default_rng(cfg["scenario"]["seed"])
    own = {row.name: row.own_families for row in IDENTITIES}
    suite = list(own) if args.suite == "all" else [
        t.strip() for t in args.suite.split(",")]
    unknown = [t for t in suite if t not in own]
    if unknown:
        raise ConfigError(f"unknown identities {unknown}; choose from "
                          f"{tuple(own)}")
    idle = [t for t in suite if args.surface is not None and own[t]]
    if idle and args.suite != "all":
        raise ConfigError(f"identities {idle} do not run with --surface; "
                          f"they sample families of their own")
    identities = {}
    all_pass = True
    for name, res, tol in identity_suite(
            lambda name: _make_surface(cfg, rng, name), rng,
            cfg["surface"]["points"], [t for t in suite if t not in idle],
            args.surface):
        ok = res <= tol
        all_pass = all_pass and ok
        identities[name] = {"residual": res, "tolerance": tol, "pass": ok}
        print(f"{name:14s} residual {res:.3e}  tol {tol:.0e}  "
              f"{'PASS' if ok else 'FAIL'}")
    report = {"scenario": cfg["scenario"]["name"],
              "seed": cfg["scenario"]["seed"], "surface": args.surface,
              "identities": identities, "all_pass": all_pass}
    (out / "verify_report.json").write_text(json_dumps(report, indent=2)
                                            + "\n")
    return 0 if all_pass else 2


# ---------------------------------------------------------------------------
# flow-curve
# ---------------------------------------------------------------------------

def _type1_fields(hist: FlowHistory) -> dict:
    """T_est, its CI half-width and sup sqrt(T_est - t) max|B| of a
    trajectory; all None, with a note saying why, when the fit fails."""
    try:
        rep = type1_monitor(hist)
    except (InsufficientHistory, NotBlowingUp) as exc:
        return {"t_est": None, "ci_halfwidth": None, "sup_rescaled": None,
                "note": str(exc)}
    return dataclasses.asdict(rep)


def cmd_flow_curve(cfg, args, out: Path) -> int:
    _check_scheme(cfg, CSF_SCHEMES)
    curve = _build_curve(cfg)
    fl = cfg["flow"]
    snaps = csf_march(curve, fl["t_end"], _parse_dt(fl["dt"]),
                      snapshot_every=fl["snapshot_every"])
    snapdir = out / "snapshots"
    snapdir.mkdir(exist_ok=True)

    def trajectory():
        # written as yielded: a run that a step stops leaves what it reached
        for k, (_, t, c) in enumerate(snaps):
            write_curve_csv(snapdir / f"snap_{k:05d}.csv", c)
            yield snapshot_record(t, c)

    records = write_jsonl(out / "history.jsonl", trajectory())
    hist = FlowHistory.from_records(records)
    diag = {**dataclasses.asdict(diagnostics(curve)),
            "t_final": float(hist.t[-1]),
            "truncated": bool(hist.t[-1] < fl["t_end"]), **_type1_fields(hist)}
    (out / "diagnostics.json").write_text(json_dumps(diag, indent=2) + "\n")
    print(f"flow-curve: {len(records)} snapshots to t="
          f"{hist.t[-1]:g}, diagnostics in {out / 'diagnostics.json'}")
    return 0


# ---------------------------------------------------------------------------
# flow-mesh
# ---------------------------------------------------------------------------

def _build_mesh(cfg):
    m = cfg["mesh"]
    return _build("mesh", "kind", m["kind"], {
        "icosphere": lambda: icosphere(m["subdivisions"], m["radius"]),
        "torus": lambda: embed_torus(_build_curve(cfg), ny=m["ny"])[0],
        "square": lambda: flat_square(m["n"], m["extent"]),
    })


def cmd_flow_mesh(cfg, args, out: Path) -> int:
    _check_scheme(cfg, MCF_SCHEMES)
    mesh = _build_mesh(cfg)
    fl = cfg["flow"]
    ckdir = None
    if fl["checkpoint_every"]:
        ckdir = out / "checkpoints"
        ckdir.mkdir(exist_ok=True)
    hist = run_mcf(mesh, dt=_parse_dt(fl["dt"]), t_end=fl["t_end"],
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
    with numeric t, max_B, area and (if present) margin, or whose t does
    not increase, is a ConfigError naming the file and the line."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                ok = all(type(x) in (int, float) for x in (
                    rec["t"], rec["max_B"], rec["area"], rec.get("margin", 0)))
            except (ValueError, TypeError, KeyError):
                ok = False
            if not ok or (records and not rec["t"] > records[-1]["t"]):
                raise ConfigError(
                    f"{path}, line {lineno}: expected a JSON record with "
                    f"numeric t, max_B, area and margin, t increasing")
            records.append(rec)
    if not records:
        raise ConfigError(f"{path}: empty trajectory log")
    hist = FlowHistory.from_records(records)
    return {"kind": "type1", "records": len(records), **_type1_fields(hist),
            "min_margin": (None if hist.margin is None
                           else float(hist.margin.min()))}


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
    mode = args.mode
    if mode == "auto":
        mode = "type1" if path.suffix == ".jsonl" else "soliton"
    analyze = _analyze_type1 if mode == "type1" else _analyze_soliton
    report = analyze(cfg, path)
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
    fam = _make_surface(cfg, rng, args.surface)
    csv_path = out / "phase_field.csv"
    _, contain = write_phase_field_csv(csv_path, fam, n=cfg["surface"]["n"])
    report = {
        "family": fam.name,
        "n": cfg["surface"]["n"],
        "csv": csv_path.name,
        "min_margin": contain.margin,
        "touches_forbidden_set": contain.violation,
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
                   default="auto")

    p = sub.add_parser("phase", help="dump a phase-field CSV")
    p.add_argument("--surface", default="cylinder",
                   help="family name (default cylinder)")
    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "flow-curve": cmd_flow_curve,
    "flow-mesh": cmd_flow_mesh,
    "analyze": cmd_analyze,
    "phase": cmd_phase,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must not be negative")
            cfg["scenario"]["seed"] = args.seed
        if args.out is not None:
            cfg["output"]["dir"] = args.out
        out = Path(cfg["output"]["dir"])
        out.mkdir(parents=True, exist_ok=True)
        write_manifest(out, args.command, argv, cfg)
        return _COMMANDS[args.command](cfg, args, out)
    except ConfigError as exc:
        print(f"hkflow: config error: {exc}", file=sys.stderr)
        return 1
    except GeometryError as exc:
        print(f"hkflow: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
