"""hkflow benchmark: two CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a source checkout; the package is imported from its
src/ directory.  Every run of a workload is a fresh Python process calling
the public entry point hkflow.cli.main, one process at a time (a closed
loop with a single client), with OMP/OpenBLAS/MKL threads pinned to 1
through the child's environment.  Set-up probes and runs repeat until the
next run would end after --seconds from the start of the call (at least two
runs, so determinism is always checked).

Each run must exit 0, satisfy its workload's exact laws (scenarios.check),
and write byte-identical outputs to the first run of the invocation.  A run
that misses any of these counts as failed.

--trace 0 reports the end-to-end metrics: wall_s (mean time from the
call into main to its return), setup_s (median time from process start to
inputs ready, over the runs and extra set-up-only processes) and
peak_rss_mib (median peak resident set of a run's process).  --trace 1
alternates traced and untraced runs and reports the per-layer metrics of
PER_LAYER.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; a result file with provenance
is written under .perfbench/results/.  --all runs every workload with and
without tracing and prints both tables.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import scenarios

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3          # set-up-only processes per untraced invocation
# fewest runs per invocation: determinism needs two runs of one kind
MIN_UNTRACED = {"run": 2}
MIN_TRACED = {"trace": 2, "run": 1}
CHILD_TIMEOUT_S = 120

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# Per-layer metrics, computed from the traced runs of one invocation
# ---------------------------------------------------------------------------

class Traces:
    """Span aggregates of the traced runs; counts are equal across runs."""

    def __init__(self, reports, wall_traced, wall_untraced, bytes_written):
        self.reports = reports
        self.wall_traced = wall_traced
        self.wall_untraced = wall_untraced
        self.bytes_written = bytes_written

    def calls(self, name):
        span = self.reports[0]["spans"].get(name)
        return span["calls"] if span else 0

    def count(self, name):
        return self.reports[0]["counts"].get(name, 0)

    def self_s(self, name):
        return statistics.median(r["spans"][name]["self_s"]
                                 if name in r["spans"] else 0.0
                                 for r in self.reports)

    def per(self, num, den):
        return num / den if den else 0.0

    def coverage(self):
        # share of the traced wall time inside layer spans under cli.main
        return statistics.median(
            (r["spans"]["cli"]["total_s"] - r["spans"]["cli"]["self_s"]) / w
            for r, w in zip(self.reports, self.wall_traced))


def _self(name):
    return lambda t: t.self_s(name)


def _calls(name):
    return lambda t: t.calls(name)


# (metric, unit, better, value); BENCHMARK.json lists the same metrics
PER_LAYER = [
    ("mesh.vertex_neighbors.calls", "count", "lower",
     _calls("mesh.vertex_neighbors")),
    ("mesh.vertex_neighbors.self_s", "s", "lower",
     _self("mesh.vertex_neighbors")),
    ("mesh.surface_mesh_init.calls", "count", "lower",
     _calls("mesh.surface_mesh_init")),
    ("mesh.surface_mesh_init.self_s", "s", "lower",
     _self("mesh.surface_mesh_init")),
    ("mesh.tangent_frames.calls_per_state", "calls/state", "lower",
     lambda t: t.per(t.calls("mesh.tangent_frames"),
                     t.calls("flow.measure"))),
    ("mesh.tangent_frames.self_s", "s", "lower",
     _self("mesh.tangent_frames")),
    ("mesh.bnorm.self_s", "s", "lower", _self("mesh.bnorm")),
    ("mesh.mean_curvature.self_s", "s", "lower",
     _self("mesh.mean_curvature")),
    ("mesh.cotangent_matrix.calls_per_step", "calls/step", "lower",
     lambda t: t.per(t.calls("mesh.cotangent_matrix"),
                     t.calls("flow.mcf_step"))),
    ("mesh.cotangent_matrix.self_s", "s", "lower",
     _self("mesh.cotangent_matrix")),
    ("mesh.mixed_areas.calls_per_step", "calls/step", "lower",
     lambda t: t.per(t.calls("mesh.mixed_areas"),
                     t.calls("flow.mcf_step"))),
    ("flow.measure.self_s", "s", "lower", _self("flow.measure")),
    ("flow.mcf_step.self_s", "s", "lower", _self("flow.mcf_step")),
    ("flow.run_mcf.self_s", "s", "lower", _self("flow.run_mcf")),
    ("flow.cg.calls", "count", "lower", _calls("flow.cg")),
    ("flow.cg.iters", "count", "lower", lambda t: t.count("flow.cg.iters")),
    ("flow.cg.iters_per_solve", "iters/solve", "lower",
     lambda t: t.per(t.count("flow.cg.iters"), t.calls("flow.cg"))),
    ("flow.cg.self_s", "s", "lower", _self("flow.cg")),
    ("flow.type1_monitor.self_s", "s", "lower", _self("flow.type1_monitor")),
    ("curves.csf_step.calls", "count", "lower", _calls("curves.csf_step")),
    ("curves.csf_step.self_s", "s", "lower", _self("curves.csf_step")),
    ("curves.fft_calls_per_step", "calls/step", "lower",
     lambda t: t.per(t.count("curves.fft"), t.calls("curves.csf_step"))),
    ("curves.spectral_derivative.calls", "count", "lower",
     _calls("curves.spectral_derivative")),
    ("curves.spectral_derivative.self_s", "s", "lower",
     _self("curves.spectral_derivative")),
    ("curves.plane_curve_init.calls", "count", "lower",
     _calls("curves.plane_curve_init")),
    ("curves.plane_curve_init.self_s", "s", "lower",
     _self("curves.plane_curve_init")),
    ("curves.b_norm_history.self_s", "s", "lower",
     _self("curves.b_norm_history")),
    ("curves.run_csf.self_s", "s", "lower", _self("curves.run_csf")),
    ("surfaces.jet.self_s", "s", "lower", _self("surfaces.jet")),
    ("surfaces.frames.calls", "count", "lower", _calls("surfaces.frames")),
    ("surfaces.frames.self_s", "s", "lower", _self("surfaces.frames")),
    ("surfaces.second_fundamental_form.self_s", "s", "lower",
     _self("surfaces.second_fundamental_form")),
    ("phase.phase_differential.self_s", "s", "lower",
     _self("phase.phase_differential")),
    ("phase.phase_sample_exact.self_s", "s", "lower",
     _self("phase.phase_sample_exact")),
    ("phase.degree.self_s", "s", "lower", _self("phase.degree")),
    ("phase.euler_numbers.self_s", "s", "lower", _self("phase.euler_numbers")),
    ("io.format_float.calls", "count", "lower", _calls("io.format_float")),
    ("io.format_float.self_s", "s", "lower", _self("io.format_float")),
    ("io.write_curve_csv.self_s", "s", "lower", _self("io.write_curve_csv")),
    ("io.write_phase_field_csv.self_s", "s", "lower",
     _self("io.write_phase_field_csv")),
    ("io.csv_reread.self_s", "s", "lower", _self("io.csv_reread")),
    ("io.json_dumps.self_s", "s", "lower", _self("io.json_dumps")),
    ("io.bytes_written", "bytes", "lower", lambda t: t.bytes_written),
    ("cli.self_s", "s", "lower", _self("cli")),
    ("trace.overhead_s", "s", "lower",
     lambda t: statistics.fmean(t.wall_traced)
     - statistics.fmean(t.wall_untraced)),
    ("trace.coverage", "fraction", "higher", lambda t: t.coverage()),
]


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _outputs(out: Path):
    """(fingerprint, bytes) of a run's output tree.

    Runs write to the relative path out/ from their own directory, so even
    manifest.json (which embeds the output path) must match byte for byte.
    """
    digest = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest(), total


def run_child(workload: str, seed: int, mode: str, rundir: Path) -> dict:
    """Start one child, wait for it, and check what it wrote."""
    rundir.mkdir(parents=True)
    start = _now()
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed),
            mode, repr(start)]
    rec = {"mode": mode, "problems": []}
    try:
        proc = subprocess.run(argv, cwd=rundir, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rec["problems"].append(f"timed out after {CHILD_TIMEOUT_S} s")
        return rec
    if proc.returncode != 0:
        rec["problems"].append(f"child exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-400:]}")
        return rec
    rec.update(json.loads((rundir / "child.json").read_text()))
    if Path(rec["hkflow_file"]).resolve().parent.parent != SRC:
        rec["problems"].append(f"imported hkflow from {rec['hkflow_file']}")
    if mode == "setup":
        return rec
    if any(rc != 0 for rc in rec["exit_codes"]):
        rec["problems"].append(f"hkflow exit codes {rec['exit_codes']}: "
                               f"{proc.stderr.strip()[-400:]}")
    else:
        rec["problems"] += scenarios.check(workload, seed,
                                           rundir / scenarios.OUT_DIR)
    rec["fingerprint"], rec["bytes_written"] = \
        _outputs(rundir / scenarios.OUT_DIR)
    return rec


# ---------------------------------------------------------------------------
# One invocation: a workload, a seed, a time budget
# ---------------------------------------------------------------------------

def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hkflow").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _trace_counts(rec) -> dict:
    spans = rec["trace"]["spans"]
    return {"calls": {k: v["calls"] for k, v in spans.items()},
            "counts": rec["trace"]["counts"],
            "bytes_written": rec["bytes_written"]}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    probes, runs = [], []
    begin = _now()
    try:
        if not trace:
            for k in range(SETUP_PROBES):
                probe = run_child(workload, seed, "setup", work / f"s{k:03d}")
                if probe["problems"]:
                    raise RuntimeError(f"set-up failed: {probe['problems']}")
                probes.append(probe)
        modes = ["trace", "run"] if trace else ["run"]
        minimum = MIN_TRACED if trace else MIN_UNTRACED
        plan = itertools.cycle(modes)
        longest = 0.0
        for k in itertools.count():
            if all(sum(r["mode"] == m for r in runs) >= n
                   for m, n in minimum.items()) \
                    and _now() - begin + longest > seconds:
                break
            mode = next(plan)
            t0 = _now()
            rundir = work / f"r{k:03d}"
            rec = run_child(workload, seed, mode, rundir)
            shutil.rmtree(rundir)
            longest = max(longest, _now() - t0)
            runs.append(rec)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # determinism: every run matches the first run's output bytes and, for
    # traced runs, the first traced run's exact counts
    first = next((r["fingerprint"] for r in runs if "fingerprint" in r), None)
    first_counts = None
    for rec in runs:
        if "fingerprint" in rec and rec["fingerprint"] != first:
            rec["problems"].append("outputs differ from the first run")
        if "trace" in rec:
            counts = _trace_counts(rec)
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts:
                rec["problems"].append("exact counts differ from the first "
                                       "traced run")

    failed = sum(bool(r["problems"]) for r in runs)
    timed = [r for r in runs if "wall_s" in r]
    untraced = [r for r in timed if r["mode"] == "run"]
    if trace:
        traced = [r for r in timed if r["mode"] == "trace"]
        if not traced or not untraced:
            raise RuntimeError("no traced or untraced run completed")
        t = Traces([r["trace"] for r in traced],
                   [r["wall_s"] for r in traced],
                   [r["wall_s"] for r in untraced],
                   traced[0]["bytes_written"])
        metrics = {name: {"value": fn(t), "unit": unit}
                   for name, unit, _, fn in PER_LAYER}
    else:
        if not untraced:
            raise RuntimeError("no run completed")
        values = {
            # the mean, not the median: the machine's speed drifts, and
            # over the runs of one call the mean follows the drift with
            # less scatter than the median does
            "wall_s": statistics.fmean(r["wall_s"] for r in untraced),
            "setup_s": statistics.median(r["setup_s"]
                                         for r in probes + untraced),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"]
                                              for r in untraced),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    versions = next((r["versions"] for r in probes + runs
                     if "versions" in r), {})
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
        "provenance": {
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "git_sha": _git_sha(),
            "source_sha256": _source_sha256(), **versions,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {var: _child_env()[var] for var in THREAD_VARS},
            "radius": scenarios.radius(seed),
        },
        "result_fingerprint": first,
        "samples": {"wall_s": [r["wall_s"] for r in untraced],
                    "cpu_s": [r["cpu_s"] for r in untraced],
                    "setup_s": [r["setup_s"] for r in probes + untraced],
                    "traced_wall_s": [r["wall_s"] for r in timed
                                      if r["mode"] == "trace"]},
        "problems": [p for r in runs for p in r["problems"]],
    }


def save(result: dict) -> None:
    prov = result["provenance"]
    path = (WORK / "results" /
            f"{prov['workload']}-seed{prov['seed']}-trace{prov['trace']}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_summary(result: dict) -> None:
    prov = result["provenance"]
    samples = result["samples"]
    print(f"{prov['workload']} seed {prov['seed']} trace {prov['trace']}: "
          f"{result['attempted']} runs, {result['failed']} failed")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    counts = {"wall_s": ("mean", len(samples["wall_s"])),
              "setup_s": ("median", len(samples["setup_s"])),
              "peak_rss_mib": ("median", len(samples["wall_s"]))}
    for name, m in result["metrics"].items():
        note = (f"  ({counts[name][0]} of {counts[name][1]})"
                if name in counts else "")
        print(f"  {name:40s} {_fmt(m['value']):>14s} {m['unit']}{note}")
    print(f"  {'error_rate':40s} "
          f"{_fmt(result['failed'] / result['attempted']):>14s} fraction"
          f"  ({result['failed']} of {result['attempted']} runs)")


def print_tables(results: dict) -> None:
    names = list(results)
    head = f"{'metric':40s} {'unit':>11s}" + "".join(f"{w:>15s}" for w in names)
    print("\nEnd-to-end (untraced runs)\n" + head)
    for name, unit in END_TO_END + [("error_rate", "fraction"),
                                    ("samples", "runs")]:
        row = f"{name:40s} {unit:>11s}"
        for w in names:
            res = results[w][0]
            value = (res["failed"] / res["attempted"] if name == "error_rate"
                     else res["attempted"] if name == "samples"
                     else res["metrics"][name]["value"])
            row += f"{_fmt(value):>15s}"
        print(row)
    print("\nPer layer (traced runs)\n" + head)
    for name, unit, _, _ in PER_LAYER:
        print(f"{name:40s} {unit:>11s}" + "".join(
            f"{_fmt(results[w][1]['metrics'][name]['value']):>15s}"
            for w in names))


def _check_manifest() -> None:
    """BENCHMARK.json must list exactly the metrics this script reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    want_layer = [(m["name"], m["unit"], m["better"])
                  for m in spec["per_layer"]]
    if want_e2e != END_TO_END or \
            want_layer != [(n, u, b) for n, u, b, _ in PER_LAYER]:
        raise SystemExit("perfbench: BENCHMARK.json and run.py disagree "
                         "on the metrics")
    if [w["name"] for w in spec["workloads"]] != list(scenarios.WORKLOADS):
        raise SystemExit("perfbench: BENCHMARK.json and scenarios.py "
                         "disagree on the workloads")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=scenarios.WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    if not (SRC / "hkflow" / "__init__.py").is_file():
        print(f"perfbench: no hkflow source under {SRC}", file=sys.stderr)
        return 2
    _check_manifest()

    try:
        if args.all:
            results = {}
            for w in scenarios.WORKLOADS:
                results[w] = [measure(w, args.seed, args.seconds, trace)
                              for trace in (False, True)]
                for res in results[w]:
                    save(res)
                    print_summary(res)
            print_tables(results)
            return 0 if all(r["correct"] for pair in results.values()
                            for r in pair) else 1
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    save(result)
    print_summary(result)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
