"""End-to-end command line checks, in-process plus one subprocess run."""
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hkflow
from hkflow.cli import main


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main(["--out", str(out), *argv]), out


def config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


# -- verify ---------------------------------------------------------------------

def test_verify_all_identities(tmp_path, capsys):
    code, out = run(tmp_path, "verify")
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    report = json.loads((out / "verify_report.json").read_text())
    assert report["all_pass"]
    assert len(report["identities"]) == 8
    for name, row in report["identities"].items():
        assert row["pass"], name
        assert row["residual"] <= row["tolerance"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "verify"
    assert manifest["config"]["scenario"]["seed"] == 0


def test_verify_deterministic(tmp_path):
    code_a, out_a = main(["--out", str(tmp_path / "a"), "verify"]), tmp_path / "a"
    code_b, out_b = main(["--out", str(tmp_path / "b"), "verify"]), tmp_path / "b"
    assert code_a == code_b == 0
    assert (out_a / "verify_report.json").read_bytes() \
        == (out_b / "verify_report.json").read_bytes()


def test_verify_subset(tmp_path):
    code, out = run(tmp_path, "verify", "--suite", "quaternionic,phase-block")
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert sorted(report["identities"]) == ["phase-block", "quaternionic"]


def test_verify_evaluates_only_the_requested_identities(tmp_path,
                                                        monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("an identity outside --suite was evaluated")

    # every identity but quaternionic goes through one of these two
    monkeypatch.setattr("hkflow.cli.frames", fail)
    monkeypatch.setattr("hkflow.cli.degree", fail)
    code, out = run(tmp_path, "verify", "--suite", "quaternionic")
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert list(report["identities"]) == ["quaternionic"]


def test_verify_unknown_identity(tmp_path):
    code, _ = run(tmp_path, "verify", "--suite", "bogus")
    assert code == 1


# -- config handling --------------------------------------------------------------

def test_missing_config(tmp_path):
    code = main(["--config", str(tmp_path / "absent.ini"),
                 "--out", str(tmp_path / "out"), "verify"])
    assert code == 1


def test_malformed_config(tmp_path):
    cfg = config(tmp_path, "t_end = 0.1\n")  # key before any section
    assert main(["--config", cfg, "--out", str(tmp_path / "out"),
                 "verify"]) == 1


def test_unknown_config_key(tmp_path):
    cfg = config(tmp_path, "[flow]\nwibble = 3\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "out"),
                 "verify"]) == 1


def test_bad_config_value(tmp_path):
    cfg = config(tmp_path, "[flow]\nt_end = soon\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "out"),
                 "verify"]) == 1


# Outside input that the config reader, a constructor, the log or sample
# reader or the verify suite rejects: (config, argv, text written to
# log.jsonl).
_ONE_RECORD = '{"t": 0, "max_B": 1, "area": 1}\n'
CONFIG_ERRORS = {
    # [flow] has no such keys: a config naming them is rejected, not ignored
    "removed-redistribute-every": ("[flow]\nredistribute_every = 5\n",
                                   "flow-curve", ""),
    "removed-stability-c": ("[flow]\nstability_c = 0.1\n", "flow-curve", ""),
    # det-gauss samples its own families, so --surface would skip it
    "verify-identity-not-run": ("", "verify --suite det-gauss --surface "
                                "cylinder", ""),
    # u = 1.9 lies beyond the grim reaper's |u| < pi/2
    "soliton-outside-domain": ("", "analyze log.jsonl --mode soliton",
                               "u,v\n0.1,0.2\n1.9,0.0\n"),
    "snapshot-every-0": ("[flow]\nsnapshot_every = 0\n", "flow-curve", ""),
    "surface-n-0": ("[surface]\nn = 0\n", "phase", ""),
    "surface-points-0": ("[surface]\npoints = 0\n", "verify", ""),
    "square-n-0": ("[mesh]\nkind = square\nn = 0\n", "flow-mesh", ""),
    "curve-n-8": ("[curve]\nn = 8\n", "flow-curve", ""),
    "curve-radius-0": ("[curve]\nradius = 0\n", "flow-curve", ""),
    "torus-ny-4": ("[mesh]\nkind = torus\nny = 4\n", "flow-mesh", ""),
    "sphere-radius-negative": ("[surface]\nradius = -1\n",
                               "phase --surface sphere", ""),
    "log-not-json": ("", "analyze log.jsonl", _ONE_RECORD + "not json\n"),
    "log-without-area": ("", "analyze log.jsonl", '{"t": 0, "max_B": 1}\n'),
    "log-repeated-t": ("", "analyze log.jsonl", _ONE_RECORD * 2),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_bad_input_is_a_config_error(tmp_path, monkeypatch, capsys, case):
    text, command, log = CONFIG_ERRORS[case]
    monkeypatch.chdir(tmp_path)
    Path("run.ini").write_text(text)
    Path("log.jsonl").write_text(log)
    code = main(["--config", "run.ini", "--out", "out", *command.split()])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("hkflow: config error")
    assert "Traceback" not in err
    if command.startswith("analyze"):
        assert "log.jsonl, line " in err


def test_analyze_non_unit_v0_is_a_config_error(tmp_path, capsys):
    cfg = config(tmp_path, "[analyze]\nv0 = 0,0,2,0\n")
    samples = tmp_path / "samples.csv"
    samples.write_text("u,v\n0.1,0.2\n")
    code = main(["--config", cfg, "--out", str(tmp_path / "out"), "analyze",
                 str(samples)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("hkflow: config error: [analyze] v0 '0,0,2,0'")
    assert "Traceback" not in err


def test_bad_subcommand(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_threads_flag_removed(tmp_path):
    # BLAS pools start when numpy is imported, before main could cap them;
    # set OMP_NUM_THREADS / OPENBLAS_NUM_THREADS before starting instead
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "--out", str(tmp_path / "out"), "verify"])
    assert exc.value.code == 1


# -- flow-curve -------------------------------------------------------------------

def test_flow_curve_end_to_end(tmp_path):
    cfg = config(tmp_path, "\n".join([
        "[curve]", "family = circle", "n = 64",
        "[flow]", "t_end = 0.05", "snapshot_every = 5",
    ]))
    code = main(["--config", cfg, "--out", str(tmp_path / "out"),
                 "flow-curve"])
    assert code == 0
    out = tmp_path / "out"
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["ind_gamma"] == 1
    assert not diag["truncated"]
    assert diag["t_final"] == 0.05
    assert abs(diag["t_est"] - 0.25) < 0.01
    records = [json.loads(line) for line in
               (out / "history.jsonl").read_text().splitlines()]
    assert len(list((out / "snapshots").iterdir())) == len(records)
    assert records[0]["max_B"] == pytest.approx(2.0, rel=1e-6)
    # the lift of any closed curve touches the half circle: its phase sits
    # on the great circle lam1 = 0 and Re(gamma gamma') integrates to zero,
    # so the radial derivative cannot keep one sign
    assert all(r["margin"] == 0.0 for r in records)


def test_flow_curve_outputs_byte_identical(tmp_path):
    cfg = config(tmp_path, "\n".join([
        "[curve]", "family = perturbed-circle", "n = 64",
        "[flow]", "t_end = 0.02", "snapshot_every = 5",
    ]))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["--config", cfg, "--out", str(out), "flow-curve"]) == 0
    for name in ("history.jsonl", "diagnostics.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_flow_curve_origin_crossing_exits_2(tmp_path):
    # eps = 1 pinches the loop onto the origin at a grid point
    cfg = config(tmp_path, "\n".join([
        "[curve]", "family = perturbed-circle", "eps = 1.0", "mode = 4",
        "n = 256",
    ]))
    code = main(["--config", cfg, "--out", str(tmp_path / "out"),
                 "flow-curve"])
    assert code == 2


# -- flow-mesh --------------------------------------------------------------------

def test_flow_mesh_summary(tmp_path):
    cfg = config(tmp_path, "\n".join([
        "[mesh]", "kind = icosphere", "subdivisions = 2",
        "[flow]", "dt = 1e-3", "t_end = 0.01",
    ]))
    code = main(["--config", cfg, "--out", str(tmp_path / "out"),
                 "flow-mesh"])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["steps"] == 10
    assert summary["area_monotone"]
    assert not summary["truncated"]
    assert summary["area_final"] < summary["area_initial"]


def test_flow_mesh_explicit_dt_too_large_exits_2(tmp_path):
    cfg = config(tmp_path, "\n".join([
        "[mesh]", "kind = icosphere", "subdivisions = 2",
        "[flow]", "dt = 0.1", "t_end = 0.2", "scheme = explicit",
    ]))
    code = main(["--config", cfg, "--out", str(tmp_path / "out"),
                 "flow-mesh"])
    assert code == 2


# -- analyze ----------------------------------------------------------------------

def test_analyze_missing_file(tmp_path, capsys):
    code = main(["--out", str(tmp_path / "out"), "analyze",
                 str(tmp_path / "absent.jsonl")])
    assert code == 1
    assert capsys.readouterr().err.startswith("hkflow: config error")


def test_analyze_soliton_residual(tmp_path):
    rng = np.random.default_rng(0)
    u = rng.uniform(-1.2, 1.2, size=40)
    v = rng.uniform(-1.5, 1.5, size=40)
    samples = tmp_path / "samples.csv"
    # the grim reaper is a product with a line, so any v is in its domain
    samples.write_text("u,v\n" + "\n".join(
        f"{a:.17g},{b:.17g}" for a, b in zip(u, v)) + "\n0.1,2.5\n")
    code = main(["--out", str(tmp_path / "out"), "analyze", str(samples)])
    assert code == 0
    report = json.loads(
        (tmp_path / "out" / "analyze_report.json").read_text())
    assert report["kind"] == "soliton"
    assert report["family"] == "grim-reaper"
    assert report["translator_residual"] < 1e-8


def test_analyze_type1_roundtrip(tmp_path):
    t = np.linspace(0.0, 0.2, 21)
    b = 1.0 / np.sqrt(2.0 * (0.25 - t))
    log = tmp_path / "history.jsonl"
    log.write_text("\n".join(
        json.dumps({"t": float(tk), "max_B": float(bk), "area": 1.0,
                    "margin": 0.5})
        for tk, bk in zip(t, b)) + "\n")
    code = main(["--out", str(tmp_path / "out"), "analyze", str(log)])
    assert code == 0
    report = json.loads(
        (tmp_path / "out" / "analyze_report.json").read_text())
    assert report["kind"] == "type1"
    assert abs(report["t_est"] - 0.25) < 1e-10
    assert abs(report["sup_rescaled"] - 1 / np.sqrt(2)) < 1e-10
    assert report["min_margin"] == 0.5


# -- phase ------------------------------------------------------------------------

def test_phase_cylinder_touches_forbidden_set(tmp_path):
    code, out = run(tmp_path, "phase", "--surface", "cylinder")
    assert code == 0
    report = json.loads((out / "phase_report.json").read_text())
    # the cylinder phase lies on the great circle lam1 = 0 and crosses
    # the half with lam2 >= 0
    assert report["touches_forbidden_set"]
    assert report["min_margin"] == 0.0
    rows = np.loadtxt(out / "phase_field.csv", delimiter=",", skiprows=1)
    assert np.allclose(rows[:, 2], 0.0, atol=1e-12)


def test_phase_reaper_stays_clear(tmp_path):
    code, out = run(tmp_path, "phase", "--surface", "grim-reaper")
    assert code == 0
    report = json.loads((out / "phase_report.json").read_text())
    assert not report["touches_forbidden_set"]
    assert report["min_margin"] > 0.0


# -- golden outputs ---------------------------------------------------------------

# sha256 over (relative name, bytes) of those of history.jsonl,
# diagnostics.json, phase_field.csv, verify_report.json, summary.json and
# analyze_report.json that a run writes, then of every snapshot CSV, in that
# order.  Each case is (command line, config, digest); "analyze" reads
# TYPE1_LOG from log.jsonl.  The first four were recorded at the parent
# commit of the spectral factor cache, the 17-digit row writer and the
# blocked torus jets, the last four at the parent commit of the shared
# trajectory-log reader and writer, the shared Type-I report and the shared
# midpoint grid (numpy 2.4.6, OpenBLAS, x86-64); each of those changes had
# to leave these bytes unchanged.  Another FFT or BLAS build may round
# differently.
GOLDEN = {
    "rk4": ("flow-curve", "[curve]\nfamily = perturbed-circle\nn = 64\n"
            "[flow]\nt_end = 0.05\nsnapshot_every = 5\n",
            "5a32c235ec05e937f38d838de523dda66423e055405958a7409539a4a5e16b72"),
    "semi-implicit": (
        "flow-curve", "[curve]\nfamily = perturbed-circle\nn = 64\n"
        "[flow]\ndt = 2e-3\nt_end = 0.05\nscheme = semi-implicit\n"
        "snapshot_every = 5\n",
        "0c34ab98151230c15155b04239dd3e58b285d09cbaeecd04459f404eb4477ba1"),
    "torus-16": ("phase --surface torus", "[surface]\nn = 16\n",
                 "69c1818e2684a992711a2c81ab786d0ca7fd6412e40189bf63fd1f77445039c2"),
    # 48 x 48 points: the torus jets are evaluated in blocks
    "torus-48": ("phase --surface torus", "[surface]\nn = 48\n",
                 "58b24c453d2e3308e0abb0859b741d2994719ae0f785f5f2cfa243c3ca14d8c4"),
    "verify-20": ("verify", "[surface]\npoints = 20\n",
                  "cdb6131f66872d77df1d2d5e8d7603194650dde9b2a5a457e3bba33eef480089"),
    "icosphere-2": ("flow-mesh", "[mesh]\nkind = icosphere\nsubdivisions = 2\n"
                    "[flow]\ndt = 1e-3\nt_end = 0.01\n",
                    "5a56b0679f9231555b3be9025b8cab99c8139b71eab26483973997b35eee8b99"),
    "type1-log": ("analyze log.jsonl", "",
                  "53b5d7d3f9145d90bb94cd2df74c44b5277a9c814fb6c16f30840b0dd22c4f09"),
    "sphere-32": ("phase --surface sphere", "",
                  "81a0bdd7fefb54ae500f25e14e1a4c47373a90385873957b32dfde22f54aedfe"),
}

# a Type-I blow-up at T = 0.25 with sup sqrt(T - t)|B| = 1/sqrt(2)
TYPE1_LOG = "".join(
    json.dumps({"t": k / 100, "max_B": 1 / math.sqrt(2 * (0.25 - k / 100)),
                "area": 1 - 4 * k / 100, "margin": 0.5 - k / 100}) + "\n"
    for k in range(21))


def _fingerprint(out: Path) -> str:
    files = [out / name for name in
             ("history.jsonl", "diagnostics.json", "phase_field.csv",
              "verify_report.json", "summary.json", "analyze_report.json")]
    files = [f for f in files if f.exists()]
    files += sorted(out.glob("snapshots/*.csv"))
    h = hashlib.sha256()
    for f in files:
        h.update(f.relative_to(out).as_posix().encode() + b"\0"
                 + f.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_outputs_match_recorded_fingerprint(tmp_path, monkeypatch, case):
    command, text, digest = GOLDEN[case]
    monkeypatch.chdir(tmp_path)
    Path("run.ini").write_text(text)
    Path("log.jsonl").write_text(TYPE1_LOG)
    assert main(["--config", "run.ini", "--out", "out", *command.split()]) == 0
    assert _fingerprint(tmp_path / "out") == digest


# -- subprocess -------------------------------------------------------------------

def test_module_entry_point(tmp_path):
    # the child imports the package from where this process found it, also
    # when only pytest's pythonpath setting put it on sys.path
    src = str(Path(hkflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hkflow.cli", "--out", str(tmp_path / "out"),
         "verify", "--suite", "quaternionic"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "quaternionic" in proc.stdout and "PASS" in proc.stdout
    assert (tmp_path / "out" / "verify_report.json").exists()
