"""End-to-end command line checks, in-process plus one subprocess run."""
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hkflow
from hkflow.checks import IDENTITIES, _phase_differential
from hkflow.cli import _SCHEMA, main
from hkflow.curves import CSF_SCHEMES
from hkflow.flow import MCF_SCHEMES
from hkflow.mesh import flat_square, icosphere, read_off4
from test_boundaries import _finite_json

_IDENTITY_NAMES = tuple(row.name for row in IDENTITIES)


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


def test_manifest_records_argv_versions_and_threads(tmp_path, monkeypatch):
    import platform

    import scipy

    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    argv = ["--out", str(tmp_path / "out"), "--seed", "3", "verify",
            "--suite", "quaternionic"]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["argv"] == argv
    assert manifest["version"] == hkflow.__version__
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert manifest["scipy"] == scipy.__version__
    assert manifest["threads"]["OMP_NUM_THREADS"] == "1"
    assert manifest["threads"]["MKL_NUM_THREADS"] is None
    assert set(manifest["threads"]) == {"OMP_NUM_THREADS",
                                        "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS"}
    assert manifest["config"]["scenario"]["seed"] == 3


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

    # every identity but quaternionic goes through frames, in the suite's
    # own pass or in grid_geometry's, or through degree
    monkeypatch.setattr("hkflow.checks.frames", fail)
    monkeypatch.setattr("hkflow.surfaces.frames", fail)
    monkeypatch.setattr("hkflow.checks.degree", fail)
    code, out = run(tmp_path, "verify", "--suite", "quaternionic")
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert list(report["identities"]) == ["quaternionic"]


@pytest.fixture(scope="module")
def full_verify_rows(tmp_path_factory):
    rows = {}
    for seed in (0, 1):
        out = tmp_path_factory.mktemp(f"verify-seed-{seed}")
        assert main(["--out", str(out), "--seed", str(seed), "verify"]) == 0
        rows[seed] = json.loads(
            (out / "verify_report.json").read_text())["identities"]
    return rows


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("name", _IDENTITY_NAMES)
def test_verify_subset_reports_the_full_run_rows(tmp_path, full_verify_rows,
                                                 name, seed):
    code, out = run(tmp_path, "--seed", str(seed), "verify", "--suite", name)
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["identities"] == {name: full_verify_rows[seed][name]}


@pytest.mark.parametrize("suite, calls", [
    ("all", ["plane", "cylinder", "sphere", "grim-reaper", "quadratic-graph"]),
    ("quaternionic,phase-block,det-gauss", []),
])
def test_verify_differentiates_the_phase_once_per_family(tmp_path,
                                                         monkeypatch, suite,
                                                         calls):
    seen = []

    def spy(family, u, v, fr, sff):
        seen.append(family.name)
        return _phase_differential(family, u, v, fr, sff)

    monkeypatch.setattr("hkflow.checks._phase_differential", spy)
    code, _ = run(tmp_path, "verify", "--suite", suite)
    assert code == 0
    assert seen == calls


def test_verify_one_surface(tmp_path):
    code, out = run(tmp_path, "verify", "--surface", "sphere")
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["surface"] == "sphere"
    assert report["all_pass"]
    # the other four sample families of their own
    assert list(report["identities"]) == ["quaternionic", "phase-block",
                                          "coupling", "energy"]


def test_verify_reports_a_nan_residual_as_a_failure(tmp_path, capsys):
    """A cylinder of radius 1e-160 overflows |H|^2 = 1/r^2, so its coupling
    and energy residuals are NaN: they must print nan and FAIL, not pass,
    and the report, strict JSON, holds them as null."""
    cfg = config(tmp_path, "[surface]\nradius = 1e-160\n")
    with np.errstate(all="ignore"):
        code, out = run(tmp_path, "--config", cfg, "verify",
                        "--surface", "cylinder")
    assert code == 2
    report = _finite_json((out / "verify_report.json").read_text())
    assert not report["all_pass"]
    for name in ("coupling", "energy"):
        row = report["identities"][name]
        assert row["residual"] is None and row["pass"] is False, name
    assert re.search(r"^coupling +residual nan .*FAIL$",
                     capsys.readouterr().out, re.M)


def test_verify_folds_keep_a_nan_that_comes_late(tmp_path, monkeypatch):
    """A NaN that follows finite residuals survives every fold: the rotated
    triple's quaternionic residual, the last phase-block term of the second
    family, and det dJ on the second det graph, which enters through the
    det rows' one geometry pass."""
    from dataclasses import replace

    import hkflow.checks as checks
    from hkflow.structure import StructureTriple

    triples = iter([1e-16, float("nan")])
    monkeypatch.setattr(StructureTriple, "quaternionic_residual",
                        lambda self: next(triples))
    calls = {"frames": 0, "det": 0}
    frames, geometry = checks.frames, checks.grid_geometry

    def late_nan_frames(jet):
        fr = frames(jet)
        calls["frames"] += 1
        if calls["frames"] != 2:
            return fr
        lam = fr.lam.copy()
        lam[-1, 2] = np.nan
        return replace(fr, lam=lam)

    def late_nan_geometry(family, u, v, fields):
        detdj, *rest = geometry(family, u, v, fields)
        calls["det"] += 1
        if calls["det"] == 2:
            detdj = detdj.copy()
            detdj[-1] = np.nan
        return detdj, *rest

    monkeypatch.setattr(checks, "frames", late_nan_frames)
    monkeypatch.setattr(checks, "grid_geometry", late_nan_geometry)
    suite = ["quaternionic", "phase-block", "det-gauss", "det-norms"]
    code, out = run(tmp_path, "verify", "--suite", ",".join(suite))
    assert code == 2
    rows = _finite_json((out / "verify_report.json").read_text())["identities"]
    assert list(rows) == suite
    for name, row in rows.items():
        assert row["residual"] is None and row["pass"] is False, name


def test_verify_unknown_identity(tmp_path):
    code, _ = run(tmp_path, "verify", "--suite", "bogus")
    assert code == 1


def test_verify_makes_one_frames_pass_per_sample_set(tmp_path, monkeypatch):
    """A default run computes frames 55 times: the centre and the four
    stencil jets of each of the 5 families (25), one pass per det graph
    (20), and the degree grids in blocks of BLOCK points, 2 for the torus
    at n = 64 and 8 for the sphere at n = 128."""
    import hkflow.checks
    import hkflow.phase
    import hkflow.surfaces

    real, calls = hkflow.surfaces.frames, []

    def counted(jet):
        calls.append(None)
        return real(jet)

    for module in (hkflow.surfaces, hkflow.phase, hkflow.checks):
        monkeypatch.setattr(module, "frames", counted)
    code, _ = run(tmp_path, "verify")
    assert code == 0
    assert len(calls) == 55


def test_a_multi_line_name_round_trips_through_the_json_files(tmp_path):
    """An INI continuation line puts a newline into [scenario] name; the
    manifest and the report escape it, so both stay strict JSON."""
    cfg = config(tmp_path, "[scenario]\nname = foo\n  bar\n")
    code, out = run(tmp_path, "--config", cfg, "verify", "--suite",
                    "quaternionic")
    assert code == 0
    manifest = _finite_json((out / "manifest.json").read_text())
    report = _finite_json((out / "verify_report.json").read_text())
    assert manifest["config"]["scenario"]["name"] == "foo\nbar"
    assert report["scenario"] == "foo\nbar"


def test_readme_verify_text_matches_the_identity_table():
    """README's verify text names every row of hkflow.checks.IDENTITIES in
    report order, counts them, and lists the rows that run on one family."""
    text = " ".join((Path(__file__).resolve().parents[1]
                     / "README.md").read_text().split())
    usage = re.search(r"verify run the identity suite \(all (\d+) identities"
                      r".*? restricts it to the (\d+) that run on one family",
                      text)
    rows = re.search(r"`verify` checks .*? in report order they are (.*?) The",
                     text).group(1)
    on_one = re.search(r"`verify --surface NAME` runs only the identities "
                       r"evaluated on that family \(([^)]*)\)", text).group(1)
    one_family = [row.name for row in IDENTITIES if not row.own_families]
    assert int(usage.group(1)) == len(IDENTITIES)
    assert int(usage.group(2)) == len(one_family)
    assert [n for n in re.findall(r"`([a-z-]+)`", rows)
            if n in _IDENTITY_NAMES] == list(_IDENTITY_NAMES)
    assert re.findall(r"`([a-z-]+)`", on_one) == one_family


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
    # analyze --mode and phase --surface set these; type1_monitor owns the tail
    "removed-analyze-mode": ("[analyze]\nmode = type1\n", "flow-curve", ""),
    "removed-analyze-tail-frac": ("[analyze]\ntail_frac = 0.5\n",
                                  "flow-curve", ""),
    "removed-surface-family": ("[surface]\nfamily = sphere\n", "phase", ""),
    # each flow takes only its own schemes; t_end = 0 takes no step, so the
    # name is checked before the run and not inside a step
    "curve-scheme-explicit": ("[flow]\nscheme = explicit\n", "flow-curve", ""),
    "mesh-scheme-rk4": ("[flow]\nscheme = rk4\n", "flow-mesh", ""),
    # each flow has one integrator: these second ones are gone
    "curve-scheme-semi-implicit": ("[flow]\nscheme = semi-implicit\n",
                                   "flow-curve", ""),
    "mesh-scheme-explicit": ("[flow]\nscheme = explicit\n", "flow-mesh", ""),
    "mesh-scheme-unknown-no-step": ("[flow]\nscheme = foo\nt_end = 0\n",
                                    "flow-mesh", ""),
    # float() reads nan and inf; no run can use them
    "mesh-t-end-nan": ("[flow]\nt_end = nan\n", "flow-mesh", ""),
    "curve-t-end-inf": ("[flow]\nt_end = inf\n", "flow-curve", ""),
    "curve-radius-nan": ("[curve]\nradius = nan\n", "flow-curve", ""),
    "mesh-radius-nan": ("[mesh]\nradius = nan\n", "flow-mesh", ""),
    "curve-dt-nan": ("[flow]\ndt = nan\n", "flow-curve", ""),
    "mesh-dt-inf": ("[flow]\ndt = inf\n", "flow-mesh", ""),
    # a negative t_end asks for no run; t_end = 0 asks for the initial state
    "curve-t-end-negative": ("[flow]\nt_end = -1\n", "flow-curve", ""),
    "mesh-t-end-negative": ("[flow]\nt_end = -1\n", "flow-mesh", ""),
    # dt and v0 are checked whole at load, also by commands that never read
    # them
    "verify-dt-not-a-number": ("[flow]\ndt = fast\n",
                               "verify --suite quaternionic", ""),
    "phase-v0-not-numeric": ("[analyze]\nv0 = 0,0,one,0\n",
                             "phase --surface plane", ""),
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
    # sizes no mesh has: no icosahedron run, no DegenerateTriangle exit 2
    "mesh-subdivisions-negative": ("[mesh]\nsubdivisions = -1\n",
                                   "flow-mesh", ""),
    "mesh-radius-0": ("[mesh]\nradius = 0\n", "flow-mesh", ""),
    "square-extent-0": ("[mesh]\nkind = square\nextent = 0\n",
                        "flow-mesh", ""),
    "curve-n-8": ("[curve]\nn = 8\n", "flow-curve", ""),
    "curve-radius-0": ("[curve]\nradius = 0\n", "flow-curve", ""),
    "torus-ny-4": ("[mesh]\nkind = torus\nny = 4\n", "flow-mesh", ""),
    "sphere-radius-negative": ("[surface]\nradius = -1\n",
                               "phase --surface sphere", ""),
    # past MAX_RADIUS the metric r^4 overflows: found at load, not as a
    # DegenerateJet mid-computation
    "sphere-radius-overflow": ("[surface]\nradius = 1e200\n",
                               "phase --surface sphere", ""),
    "cylinder-radius-overflow": ("[surface]\nradius = 1e200\n",
                                 "verify --surface cylinder", ""),
    "log-not-json": ("", "analyze log.jsonl", _ONE_RECORD + "not json\n"),
    "log-without-area": ("", "analyze log.jsonl", '{"t": 0, "max_B": 1}\n'),
    "log-repeated-t": ("", "analyze log.jsonl", _ONE_RECORD * 2),
    "log-margin-not-a-number": (
        "", "analyze log.jsonl",
        '{"t": 0, "max_B": 1, "area": 1, "margin": "wide"}\n'),
    "unknown-section": ("[colour]\nhue = red\n", "flow-curve", ""),
    "dt-not-a-number": ("[flow]\ndt = fast\n", "flow-curve", ""),
    "curve-family-unknown": ("[curve]\nfamily = spiral\n", "flow-curve", ""),
    "mesh-kind-unknown": ("[mesh]\nkind = cube\n", "flow-mesh", ""),
    "phase-family-unknown": ("", "phase --surface catenoid", ""),
    "soliton-family-unknown": ("[analyze]\nfamily = catenoid\n",
                               "analyze log.jsonl --mode soliton",
                               "u,v\n0.1,0.2\n"),
    "soliton-v0-three-floats": ("[analyze]\nv0 = 0,0,1\n",
                                "analyze log.jsonl --mode soliton",
                                "u,v\n0.1,0.2\n"),
    "soliton-v0-not-numeric": ("[analyze]\nv0 = 0,0,one,0\n",
                               "analyze log.jsonl --mode soliton",
                               "u,v\n0.1,0.2\n"),
    "soliton-not-numeric": ("", "analyze log.jsonl --mode soliton",
                            "u,v\n0.1,0.2\n0.3,abc\n"),
    "soliton-no-samples": ("", "analyze log.jsonl --mode soliton", "u,v\n"),
    "log-empty": ("", "analyze log.jsonl", ""),
    # numpy takes no negative seed, for any command that draws
    "seed-negative-verify": ("[scenario]\nseed = -1\n",
                             "verify --suite quaternionic", ""),
    "seed-negative-phase": ("[scenario]\nseed = -1\n",
                            "phase --surface quadratic-graph", ""),
    "seed-negative-soliton": ("[scenario]\nseed = -1\n",
                              "analyze log.jsonl --mode soliton",
                              "u,v\n0.1,0.2\n"),
    "seed-option-negative": ("", "--seed -3 verify", ""),
    # k % -2 made a negative count checkpoint every 2 steps
    "checkpoint-every-negative": ("[flow]\ncheckpoint_every = -2\n",
                                  "flow-mesh", ""),
}
# what an analyze error names when it is not one line of log.jsonl
WHOLE_INPUT_ERRORS = {
    "soliton-family-unknown": "unknown surface family 'catenoid'",
    "soliton-v0-three-floats": "bad v0 '0,0,1'",
    "soliton-v0-not-numeric": "bad v0 '0,0,one,0'",
    "soliton-no-samples": "log.jsonl: no u,v samples",
    "log-empty": "log.jsonl: empty trajectory log",
    "seed-negative-soliton": "[scenario] seed must not be negative",
}
# the whole message of a rejected negative value, which names its key
NEGATIVE_VALUE_ERRORS = {
    "seed-negative-verify": "[scenario] seed must not be negative",
    "seed-option-negative": "--seed must not be negative",
    "checkpoint-every-negative":
        "[flow] checkpoint_every must not be negative",
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
        assert WHOLE_INPUT_ERRORS.get(case, "log.jsonl, line ") in err
    if case in NEGATIVE_VALUE_ERRORS:
        assert err == f"hkflow: config error: {NEGATIVE_VALUE_ERRORS[case]}\n"


@pytest.mark.parametrize("command, choices", [
    ("flow-curve", "('auto', 'rk4')"),
    ("flow-mesh", "('auto', 'semi-implicit')"),
])
def test_unknown_scheme_names_the_choices(tmp_path, capsys, command, choices):
    """An unknown name, a removed integrator (the curve's semi-implicit,
    the mesh's explicit) or the other flow's integrator."""
    for name in ("foo", "rk4", "semi-implicit", "explicit"):
        if f"'{name}'" in choices:
            continue
        cfg = config(tmp_path, f"[flow]\nscheme = {name}\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "out"),
                     command]) == 1
        err = capsys.readouterr().err
        assert err == (f"hkflow: config error: unknown [flow] scheme "
                       f"'{name}'; choose from {choices}\n")


@pytest.mark.parametrize("command, scheme", [("flow-curve", "rk4"),
                                            ("flow-mesh", "semi-implicit")])
def test_a_flow_runs_under_its_scheme_name(tmp_path, command, scheme):
    """Naming a flow's one integrator gives the bytes of scheme = auto."""
    outs = []
    for name in ("auto", scheme):
        cfg = config(tmp_path, "[curve]\nn = 32\n[mesh]\nsubdivisions = 2\n"
                               f"[flow]\nt_end = 0.01\nscheme = {name}\n")
        outs.append(tmp_path / name)
        assert main(["--config", cfg, "--out", str(outs[-1]), command]) == 0
    assert (outs[0] / "history.jsonl").read_bytes() \
        == (outs[1] / "history.jsonl").read_bytes()


def test_readme_config_reference_matches_schema():
    """README's configuration table lists every key with its default, and
    its scheme list names each flow's integrators."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \| `([^`]*)` \|",
                      text, flags=re.MULTILINE)
    assert rows == [(sec, key, str(default))
                    for sec, keys in _SCHEMA.items()
                    for key, (_, default) in keys.items()]
    listed = dict(re.findall(
        r"^- `(flow-\w+)` accepts `auto` and ((?:`[\w-]+`(?:,? and |, )?)+)",
        text, flags=re.MULTILINE))
    assert {flow: tuple(re.findall(r"`([\w-]+)`", names))
            for flow, names in listed.items()} == {
        "flow-curve": CSF_SCHEMES, "flow-mesh": MCF_SCHEMES}


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


def test_flow_curve_stops_at_the_blow_up_time(tmp_path):
    # the adaptive step falls below half an ulp of t before t reaches 0.25;
    # the tail times then agree too closely for the Type-I fit
    cfg = config(tmp_path, "[curve]\nn = 16\n[flow]\nt_end = 0.25\n")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "flow-curve"]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["truncated"]
    assert diag["t_final"] < 0.25
    assert diag["t_est"] is None and diag["note"]


def test_flow_curve_figure_eight(tmp_path):
    cfg = config(tmp_path, "[curve]\nfamily = figure-eight\nn = 64\n"
                           "[flow]\nt_end = 0.01\nsnapshot_every = 5\n")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "flow-curve"]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    # the zero-Maslov witness: it winds around neither 0 nor itself
    assert diag["ind_gamma"] == diag["ind_gammaprime"] == 0
    assert abs(diag["maslov_defect"]) < 1e-12
    assert diag["t_final"] == 0.01 and not diag["truncated"]


def test_flow_curve_origin_crossing_exits_2(tmp_path):
    # eps = 1 pinches the loop onto the origin at a grid point
    cfg = config(tmp_path, "\n".join([
        "[curve]", "family = perturbed-circle", "eps = 1.0", "mode = 4",
        "n = 256",
    ]))
    code = main(["--config", cfg, "--out", str(tmp_path / "out"),
                 "flow-curve"])
    assert code == 2


def test_flow_curve_stopped_by_stability_leaves_its_trajectory(tmp_path):
    """dt = 1.8e-3 sits just under 0.2 h0^2 = 1.93e-3 of the n = 64 unit
    circle.  The shrinking circle's spacing brings the bound under dt, so
    the 11th step raises.  The snapshots and history records at the
    cadence stay behind, as a finished run writes them."""
    cfg = config(tmp_path, "\n".join([
        "[curve]", "family = circle", "n = 64",
        "[flow]", "dt = 1.8e-3", "t_end = 0.05", "snapshot_every = 4",
    ]))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "flow-curve"]) == 2
    records = [json.loads(line) for line in
               (out / "history.jsonl").read_text().splitlines()]
    assert [r["t"] for r in records] == [0.0, 4 * 1.8e-3, 8 * 1.8e-3]
    assert all(set(r) == {"t", "max_B", "area", "margin"} for r in records)
    assert sorted(p.name for p in (out / "snapshots").iterdir()) == [
        "snap_00000.csv", "snap_00001.csv", "snap_00002.csv"]
    assert not (out / "diagnostics.json").exists()


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


def test_flow_mesh_auto_dt_is_its_stated_step(tmp_path):
    """dt = auto steps 0.2 h_min^2 of the initial mesh: the same bytes as
    that step given as a number."""
    h_min = icosphere(2).min_edge_length()
    logs = []
    for name, dt in (("auto", "auto"), ("number", repr(0.2 * h_min ** 2))):
        cfg = config(tmp_path, "[mesh]\nkind = icosphere\nsubdivisions = 2\n"
                               f"[flow]\ndt = {dt}\nt_end = 0.05\n")
        out = tmp_path / name
        assert main(["--config", cfg, "--out", str(out), "flow-mesh"]) == 0
        logs.append((out / "history.jsonl").read_bytes())
    assert logs[0] == logs[1]
    assert logs[0].count(b"\n") > 2


def test_flow_mesh_square_with_checkpoints(tmp_path):
    # the flat square is minimal and its boundary is pinned: nothing moves
    cfg = config(tmp_path, "[mesh]\nkind = square\nn = 4\n"
                           "[flow]\ndt = 1e-3\nt_end = 5e-3\n"
                           "checkpoint_every = 2\n")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "flow-mesh"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps"] == 5
    assert summary["area_final"] == summary["area_initial"] == 1.0
    names = sorted(p.name for p in (out / "checkpoints").iterdir())
    assert names == ["checkpoint_000002.off", "checkpoint_000004.off"]
    assert np.array_equal(read_off4(out / "checkpoints" / names[-1]).vertices,
                          flat_square(4).vertices)


def test_flow_mesh_ends_at_t_end(tmp_path):
    """dt = auto is 0.0125 on the n = 4 square, above t_end = 0.01: the run
    takes one step of t_end itself, not one whole step past it."""
    cfg = config(tmp_path, "[mesh]\nkind = square\nn = 4\n"
                           "[flow]\nt_end = 0.01\n")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "flow-mesh"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps"] == 1
    assert summary["t_final"] == 0.01
    assert not summary["truncated"]


def test_flow_mesh_stopped_by_guard_leaves_its_records(tmp_path,
                                                       monkeypatch):
    """The second step meets a geometric guard (a folded vertex of the new
    mesh), so the run exits 2.  The history holds the two states reached,
    as a finished run writes them."""
    import hkflow.flow
    from hkflow.errors import FoldedVertex

    step, steps = hkflow.flow.mcf_step, []

    def folds_on_second_step(state, dt):
        steps.append(dt)
        if len(steps) == 2:
            raise FoldedVertex("the new one-ring folds over itself")
        return step(state, dt)

    monkeypatch.setattr(hkflow.flow, "mcf_step", folds_on_second_step)
    cfg = config(tmp_path, "\n".join([
        "[mesh]", "kind = icosphere", "subdivisions = 2",
        "[flow]", "dt = 0.019", "t_end = 0.2",
    ]))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "flow-mesh"]) == 2
    assert steps == [0.019, 0.019]
    records = [json.loads(line) for line in
               (out / "history.jsonl").read_text().splitlines()]
    assert [r["t"] for r in records] == [0.0, 0.019]
    assert all(set(r) == {"t", "max_B", "max_H", "area", "margin"}
               for r in records)
    assert not (out / "summary.json").exists()


# -- analyze ----------------------------------------------------------------------

def test_analyze_missing_file(tmp_path, capsys):
    code = main(["--out", str(tmp_path / "out"), "analyze",
                 str(tmp_path / "absent.jsonl")])
    assert code == 1
    assert capsys.readouterr().err.startswith("hkflow: config error")


# files to make (bytes, or None for a directory), the arguments, and the
# path that the error must name
OUTSIDE_FILE_ERRORS = {
    "out-is-a-file": ({"taken": b""}, "--out taken verify", "taken"),
    "out-below-a-file": ({"taken": b""}, "--out taken/sub verify",
                         "taken/sub"),
    "analyze-a-directory": ({"logs": None}, "--out out analyze logs", "logs"),
    "config-undecodable": ({"run.ini": b"[scenario]\nname = \xff\n"},
                           "--config run.ini --out out verify", "run.ini"),
    "log-undecodable": ({"log.jsonl": b'{"t": 0.0, "max_B": 1\xff}\n'},
                        "--out out analyze log.jsonl", "log.jsonl"),
    "samples-undecodable": ({"uv.csv": b"u,v\n0.1,\xff\n"},
                            "--out out analyze uv.csv", "uv.csv"),
}


@pytest.mark.parametrize("case", sorted(OUTSIDE_FILE_ERRORS))
def test_an_unusable_outside_file_is_a_config_error(tmp_path, monkeypatch,
                                                     capsys, case):
    files, argv, named = OUTSIDE_FILE_ERRORS[case]
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        if data is None:
            Path(name).mkdir()
        else:
            Path(name).write_bytes(data)
    code = main(argv.split())
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("hkflow: config error")
    assert named in err
    assert "Traceback" not in err


# a path inside --out that a run writes, made first as a directory (None)
# or a file (b""), the command and its config
_SMALL_FLOW = "[curve]\nn = 32\n[mesh]\nsubdivisions = 1\n[flow]\ndt = 1e-3\n" \
              "t_end = 2e-3\n"
BLOCKED_OUT_PATHS = {
    "manifest-a-directory": ("manifest.json", None,
                             "verify --suite quaternionic", ""),
    "snapshots-a-file": ("snapshots", b"", "flow-curve", _SMALL_FLOW),
    "checkpoints-a-file": ("checkpoints", b"", "flow-mesh",
                           _SMALL_FLOW + "checkpoint_every = 1\n"),
    "history-a-directory": ("history.jsonl", None, "flow-mesh", _SMALL_FLOW),
}


@pytest.mark.parametrize("case", sorted(BLOCKED_OUT_PATHS))
def test_a_blocked_path_inside_out_is_a_config_error(tmp_path, monkeypatch,
                                                      capsys, case):
    name, data, command, text = BLOCKED_OUT_PATHS[case]
    monkeypatch.chdir(tmp_path)
    Path("run.ini").write_text(text)
    blocked = Path("out") / name
    Path("out").mkdir()
    if data is None:
        blocked.mkdir()
    else:
        blocked.write_bytes(data)
    code = main(["--config", "run.ini", "--out", "out", *command.split()])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("hkflow: config error")
    assert str(blocked) in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("command", ["phase --surface sphere",
                                     "verify --surface cylinder"])
def test_a_surface_radius_below_the_bound_runs(tmp_path, command):
    """1e60 is below MAX_RADIUS: its metric r^4 = 1e240 is finite, and the
    run passes."""
    cfg = config(tmp_path, "[surface]\nradius = 1e60\n")
    code, _ = run(tmp_path, "--config", cfg, *command.split())
    assert code == 0


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
# TYPE1_LOG from log.jsonl.  The first three were recorded at the parent
# commit of the spectral factor cache, the 17-digit row writer and the
# blocked torus jets, the last four at the parent commit of the shared
# trajectory-log reader and writer, the shared Type-I report and the shared
# midpoint grid (numpy 2.4.6, OpenBLAS, x86-64); each of those changes had
# to leave these bytes unchanged.  icosphere-2 was recorded again when the
# mesh |B| fit moved to ring moments and an unrolled Cholesky solve, which
# moves max_B in its last bits and nothing else, and again when flow-mesh
# moved to the counted clock k dt, which moves its last t and t_final from
# 0.010000000000000002 to 0.01 and nothing else.  verify-20 was recorded
# again when verify moved every draw ahead of the evaluation and
# sample_domain moved to window(), which change its samples.  rk4 was
# recorded again when the step formed its velocity without the unit normal
# and took the new curve's derivatives from the filter's transform pair,
# which move every curve value in its last bits; type1-log when the Type-I
# covariance moved to the R factor of a QR, which moves ci_halfwidth in its
# last bits and nothing else.  verify-surface-torus and verify-2100 were
# recorded at the parent commit of the identity table (hkflow.checks), which
# gives each sample set one geometry pass and had to leave these bytes
# unchanged; 2100 points exceed BLOCK, so the det rows' pass runs in two
# blocks.  icosphere-4 was recorded at the parent commit of the blocked |B|
# fit, which had to leave these bytes unchanged: its 2562 vertices make six
# blocks of BNORM_BLOCK = 512, the last of two vertices, where icosphere-2
# (162 vertices) and test_run_mcf_fingerprint (642) fit in one and two.
# rk4-odd was recorded at the parent commit of the one spectral table per
# curve grid, which had to leave these bytes unchanged: on its 63-point
# grid the first derivative keeps the top mode that an even grid zeroes,
# a branch no other case runs.  mesh-torus and mesh-square were recorded at
# the parent commit of the mesh's coordinate planes, which had to leave
# these bytes unchanged.  icosphere-2 and icosphere-4 lie in {x4 = 0} and
# never meet an exact zero dot product.  The lifted torus has all four
# coordinates nonzero; the square's right angles make 72 of its cotangents
# exactly +0.0, and its boundary vertices stay pinned.
# Another FFT or BLAS build may round differently.
GOLDEN = {
    "rk4": ("flow-curve", "[curve]\nfamily = perturbed-circle\nn = 64\n"
            "[flow]\nt_end = 0.05\nsnapshot_every = 5\n",
            "95d48b435ed757816ef1570cd5832a75c2f7b9076fa48278a4513cdd0dc8120f"),
    "rk4-odd": ("flow-curve", "[curve]\nfamily = perturbed-circle\nn = 63\n"
                "[flow]\nt_end = 0.05\nsnapshot_every = 5\n",
                "1acd571cda270b4705a7458a3987bfd9734f6e3b57b609f8101c7ba7cd741575"),
    "torus-16": ("phase --surface torus", "[surface]\nn = 16\n",
                 "25d123f762b598e2c47409d2e48d028a4787955121b0e602eb720dd85e3fc272"),
    # 48 x 48 points but 48 distinct u: the torus jets of those are
    # evaluated in one block and gathered back
    "torus-48": ("phase --surface torus", "[surface]\nn = 48\n",
                 "8c47346c66b80e84d000d00574bd46c34926ddfbc7454f7d9bd9977b0668b3a7"),
    "verify-20": ("verify", "[surface]\npoints = 20\n",
                  "42d83f6bec2fc78c57d45a7f276a16ddc58b217e005b612579507d4c97ae7f5b"),
    "verify-surface-torus": (
        "verify --surface torus", "",
        "d8e5560afdcb2b8ca4f8da6fc02b593c671c2e46169fc49463efb8dc6046a746"),
    "verify-2100": ("verify", "[surface]\npoints = 2100\n",
                    "e0b7936bd857bbf9360bccdca5283d5eef19f01fb85dc8858d4380e1292f762f"),
    "icosphere-2": ("flow-mesh", "[mesh]\nkind = icosphere\nsubdivisions = 2\n"
                    "[flow]\ndt = 1e-3\nt_end = 0.01\n",
                    "314b62d025d8cebd99c65153b543e47f7dbca619b491259849a470b72e481d10"),
    "icosphere-4": ("flow-mesh", "[mesh]\nkind = icosphere\nsubdivisions = 4\n"
                    "[flow]\ndt = 5e-4\nt_end = 2e-3\n",
                    "19b089a71360eedeeeeb7948143bc911bc16461235bc571896d8899521a34bc8"),
    "mesh-torus": ("flow-mesh", "[curve]\nn = 48\n[mesh]\nkind = torus\n"
                   "ny = 12\n[flow]\ndt = 1e-3\nt_end = 3e-3\n",
                   "c6d6b792d7bae38ff8f6aa58579cc8eec9370688c6abc08011ac933d3f9997a3"),
    "mesh-square": ("flow-mesh", "[mesh]\nkind = square\nn = 8\n[flow]\n"
                    "dt = 1e-3\nt_end = 3e-3\n",
                    "5d7404002c231763516ec3384a7ced0d578627d455662f4902776d5c4b749940"),
    "type1-log": ("analyze log.jsonl", "",
                  "13e4ed6d083902304df7c5f52a5e1f423960d1b009183402e56eb89d8bfbb1f2"),
    "sphere-32": ("phase --surface sphere", "",
                  "ef74167c4ff393ae51ab4f2f4cf858ae69f1037c57c91dac687d478160998712"),
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

def _child_env():
    # the child imports the package from where this process found it, also
    # when only pytest's pythonpath setting put it on sys.path
    src = str(Path(hkflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hkflow.cli", "--out", str(tmp_path / "out"),
         "verify", "--suite", "quaternionic"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert "quaternionic" in proc.stdout and "PASS" in proc.stdout
    assert (tmp_path / "out" / "verify_report.json").exists()


def test_cli_import_loads_no_sparse_or_dense_linear_algebra():
    """scipy.sparse and scipy.linalg took about 0.29 s of the 0.47 s that
    `import hkflow.cli` cost (2-core x86-64), paid by every command."""
    code = "import sys, hkflow.cli; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env(), check=True)
    modules = proc.stdout.split()
    assert "hkflow.cli" in modules
    assert [m for m in modules
            if m.startswith(("scipy.sparse", "scipy.linalg"))] == []
