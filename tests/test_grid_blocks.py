"""Grid geometry one block of points at a time, and CSVs streamed in blocks
of rows: the same bits as one-shot evaluation, in bounded memory."""
import tracemalloc

import numpy as np
import pytest

from hkflow.curves import JET_BLOCK, PlaneCurve, TorusFromCurve
from hkflow.phase import (_dj_shape_operator, degree, euler_numbers,
                          gauss_normal_curvatures, phase_sample_exact,
                          write_phase_field_csv)
from hkflow.surfaces import (Cylinder, GrimReaper, NumericalJetSurface, Plane,
                             QuadraticGraph, Sphere, frames, map_blocks,
                             midpoint_grid, second_fundamental_form)
from hkflow.util import BLOCK, format_float, format_rows, write_csv

GRID_SIZES = [46, 64, 100, 129, 200, 257]


def _clifford():
    """A closed torus known only through its position: jets by differences."""
    fam = NumericalJetSurface(
        lambda u, v: np.stack([np.cos(u), np.sin(u), 2 * np.cos(v),
                               2 * np.sin(v)], axis=-1),
        domain=((0.0, 2 * np.pi), (0.0, 2 * np.pi)), periodic=(True, True),
        name="clifford")
    fam.closed = True
    return fam


def _lift():
    return TorusFromCurve(PlaneCurve.from_function(
        lambda x: np.exp(1j * x) * (1 + 0.05 * np.cos(3 * x)), n=128))


FAMILIES = {
    "plane": Plane,
    "cylinder": lambda: Cylinder(1.0, half_length=1.5),
    "sphere": lambda: Sphere(1.3),
    "grim-reaper": GrimReaper,
    "quadratic-graph": lambda: QuadraticGraph.random(
        np.random.default_rng(5)),
    "numerical-jet": _clifford,
    "torus-lift": _lift,
}


def _one_shot_fields(fam, u, v):
    """lam, dj, e_del, e_delbar, detdj with every point in one array."""
    jet = fam.jet(u, v)
    fr = frames(jet)
    dj = _dj_shape_operator(fr, second_fundamental_form(jet, fr))
    detdj = np.einsum("...a,...a->...", fr.lam,
                      np.cross(dj[..., 0, :], dj[..., 1, :]))
    nrm2 = np.sum(dj * dj, axis=(-2, -1))
    return (fr.lam, dj, np.maximum(0.25 * nrm2 + 0.5 * detdj, 0.0),
            np.maximum(0.25 * nrm2 - 0.5 * detdj, 0.0), detdj)


def _one_shot_integrals(fam, n):
    """(degree, chi_T, chi_N) from (n, n) arrays of every grid quantity."""
    ug, vg, du, dv = midpoint_grid(fam.domain, n)
    jet = fam.jet(ug, vg)
    fr = frames(jet)
    sff = second_fundamental_form(jet, fr)
    dmu = np.sqrt(np.linalg.det(fr.g))
    detdj = _one_shot_fields(fam, ug, vg)[4]
    kappa, kperp = gauss_normal_curvatures(sff)
    return (float(np.sum(detdj * dmu) * du * dv / (4 * np.pi)),
            float(np.sum(kappa * dmu) * du * dv / (2 * np.pi)),
            float(np.sum(kperp * dmu) * du * dv / (2 * np.pi)))


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def test_one_block_size():
    assert JET_BLOCK == BLOCK == 2048


@pytest.mark.parametrize("name", FAMILIES)
def test_blocked_phase_fields_equal_one_shot_bitwise(name):
    fam = FAMILIES[name]()
    for n in GRID_SIZES:
        ug, vg, _, _ = midpoint_grid(fam.window(), n)
        sample = phase_sample_exact(fam, ug, vg)
        got = (sample.lam, sample.dj, sample.e_del, sample.e_delbar,
               sample.detdj)
        for field, a, b in zip(("lam", "dj", "e_del", "e_delbar", "detdj"),
                               got, _one_shot_fields(fam, ug, vg)):
            assert _same_bits(a, b), (n, field)


@pytest.mark.parametrize("name", ["sphere", "torus-lift", "numerical-jet"])
def test_blocked_degree_and_euler_numbers_equal_one_shot_bitwise(name):
    fam = FAMILIES[name]()
    for n in (64, 128, 200):
        got = (degree(fam, n=n), *euler_numbers(fam, n=n))
        assert _same_bits(got, _one_shot_integrals(fam, n)), n


def test_map_blocks_cuts_like_array_split():
    """Runs of at most BLOCK points, near-equal, in C order; results land in
    arrays of the input's shape."""
    seen = []

    def fn(x):
        seen.append(x.size)
        return x * 2.0, np.stack([x, -x], axis=-1)

    x = np.arange(7 * 900, dtype=float).reshape(-1, 7)
    twice, pair = map_blocks(fn, x)
    assert seen == [a.size for a in np.array_split(x.reshape(-1), 4)]
    assert twice.shape == x.shape and pair.shape == x.shape + (2,)
    assert np.array_equal(twice, 2 * x) and np.array_equal(pair[..., 1], -x)
    seen.clear()
    map_blocks(fn, x[:BLOCK // 7])
    assert seen == [BLOCK // 7 * 7]


# ---------------------------------------------------------------------------
# Streamed CSV
# ---------------------------------------------------------------------------

def _stress_columns(rows):
    """Columns with NaN, +-inf, -0.0 and subnormals; the last repeats its
    first block's values only past the first block, so format_rows sends
    it down the template route there and the gather route after."""
    rng = np.random.default_rng(rows)
    mag = 10.0 ** rng.uniform(-300, 300, size=(2, rows))
    a, b = rng.standard_normal((2, rows)) * mag
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310]
    a[::97] = np.resize(specials, a[::97].shape)
    b[5::301] = np.resize(specials[::-1], b[5::301].shape)
    c = rng.standard_normal(rows)
    if rows > BLOCK:
        c[BLOCK:] = c[np.arange(rows - BLOCK) % 3]
    return [a, b, c]


@pytest.mark.parametrize("rows", [0, 1, 2047, 2048, 2049, 4097])
def test_streamed_csv_equals_one_shot(tmp_path, rows):
    cols = _stress_columns(rows)
    path = tmp_path / "rows.csv"
    write_csv(path, "a,b,c", cols)
    expect = "\n".join(["a,b,c", *format_rows(cols)]) + "\n"
    assert path.read_bytes() == expect.encode()
    lines = path.read_text().splitlines()
    assert len(lines) == rows + 1
    for k in (0, rows // 2, rows - 1) if rows else ():
        assert lines[1 + k] == ",".join(format_float(c[k]) for c in cols)


def test_streamed_csv_switches_route_between_blocks():
    c = _stress_columns(4097)[2]

    def distinct(x):
        return np.unique(x.view(np.int64)).size

    assert 2 * distinct(c[:BLOCK]) > BLOCK
    assert 2 * distinct(c[BLOCK:2 * BLOCK]) <= BLOCK


# ---------------------------------------------------------------------------
# Memory bounds
# ---------------------------------------------------------------------------

def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_phase_field_csv_memory_is_a_block_plus_the_outputs(tmp_path):
    """At n = 256 the outputs (lam, dj, three scalar fields, the grid and
    the margin) take about 8 MiB; one-shot evaluation peaked at 47.6."""
    fam = QuadraticGraph.random(np.random.default_rng(5))
    peak = _peak_mib(lambda: write_phase_field_csv(tmp_path / "f.csv", fam,
                                                   n=256))
    assert peak < 16.0


def test_degree_and_euler_memory_is_a_block_plus_the_outputs():
    """At n = 256 the grid and the integrands take about 3 MiB; one-shot
    evaluation peaked at 44.5."""
    fam = Sphere()
    peak = _peak_mib(lambda: (degree(fam, n=256), euler_numbers(fam, n=256)))
    assert peak < 8.0
