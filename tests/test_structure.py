"""Quaternionic triple: defining relations, forms, rotations."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkflow.errors import NonRotation
from hkflow.structure import StructureTriple, standard_structure
from hkflow.util import random_rotation


def _to4(z1: complex, z2: complex) -> np.ndarray:
    return np.array([z1.real, z1.imag, z2.real, z2.imag])


def _expected_matrices():
    """Column-build the triple from its action on C^2 = R^4.

    J1 (z1, z2) = (i z1, i z2)
    J2 (z1, z2) = (-conj z2, conj z1)
    J3 (z1, z2) = (-i conj z2, i conj z1)
    """
    actions = (
        lambda z1, z2: (1j * z1, 1j * z2),
        lambda z1, z2: (-np.conj(z2), np.conj(z1)),
        lambda z1, z2: (-1j * np.conj(z2), 1j * np.conj(z1)),
    )
    basis = [(1 + 0j, 0j), (1j, 0j), (0j, 1 + 0j), (0j, 1j)]
    out = []
    for act in actions:
        cols = [_to4(*act(z1, z2)) for z1, z2 in basis]
        out.append(np.stack(cols, axis=1))
    return np.stack(out)


def test_standard_matrices_exact():
    s = standard_structure()
    assert np.array_equal(s.j, _expected_matrices())


def test_defining_relations_exact():
    s = standard_structure()
    # integer matrices: products are exact in floating point
    assert s.quaternionic_residual() == 0.0
    assert s.verify() == 0.0


def test_verify_rejects_broken_triple():
    s = standard_structure()
    j = s.j.copy()
    j[0, 0, 0] = 0.5
    with pytest.raises(Exception):
        StructureTriple(j).verify()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rotated_triple_keeps_relations(seed):
    s = standard_structure()
    a = random_rotation(np.random.default_rng(seed))
    assert s.rotate(a).quaternionic_residual() < 1e-13


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_apply_is_isometric_and_skew(seed):
    s = standard_structure()
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(7, 4))
    for alpha in (1, 2, 3):
        jv = s.apply(alpha, v)
        assert np.allclose(np.linalg.norm(jv, axis=-1),
                           np.linalg.norm(v, axis=-1), atol=1e-12)
        # <J v, v> = 0: each J_alpha is an orthogonal complex structure
        assert np.max(np.abs(np.sum(jv * v, axis=-1))) < 1e-12


def test_kahler_form_antisymmetry(rng):
    s = standard_structure()
    u = rng.normal(size=(11, 4))
    v = rng.normal(size=(11, 4))
    for alpha in (1, 2, 3):
        assert np.allclose(s.kahler_form(alpha, u, v),
                           -s.kahler_form(alpha, v, u), atol=1e-13)


def test_holomorphic_symplectic_combines_forms(rng):
    s = standard_structure()
    u = rng.normal(size=(5, 4))
    v = rng.normal(size=(5, 4))
    omega = s.holomorphic_symplectic(u, v)
    assert np.allclose(omega.real, s.kahler_form(2, u, v), atol=1e-14)
    assert np.allclose(omega.imag, s.kahler_form(3, u, v), atol=1e-14)


def test_rotate_requires_rotation():
    s = standard_structure()
    with pytest.raises(NonRotation):
        s.rotate(np.diag([1.0, 1.0, 2.0]))
    with pytest.raises(NonRotation):
        s.rotate(np.diag([1.0, 1.0, -1.0]))  # det = -1 reflection


def test_rotation_composes_linearly(rng):
    """J~_a = sum_b a_{ab} J_b acts exactly as the matrix combination."""
    s = standard_structure()
    a = random_rotation(rng)
    rs = s.rotate(a)
    v = rng.normal(size=4)
    for alpha in (1, 2, 3):
        direct = rs.apply(alpha, v)
        combo = sum(a[alpha - 1, b] * s.apply(b + 1, v) for b in range(3))
        assert np.allclose(direct, combo, atol=1e-14)
