"""Quaternionic structure triples on flat R^4.

A structure triple is three orthogonal complex structures J1, J2, J3
(4x4 matrices acting on column vectors) satisfying

    J1^2 = J2^2 = J3^2 = J1 J2 J3 = -Id,      J3 = J1 J2,

together with all cyclic consequences (J2 J3 = J1, J3 J1 = J2).  Rotating a
triple by A in SO(3),  J~_a = sum_b A[a,b] J_b,  produces another triple, so
the object of interest is really the 2-sphere of complex structures
{ sum_a c_a J_a : |c| = 1 }.

Identifying R^4 with C^2 via (z1, z2) = (x1 + i x2, x3 + i x4), the standard
triple below acts as

    J1 (z1, z2) = (i z1, i z2)
    J2 (z1, z2) = (-conj(z2), conj(z1))
    J3 (z1, z2) = (-i conj(z2), i conj(z1)).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IdentityViolation
from .util import check_rotation

_J1 = np.array([
    [0.0, -1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0],
])
_J2 = np.array([
    [0.0, 0.0, -1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, 0.0],
])
_J3 = np.array([
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, -1.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
])
_J = np.stack([_J1, _J2, _J3])
_J.flags.writeable = False


def apply_j(v) -> np.ndarray:
    """J_a v for a = 1, 2, 3 under the standard triple, shape (..., 3, 4).

    Every J_a is a signed permutation matrix, so each entry is exactly one
    of +-v_k.  The geometry modules apply the triple only through here.
    """
    return np.einsum("aij,...j->...ai", _J, v)


@dataclass(frozen=True, eq=False)
class StructureTriple:
    """Three anti-commuting complex structures stored as a (3, 4, 4) stack."""

    j: np.ndarray

    def __post_init__(self):
        j = np.asarray(self.j, dtype=float)
        if j.shape != (3, 4, 4):
            raise ValueError(f"expected shape (3, 4, 4), got {j.shape}")
        j = j.copy()
        j.flags.writeable = False
        object.__setattr__(self, "j", j)

    # -- algebra ----------------------------------------------------------

    def apply(self, alpha: int, v):
        """J_alpha applied to vectors of shape (..., 4); alpha in {1, 2, 3}."""
        return np.asarray(v, dtype=float) @ self.j[alpha - 1].T

    def rotate(self, a) -> "StructureTriple":
        """Rotated triple J~_a = sum_b a[a,b] J_b for a in SO(3)."""
        a = check_rotation(a)
        return StructureTriple(np.einsum("ab,bij->aij", a, self.j))

    def kahler_form(self, alpha: int, u, v):
        """omega_alpha(u, v) = <J_alpha u, v>, broadcast over leading axes."""
        return np.sum(self.apply(alpha, u) * np.asarray(v, dtype=float), axis=-1)

    def holomorphic_symplectic(self, u, v):
        """Omega(u, v) = omega_2(u, v) + i omega_3(u, v).

        This is the holomorphic symplectic 2-form associated with J1; a
        2-plane is J1-Lagrangian exactly when Omega restricts to a unimodular
        multiple of the area form on it.
        """
        return self.kahler_form(2, u, v) + 1j * self.kahler_form(3, u, v)

    def quaternionic_residual(self) -> float:
        """Max-norm residual of the defining relations.

        Checks J_a^2 = -Id for all a, pairwise anti-commutativity,
        J1 J2 = J3 with its cyclic mates, and J1 J2 J3 = -Id.
        """
        j1, j2, j3 = self.j
        eye = np.eye(4)
        res = 0.0
        for a in (j1, j2, j3):
            res = max(res, np.abs(a @ a + eye).max())
        for a, b in ((j1, j2), (j2, j3), (j3, j1)):
            res = max(res, np.abs(a @ b + b @ a).max())
        res = max(res, np.abs(j1 @ j2 - j3).max())
        res = max(res, np.abs(j2 @ j3 - j1).max())
        res = max(res, np.abs(j3 @ j1 - j2).max())
        res = max(res, np.abs(j1 @ j2 @ j3 + eye).max())
        for a in (j1, j2, j3):
            res = max(res, np.abs(a + a.T).max())  # compatibility with <,>
        return float(res)

    def verify(self) -> float:
        """Raise IdentityViolation unless the algebra holds to 1e-14."""
        res = self.quaternionic_residual()
        if res > 1e-14:
            raise IdentityViolation(
                f"quaternionic relations violated: residual {res:.3e} > 1.000e-14"
            )
        return res


def standard_structure() -> StructureTriple:
    """The reference triple on R^4 (integer matrices, exact arithmetic)."""
    return StructureTriple(_J)
