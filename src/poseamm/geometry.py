"""Rotations, rigid poses, Plücker lines and the small-matrix helpers
shared by every objective.

Conventions used throughout the package:
  * vec() stacks matrices column by column,
  * Plücker lines are (unit direction; moment) with moment = point x direction,
  * rotations are plain 3x3 ndarrays; the Pose wrapper validates them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import AmbiguousProjection

ROTATION_TOL = 1e-9
UNIT_TOL = 1e-12


def skew(v) -> np.ndarray:
    """Cross-product matrix: skew(v) @ w == cross(v, w)."""
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y],
                     [z, 0.0, -x],
                     [-y, x, 0.0]])


def unskew(s) -> np.ndarray:
    """Inverse of skew; the input is symmetrized as (S - S^T)/2 first."""
    s = np.asarray(s, dtype=float)
    return 0.5 * np.array([s[2, 1] - s[1, 2],
                           s[0, 2] - s[2, 0],
                           s[1, 0] - s[0, 1]])


def rodrigues_step(axis, angle: float) -> np.ndarray:
    """Exact rotation by angle * ||axis|| about axis / ||axis||.

    The scaling convention matches the matrix exponential: the result is
    expm(angle * skew(axis)), so doubling the angle squares the matrix.
    Axes shorter than 1e-14 return the identity.
    """
    axis = np.asarray(axis, dtype=float)
    n = float(np.linalg.norm(axis))
    if n < 1e-14:
        return np.eye(3)
    k = skew(axis / n)
    theta = angle * n
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def project_to_so3(b) -> np.ndarray:
    """Nearest rotation to ``b`` in the Frobenius norm.

    Computed from the SVD with a determinant correction on the smallest
    singular direction. Raises AmbiguousProjection when that correction is
    not unique (negative determinant with equal trailing singular values).
    """
    b = np.asarray(b, dtype=float)
    u, s, vt = np.linalg.svd(b)
    d = float(np.linalg.det(u @ vt))
    if d < 0.0 and s[1] - s[2] < 1e-12:
        raise AmbiguousProjection(
            "nearest rotation is not unique: negative determinant with "
            "equal trailing singular values")
    return u @ np.diag([1.0, 1.0, 1.0 if d > 0.0 else -1.0]) @ vt


def vec(m) -> np.ndarray:
    """Stack a 3x3 matrix column by column into a 9-vector."""
    return np.asarray(m, dtype=float).reshape(9, order="F")


def unvec(r) -> np.ndarray:
    """Inverse of vec: 9-vector back to a 3x3 matrix, column-major."""
    return np.asarray(r, dtype=float).reshape((3, 3), order="F")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _freeze(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def check_rotation(m, tol: float = ROTATION_TOL) -> None:
    """Raise ValueError unless ``m`` is a proper rotation within ``tol``."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("rotation entries must be finite")
    if np.linalg.norm(m @ m.T - np.eye(3)) > tol:
        raise ValueError("matrix is not orthonormal within tolerance")
    if abs(np.linalg.det(m) - 1.0) > tol:
        raise ValueError("matrix determinant is not +1 within tolerance")


@dataclass(frozen=True)
class Pose:
    """Rigid transform: x_target = rotation @ x_source + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        check_rotation(self.rotation)
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (3,) or not np.isfinite(t).all():
            raise ValueError("translation must be a finite 3-vector")
        object.__setattr__(self, "rotation", _freeze(self.rotation))
        object.__setattr__(self, "translation", _freeze(t))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))


@dataclass(frozen=True)
class PlueckerLine:
    """3D line as (direction; moment), moment = point x direction.

    The direction must be unit length and orthogonal to the moment; use
    ``through_point`` to build a valid line from any point/direction pair.
    """

    direction: np.ndarray
    moment: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        m = np.asarray(self.moment, dtype=float)
        if d.shape != (3,) or m.shape != (3,):
            raise ValueError("direction and moment must be 3-vectors")
        if not (np.isfinite(d).all() and np.isfinite(m).all()):
            raise ValueError("line entries must be finite")
        if abs(np.linalg.norm(d) - 1.0) > UNIT_TOL:
            raise ValueError("direction must be unit length")
        if abs(d @ m) > 1e-9:
            raise ValueError("moment must be orthogonal to the direction")
        object.__setattr__(self, "direction", _freeze(d))
        object.__setattr__(self, "moment", _freeze(m))

    @staticmethod
    def through_point(point, direction) -> "PlueckerLine":
        """Line through ``point`` along ``direction`` (any nonzero length)."""
        d = _unit(np.asarray(direction, dtype=float))
        return PlueckerLine(d, np.cross(np.asarray(point, dtype=float), d))

    def as_vector(self) -> np.ndarray:
        """The stacked 6-vector (direction; moment)."""
        return np.concatenate([self.direction, self.moment])


@dataclass(frozen=True)
class ObservedRay:
    """A measured projection ray: unit bearing through the camera-center offset."""

    bearing: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bearing, dtype=float)
        o = np.asarray(self.offset, dtype=float)
        if b.shape != (3,) or o.shape != (3,):
            raise ValueError("bearing and offset must be 3-vectors")
        if not (np.isfinite(b).all() and np.isfinite(o).all()):
            raise ValueError("ray entries must be finite")
        if abs(np.linalg.norm(b) - 1.0) > UNIT_TOL:
            raise ValueError("bearing must be unit length")
        object.__setattr__(self, "bearing", _freeze(b))
        object.__setattr__(self, "offset", _freeze(o))

    @staticmethod
    def from_direction(direction, offset) -> "ObservedRay":
        """Normalize ``direction`` and attach the camera-center offset."""
        return ObservedRay(_unit(np.asarray(direction, dtype=float)), offset)
