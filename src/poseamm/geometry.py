"""Rotations, rigid poses, the row checks of the correspondence sets and
the small-matrix helpers shared by every objective.

Conventions used throughout the package:
  * vec() stacks matrices column by column,
  * Plücker lines are (unit direction; moment) with moment = point x direction,
    held as matching rows of two (N, 3) arrays,
  * rotations are plain 3x3 ndarrays; the Pose wrapper validates them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import PoseSolverError

ROTATION_TOL = 1e-9
UNIT_TOL = 1e-12

RAY_SHAPE_MESSAGE = "bearing and offset must be 3-vectors"
LINE_SHAPE_MESSAGE = "direction and moment must be 3-vectors"


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
    singular direction. Raises PoseSolverError when that correction is
    not unique (negative determinant with equal trailing singular values).
    """
    b = np.asarray(b, dtype=float)
    u, s, vt = np.linalg.svd(b)
    d = float(np.linalg.det(u @ vt))
    if d < 0.0 and s[1] - s[2] < 1e-12:
        raise PoseSolverError(
            "nearest rotation is not unique: negative determinant with "
            "equal trailing singular values")
    return u @ np.diag([1.0, 1.0, 1.0 if d > 0.0 else -1.0]) @ vt


def vec(m) -> np.ndarray:
    """Stack a 3x3 matrix column by column into a 9-vector."""
    return np.asarray(m, dtype=float).reshape(9, order="F")


def unvec(r) -> np.ndarray:
    """Inverse of vec: 9-vector back to a 3x3 matrix, column-major."""
    return np.asarray(r, dtype=float).reshape((3, 3), order="F")


def solve_symmetric_3x3(h00, h01, h02, h11, h12, h22, v0, v1, v2, floor=0.0):
    """(x0, x1, x2) with Hx = v for the symmetric H of the six upper
    entries given, or None unless every pivot of H exceeds ``floor``.

    H is factored as L D L' (Cholesky without square roots), unrolled in
    Python floats; the pivots are the diagonal of D, so with ``floor`` 0
    None means H is not positive definite.
    """
    if not h00 > floor:
        return None
    l10 = h01 / h00
    l20 = h02 / h00
    d1 = h11 - l10 * h01
    if not d1 > floor:
        return None
    e12 = h12 - l20 * h01
    l21 = e12 / d1
    d2 = h22 - l20 * h02 - l21 * e12
    if not d2 > floor:
        return None
    y1 = v1 - l10 * v0
    x2 = (v2 - l20 * v0 - l21 * y1) / d2
    x1 = y1 / d1 - l21 * x2
    return v0 / h00 - l10 * x1 - l20 * x2, x1, x2


def _freeze(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the matching rows of two (N, 3) arrays.

    Each product is the one ``np.dot`` computes for a single pair of
    3-vectors, so a row's norm or check rounds exactly as it would for
    that row alone. Overflow gives inf without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (N, 3) array, as np.linalg.norm."""
    return np.sqrt(row_dots(a, a))


def frozen_rows(a, shape_message: str) -> np.ndarray:
    """A read-only float copy of ``a``; ValueError(shape_message) unless (N, 3)."""
    out = _freeze(a)
    if out.ndim != 2 or out.shape[1] != 3:
        raise ValueError(shape_message)
    return out


def first_fault(masks):
    """-> (row, k) for the first row set in any of the ordered masks, k the
    first mask that row is set in; None when no row is set."""
    bad = np.logical_or.reduce(masks)
    if not bad.any():
        return None
    row = int(bad.argmax())
    return row, next(k for k, mask in enumerate(masks) if mask[row])


def check_rows(faults) -> None:
    """Raise ValueError(message) for the first row failing any of the
    ordered (mask, message) checks, with that row's first failing check."""
    found = first_fault([mask for mask, _ in faults])
    if found is not None:
        raise ValueError(faults[found[1]][1])


def ray_faults(bearings: np.ndarray, offsets: np.ndarray):
    """The value checks of rays (unit bearing through an offset) on (N, 3)
    rows, in order, as (failing rows, message) pairs."""
    finite = np.isfinite(bearings).all(axis=1) & np.isfinite(offsets).all(axis=1)
    return [(~finite, "ray entries must be finite"),
            (np.abs(row_norms(bearings) - 1.0) > UNIT_TOL,
             "bearing must be unit length")]


def line_faults(directions: np.ndarray, moments: np.ndarray):
    """The value checks of Plücker lines (unit direction; orthogonal moment)
    on (N, 3) rows, in order, as (failing rows, message) pairs."""
    finite = np.isfinite(directions).all(axis=1) & np.isfinite(moments).all(axis=1)
    return [(~finite, "line entries must be finite"),
            (np.abs(row_norms(directions) - 1.0) > UNIT_TOL,
             "direction must be unit length"),
            (np.abs(row_dots(directions, moments)) > 1e-9,
             "moment must be orthogonal to the direction")]


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
