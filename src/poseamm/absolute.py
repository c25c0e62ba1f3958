"""Absolute pose objectives from 3D-point-to-ray correspondences.

Both objectives reduce to the same 13x13 quadric over
phi = [vec(R); t; 1] (``objectives.ABSOLUTE_LIFT``), by different routes.
Each emits three residual rows per correspondence against phi, and the
rows are folded once into the form:

  * point-to-ray distance: the residual is the component of
    R x + t - c orthogonal to the bearing, i.e. (I - vv')(R x + t - c);
  * depth-eliminated ray residual: per-ray depths are solved jointly in
    least squares from the stacked constraints alpha_i v_i + c_i = R p_i + t
    and substituted back, leaving eta_i = alpha_i v_i + c_i - R p_i - t.

Both row builders are vectorized and O(N) in time and memory. Their
input is a ``PointRaySet``, the one form point-ray correspondences take:
three (N, 3) arrays, one row per correspondence.

World points are mapped into the camera frame by x_cam = R x_world + t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import PoseSolverError
from .geometry import RAY_SHAPE_MESSAGE, check_rows, frozen_rows, ray_faults
from .objectives import ABSOLUTE_LIFT, QuadricForm

_RANK_TOL = 1e-10  # on the smallest eigenvalue of the stacked normal matrix

_POINT_MESSAGE = "point must be a finite 3-vector"


@dataclass(frozen=True, eq=False)
class PointRaySet:
    """N point-ray correspondences held as three read-only (N, 3) arrays.

    Row i is the correspondence of ``points[i]`` with the ray of unit
    bearing ``bearings[i]`` through ``offsets[i]``. Construction checks
    the shapes of the whole set, then every row in one vectorized pass
    (finite entries, unit bearings, finite points), and raises ValueError
    for the first failing row. A slice gives a set; ``len`` counts rows.
    """

    points: np.ndarray
    bearings: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        bearings = frozen_rows(self.bearings, RAY_SHAPE_MESSAGE)
        offsets = frozen_rows(self.offsets, RAY_SHAPE_MESSAGE)
        points = frozen_rows(self.points, _POINT_MESSAGE)
        if not len(points) == len(bearings) == len(offsets):
            raise ValueError("points, bearings and offsets differ in length")
        check_rows(ray_faults(bearings, offsets)
                   + [(~np.isfinite(points).all(axis=1), _POINT_MESSAGE)])
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "bearings", bearings)
        object.__setattr__(self, "offsets", offsets)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, index: slice) -> "PointRaySet":
        if not isinstance(index, slice):
            raise TypeError(f"PointRaySet indices must be slices, not "
                            f"{type(index).__name__}")
        return PointRaySet(self.points[index], self.bearings[index],
                           self.offsets[index])


def _stacked(corrs: PointRaySet):
    """-> (points, bearings, offsets), each (N, 3)."""
    if len(corrs) == 0:
        raise PoseSolverError("no point-ray correspondences")
    return corrs.points, corrs.bearings, corrs.offsets


def _projected_rows(points, proj, offsets) -> np.ndarray:
    """Row blocks [x_i' kron P_i, P_i, -P_i c_i], shape (N, 3, 13)."""
    n = len(points)
    rows = np.empty((n, 3, 13))
    rows[:, :, :9] = (points[:, None, :, None] * proj[:, :, None, :]).reshape(n, 3, 9)
    rows[:, :, 9:12] = proj
    rows[:, :, 12] = -np.einsum("iab,ib->ia", proj, offsets)
    return rows


def gpnp_rows(corrs: PointRaySet) -> np.ndarray:
    """Residual rows (3N, 13) of the point-to-ray distances.

    Row block i is [x_i' kron P_i, P_i, -P_i c_i] with P_i = I - vv'/(v'v),
    so that it maps phi = [vec(R); t; 1] to P_i (R x_i + t - c_i).
    """
    points, bearings, offsets = _stacked(corrs)
    outer = bearings[:, :, None] * bearings[:, None, :]
    proj = np.eye(3) - outer / np.einsum("ia,ia->i", bearings, bearings)[:, None, None]
    return _projected_rows(points, proj, offsets).reshape(-1, 13)


def build_gpnp_form(corrs: PointRaySet) -> QuadricForm:
    """Fold the summed squared point-to-ray distances into a quadric form.

    Fewer than three correspondences leave the pose underdetermined; the
    form is still built.
    """
    return QuadricForm.from_rows(gpnp_rows(corrs), ABSOLUTE_LIFT)


def _depth_system_min_eigenvalue(bearings: np.ndarray) -> float:
    # A'A is arrow-shaped: unit diagonal over depths, bordered by the
    # bearing strip, N*I corner. Its spectrum is {1} plus, per eigenvalue
    # beta of B'B, the roots of (1 - lam)(N - lam) = beta; only the small
    # roots can dip toward zero, so the minimum is available in O(N).
    n = bearings.shape[0]
    beta = np.linalg.eigvalsh(bearings.T @ bearings)
    half = 0.5 * (n + 1.0)
    disc = np.maximum(half * half - (n - beta), 0.0)
    small_roots = half - np.sqrt(disc)
    return min(1.0, float(small_roots.min()))


def upnp_rows(corrs: PointRaySet) -> np.ndarray:
    """Residual rows (3N, 13) of the depth-eliminated ray residuals.

    The stacked system A [alpha; t] = stack(R p_i - c_i), with one bearing
    column per depth and -I blocks for t, has the joint least-squares
    depths alpha_i = v_i'y_i - w_i' sum_j P_j y_j for y_j = R p_j - c_j,
    where P_j = I - v_j v_j', S = N I - B'B and w_i = S^{-1} v_i (the rows
    of W = B S^{-1}). The depths do not depend on t. Substituting them,
    eta_i = G_i r - t + d_i with

        G_i = -(p_i' kron P_i) - v_i (w_i' K),  K = sum_j p_j' kron P_j,
        d_i = P_i c_i + v_i (w_i' k_c),         k_c = sum_j P_j c_j,

    and K and k_c need only the 3x3x3 moment sum_j v_j kron p_j kron v_j
    and the sums of p_j, c_j and v_j (v_j . c_j). Row block i is
    [G_i, -I, d_i]. Raises PoseSolverError for degenerate ray
    geometry, e.g. all bearings parallel from a single center.
    """
    points, bearings, offsets = _stacked(corrs)
    n = len(points)
    if _depth_system_min_eigenvalue(bearings) < _RANK_TOL:
        raise PoseSolverError(
            "stacked depth system lost column rank (degenerate ray geometry)")
    w = bearings @ np.linalg.inv(n * np.eye(3) - bearings.T @ bearings)
    proj = np.eye(3) - bearings[:, :, None] * bearings[:, None, :]
    moment = np.einsum("ja,jk,jm->akm", bearings, points, bearings)
    k_mat = (np.einsum("k,am->akm", points.sum(axis=0), np.eye(3))
             - moment).reshape(3, 9)
    k_c = offsets.sum(axis=0) - bearings.T @ np.einsum("ja,ja->j", bearings, offsets)
    rows = -_projected_rows(points, proj, offsets)
    rows[:, :, :9] -= bearings[:, :, None] * (w @ k_mat)[:, None, :]
    rows[:, :, 9:12] = -np.eye(3)
    rows[:, :, 12] += bearings * (w @ k_c)[:, None]
    return rows.reshape(-1, 13)


def build_upnp_form(corrs: PointRaySet) -> QuadricForm:
    """Fold the summed squared depth-eliminated residuals into a quadric form."""
    return QuadricForm.from_rows(upnp_rows(corrs), ABSOLUTE_LIFT)
