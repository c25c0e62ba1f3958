"""Initial guesses for the alternating solver.

Linear least-squares estimates stand in for minimal solvers here: on
inlier-only data they are accurate enough to seed gradient descent, and
they need no polynomial machinery.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exceptions import PoseSolverError
from .geometry import Pose, project_to_so3, unskew, unvec
from .objectives import QuadricForm
from .relative import RayCorrespondence, gec_rows


def init_identity() -> Pose:
    """The trivial guess: identity rotation, zero translation."""
    return Pose.identity()


def init_relative_17pt(corrs: Sequence[RayCorrespondence]) -> Pose:
    """Nullspace estimate of [vec(E); vec(R)] from stacked constraint rows.

    Stacks the per-correspondence coefficient rows into an N x 18
    matrix and takes the right singular vector of the smallest singular
    value from a thin SVD, which never forms the N x N left factor. The
    rotation block is scaled and sign-fixed (17 constraints pin the
    stacked variable only up to one global scale and sign), projected to
    SO(3), and the translation recovered from skew(t) = E R'.
    """
    if len(corrs) < 17:
        raise PoseSolverError(
            f"need at least 17 ray correspondences, got {len(corrs)}")
    stack = gec_rows(corrs)
    # Seventeen rows need the full factorization to reach the 18th vector.
    _, svals, vt = np.linalg.svd(stack, full_matrices=len(corrs) < 18)
    # For exactly 17 rows the 18th singular value is an implicit zero.
    gap = svals[-2] - svals[-1] if len(svals) >= 18 else svals[-1]
    if gap <= 1e-10 * svals[0]:
        raise PoseSolverError(
            "two smallest singular values coincide; nullspace is not unique")
    null = vt[-1]
    b = unvec(null[9:])
    if np.linalg.det(b) < 0.0:
        # Pick the global sign that makes the rotation block right-handed,
        # so the projection lands next to B instead of a half-turn away.
        null = -null
        b = -b
    rotation = project_to_so3(b)
    scale = float(np.linalg.svd(b, compute_uv=False).mean())
    e_mat = unvec(null[:9]) / scale
    translation = unskew(e_mat @ rotation.T)
    return Pose(rotation, translation)


def init_absolute_linear(form: QuadricForm) -> Pose:
    """Unconstrained stationary point of an absolute form, projected to SO(3).

    With t eliminated, min_t phi'H phi = r'Pr + q'r + k over r = vec(R)
    (``reduced_rotation_quadric``, the Schur complement of H_tt). The seed
    solves its stationarity system 2 P r = -q, ignoring orthonormality,
    then projects r to SO(3) and recomputes the translation exactly at the
    projected rotation. Twelve unknowns need at least six correspondences;
    fewer leave P singular and raise PoseSolverError. A form over another
    lift raises ValueError.

    Single-center data makes the reduced quadric homogeneous (q = 0),
    which turns stationarity into a gauge problem: every multiple of the
    true vec(R) is stationary. That case is solved on the unit sphere
    instead, via the eigenvector of the smallest eigenvalue of P, with the
    scale and sign restored by the SO(3) projection. Every rank test is
    relative to the largest eigenvalue of P, and P and q share the units
    of the objective, so rescaling the scene leaves the seed unchanged.
    """
    if form.h.shape != (13, 13):
        raise ValueError("init_absolute_linear needs a form over phi = [vec(R); t; 1]")
    p, q, _ = form.reduced_rotation_quadric()
    eigvals, eigvecs = np.linalg.eigh(p)
    if np.linalg.norm(q) <= 1e-12 * eigvals[-1]:
        if eigvals[1] - eigvals[0] <= 1e-10 * eigvals[-1]:
            raise PoseSolverError(
                "homogeneous stationarity system has no unique direction")
        r = eigvecs[:, 0]
        if np.linalg.det(unvec(r)) < 0.0:
            r = -r
    else:
        if eigvals[0] <= 1e-12 * eigvals[-1]:
            raise PoseSolverError(
                "stationarity system is singular (planar or degenerate data)")
        r = np.linalg.solve(p, -0.5 * q)
    rotation = project_to_so3(unvec(r))
    translation = form.closed_form_translation(rotation)
    return Pose(rotation, translation)
