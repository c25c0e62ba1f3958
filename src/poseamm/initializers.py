"""Initial guesses for the alternating solver.

Linear least-squares estimates stand in for minimal solvers here: on
inlier-only data they are accurate enough to seed gradient descent, and
they need no polynomial machinery.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exceptions import DegenerateNullspace, InsufficientData, SingularSystem
from .geometry import Pose, project_to_so3, unskew, unvec
from .objectives import QuadraticPoseForm
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
        raise InsufficientData(
            f"need at least 17 ray correspondences, got {len(corrs)}")
    stack = gec_rows(corrs)
    # Seventeen rows need the full factorization to reach the 18th vector.
    _, svals, vt = np.linalg.svd(stack, full_matrices=len(corrs) < 18)
    # For exactly 17 rows the 18th singular value is an implicit zero.
    gap = svals[-2] - svals[-1] if len(svals) >= 18 else svals[-1]
    if gap <= 1e-10 * svals[0]:
        raise DegenerateNullspace(
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


def init_absolute_linear(form: QuadraticPoseForm) -> Pose:
    """Unconstrained stationary point of a quadratic form, projected to SO(3).

    Solves the joint 12x12 linear stationarity system in (vec(R), t),
    ignoring orthonormality, then projects the rotation block and
    recomputes the translation exactly at the projected rotation. Twelve
    unknowns need at least six correspondences; fewer leave the system
    singular and raise SingularSystem.

    Single-center data makes the form homogeneous (no linear terms), which
    turns the stationarity system into a gauge problem: every multiple of
    the true (vec(R), t) is stationary. That case is solved on the unit
    sphere instead, via the eigenvector of the smallest eigenvalue, with
    the scale and sign restored by the SO(3) projection.
    """
    k = np.zeros((12, 12))
    k[:9, :9] = 2.0 * form.m_rr
    k[:9, 9:] = form.m_tr.T
    k[9:, :9] = form.m_tr
    k[9:, 9:] = 2.0 * form.m_tt
    rhs = -np.concatenate([form.v_r, form.v_t])
    svals = np.linalg.svd(k, compute_uv=False)
    if np.linalg.norm(rhs) <= 1e-12 * max(1.0, svals[0]):
        eigvals, eigvecs = np.linalg.eigh(k)
        if eigvals[1] - eigvals[0] <= 1e-10 * max(1.0, eigvals[-1]):
            raise SingularSystem(
                "homogeneous stationarity system has no unique direction")
        sol = eigvecs[:, 0]
        if np.linalg.det(unvec(sol[:9])) < 0.0:
            sol = -sol
    else:
        if svals[-1] < 1e-12:
            raise SingularSystem(
                "stationarity system is singular (planar or degenerate data)")
        sol = np.linalg.solve(k, rhs)
    rotation = project_to_so3(unvec(sol[:9]))
    translation = form.closed_form_translation(rotation)
    return Pose(rotation, translation)
