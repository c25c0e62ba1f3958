"""Initial guesses for the alternating solver.

Linear least-squares estimates stand in for minimal solvers here: on
inlier-only data they are accurate enough to seed gradient descent, and
they need no polynomial machinery. Both read a built form (``GecForm``,
``AbsoluteForm``) at a cost free of N; where its system is homogeneous
(the 17-point seed always, the absolute seed on single-center data), a
seed takes ``_null_direction``.
"""

from __future__ import annotations

import numpy as np

from .exceptions import PoseSolverError
from .geometry import Pose, project_to_so3, unskew, unvec
from .objectives import AbsoluteForm, GecForm


def init_identity() -> Pose:
    """The trivial guess: identity rotation, zero translation."""
    return Pose.identity()


def _null_direction(eigvals, eigvecs, system: str) -> np.ndarray:
    """The eigenvector of the smallest eigenvalue (``eigh`` output), signed
    so that its last nine entries, vec of a rotation block, have det > 0.
    Raises PoseSolverError unless the two smallest eigenvalues are more than
    1e-10 of the largest apart: then no direction is unique."""
    if eigvals[1] - eigvals[0] <= 1e-10 * eigvals[-1]:
        raise PoseSolverError(f"two smallest eigenvalues of the {system} "
                              "coincide; nullspace is not unique")
    null = eigvecs[:, 0]
    return -null if np.linalg.det(unvec(null[-9:])) < 0.0 else null


def init_relative_17pt(form: GecForm) -> Pose:
    """Nullspace estimate of [vec(E); vec(R)] from the balanced GEC form.

    H folds the N x 18 constraint rows. Their E columns are unit products
    of directions, their R columns carry the moments, so the E columns are
    scaled by c = ||R columns||_F / ||E columns||_F = sqrt(tr H_RR / tr H_EE)
    (balanced as in Hartley, TPAMI 1997; the seed is then free of the
    scene's units): D H D, D = diag(c I9, I9), folds the scaled rows. Its
    null direction, E block times c, gives R by SO(3) projection, the scale
    as the mean singular value of the R block, and t from skew(t) = E R'.
    Under 17 rows, central cameras (c = 0) and a zero E block raise
    PoseSolverError; a form of another size raises ValueError.
    """
    h = form.h
    if h.shape != (18, 18):
        raise ValueError("init_relative_17pt needs a form over phi = [vec(E); vec(R)]")
    trace_e = np.trace(h[:9, :9])
    if not trace_e > 0.0:
        raise PoseSolverError("GEC form has a zero E block to balance")
    balance = np.sqrt(np.trace(h[9:, 9:]) / trace_e)
    d = np.repeat([balance, 1.0], 9)
    null = _null_direction(*np.linalg.eigh(h * np.outer(d, d)), "GEC fold")
    b = unvec(null[9:])
    rotation = project_to_so3(b)
    scale = float(np.linalg.svd(b, compute_uv=False).mean())
    translation = unskew(unvec(null[:9]) @ rotation.T * (balance / scale))
    return Pose(rotation, translation)


def init_absolute_linear(form: AbsoluteForm) -> Pose:
    """Unconstrained stationary point of an absolute form, projected to SO(3).

    With t eliminated, min_t phi'H phi = r'Pr + q'r + k over r = vec(R)
    (``reduced_rotation_quadric``, the Schur complement of H_tt). The seed
    solves its stationarity system 2 P r = -q, ignoring orthonormality,
    then projects r to SO(3) and recomputes the translation exactly at the
    projected rotation. Twelve unknowns need at least six correspondences;
    fewer leave P singular and raise PoseSolverError. A form of another
    size raises ValueError.

    Single-center data makes the reduced quadric homogeneous (q = 0),
    which turns stationarity into a gauge problem: every multiple of the
    true vec(R) is stationary. That case takes the null direction of P
    instead, with the scale restored by the SO(3) projection. Every rank
    test is relative to the largest eigenvalue of P, and P and q share the
    units of the objective, so rescaling the scene leaves the seed unchanged.
    """
    if form.h.shape != (13, 13):
        raise ValueError("init_absolute_linear needs a form over phi = [vec(R); t; 1]")
    p, q, _ = form.reduced_rotation_quadric()
    eigvals, eigvecs = np.linalg.eigh(p)
    if np.linalg.norm(q) <= 1e-12 * eigvals[-1]:
        r = _null_direction(eigvals, eigvecs, "homogeneous stationarity system")
    else:
        if eigvals[0] <= 1e-12 * eigvals[-1]:
            raise PoseSolverError(
                "stationarity system is singular (planar or degenerate data)")
        r = np.linalg.solve(p, -0.5 * q)
    rotation = project_to_so3(unvec(r))
    translation = form.closed_form_translation(rotation)
    return Pose(rotation, translation)
