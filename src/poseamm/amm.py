"""Alternating minimization engine: an outer loop over two block solvers.

The rotation block is minimized by steepest descent on the SO(3) manifold.
Each step rotates the iterate by an angle mu about the axis of the
Riemannian gradient Z = grad X' - X grad'; mu is grown by doubling while
the doubled step keeps paying off and shrunk by halving until the accepted
step decreases the objective by at least 0.5 * mu * (0.5 tr ZZ'). Steps
are exact rotations, so iterates cannot drift off the manifold; a
re-projection every 50 steps absorbs accumulated rounding anyway.

The translation block is plain gradient descent with Barzilai-Borwein
step lengths, stopping when the objective stalls or would increase.

Each block solve holds the other block fixed for its whole run, so it
works on a value/gradient pair of its own block only. When the objective
provides ``rotation_quadric`` / ``translation_quadric`` (see
``PoseObjective``), the pair evaluates that fixed-size quadric, built once
per block solve; otherwise it calls the objective's ``value`` and
gradients.

Both solvers only ever accept steps that decrease their block objective.
Block quadrics and the full objective round differently, so the outer
loop re-evaluates the full objective and accepts an outer iterate only if
that value did not rise; the outer objective trace is nonincreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NonFiniteObjective
from .geometry import Pose, project_to_so3
from .objectives import PoseObjective

_MU_MAX = 1e6            # cap for the doubling schedule on pathological objectives
_MU_MIN = 1e-16          # below this the step has collapsed; keep the current iterate
_RATE_FLOOR = 1e-30      # squared-gradient scale treated as a stationary rotation
_GRAD_DELTA_FLOOR = 1e-16  # gradient changes below this mean the descent is done
_REPROJECT_EVERY = 50
_INNER_CAP = 100_000     # safety net; unreachable on objectives bounded below
_AXIS_FLOOR = 1e-14      # shorter rotation axes give no usable step direction
_SQRT2 = math.sqrt(2.0)
# vec() stacks columns; the rotation pair works on row-major ravels, so the
# quadric is permuted once: _ROW_MAJOR[i] is the vec() index of ravel entry i.
_ROW_MAJOR = np.array([0, 3, 6, 1, 4, 7, 2, 5, 8])


@dataclass(frozen=True)
class AmmConfig:
    """Tolerances and step seeds for the alternating solver.

    tol_outer stops the outer loop on the absolute objective change;
    tol_rotation is a Frobenius threshold on the rotation step;
    tol_translation an absolute threshold on the translation objective
    change. use_closed_form_translation swaps the translation descent for
    the exact quadratic minimizer on objectives that provide one.
    """

    tol_outer: float = 1e-9
    max_outer_iters: int = 100
    tol_rotation: float = 1e-8
    tol_translation: float = 1e-10
    initial_mu: float = 1.0
    initial_alpha: float = 1e-3
    use_closed_form_translation: bool = False

    def __post_init__(self):
        for name in ("tol_outer", "tol_rotation", "tol_translation",
                     "initial_mu", "initial_alpha"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")


@dataclass(frozen=True)
class AmmResult:
    pose: Pose
    final_objective: float
    outer_iterations: int
    converged: bool
    objective_trace: tuple


def _rotation_block(objective: PoseObjective, t: np.ndarray):
    """(value, gradient) of the objective over rotations at translation t."""
    quadric = getattr(objective, "rotation_quadric", None)
    if quadric is None:
        return (lambda x: float(objective.value(x, t)),
                lambda x: np.asarray(objective.rotation_gradient(x, t), dtype=float))
    p, q, k = quadric(t)
    p = np.asarray(p, dtype=float)[np.ix_(_ROW_MAJOR, _ROW_MAJOR)]
    q = np.asarray(q, dtype=float)[_ROW_MAJOR]
    k = float(k)

    def value(x):
        r = x.ravel()
        return float(r @ (p @ r + q)) + k

    def gradient(x):
        return (2.0 * (p @ x.ravel()) + q).reshape(3, 3)

    return value, gradient


def _translation_block(objective: PoseObjective, r: np.ndarray):
    """(value, gradient) of the objective over translations at rotation r."""
    quadric = getattr(objective, "translation_quadric", None)
    if quadric is None:
        return (lambda x: float(objective.value(r, x)),
                lambda x: np.asarray(objective.translation_gradient(r, x), dtype=float))
    a, b, k = quadric(r)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    k = float(k)
    return (lambda x: float(x @ (a @ x + b)) + k,
            lambda x: 2.0 * (a @ x) + b)


def _rotate(x, kx, k2x, angle: float):
    """(expm(angle K) x, Frobenius norm of the step) for a unit axis K.

    Rodrigues' formula with Kx and K^2 x precomputed; the step norm is
    ||expm(angle K) - I||_F = sqrt(2 (sin^2 + (1 - cos)^2)).
    """
    s = math.sin(angle)
    c = 1.0 - math.cos(angle)
    return x + s * kx + c * k2x, _SQRT2 * math.hypot(s, c)


def rotation_subsolve(objective: PoseObjective, rotation_init, translation_fixed,
                      config: AmmConfig = AmmConfig()) -> np.ndarray:
    """Minimize over rotations at a fixed translation.

    Returns a rotation with objective value no larger than at
    ``rotation_init`` (on the rotation quadric, when the objective has
    one). Stops when the Frobenius step norm drops below
    ``config.tol_rotation``, when the tangent gradient vanishes, or when
    the step length underflows on a flat objective (the best iterate so
    far is returned in that case).
    """
    value, gradient = _rotation_block(
        objective, np.asarray(translation_fixed, dtype=float))
    x = np.asarray(rotation_init, dtype=float)
    mu = config.initial_mu
    gx = value(x)
    for inner in range(1, _INNER_CAP + 1):
        # Riemannian gradient Z = grad X' - X grad' = M - M' with M = grad X';
        # (a0, a1, a2) is the axis of -Z and rate = 0.5 tr(ZZ') its decrease rate.
        m = (gradient(x) @ x.T).tolist()
        a0 = m[1][2] - m[2][1]
        a1 = m[2][0] - m[0][2]
        a2 = m[0][1] - m[1][0]
        rate = a0 * a0 + a1 * a1 + a2 * a2
        if rate < _RATE_FLOOR:
            break
        # With K the cross-product matrix of the unit axis, the step by
        # angle theta is x -> x + sin(theta) Kx + (1 - cos(theta)) K^2 x.
        n = math.sqrt(rate)
        if n < _AXIS_FLOOR:
            break                             # no step direction: every trial is x
        a0, a1, a2 = a0 / n, a1 / n, a2 / n
        k = np.array([[0.0, -a2, a1], [a2, 0.0, -a0], [-a1, a0, 0.0]])
        kx = k @ x
        k2x = k @ kx
        xp, step_p = _rotate(x, kx, k2x, mu * n)
        gp = value(xp)
        xq, step_q = _rotate(x, kx, k2x, 2.0 * mu * n)
        gq = value(xq)
        while gx - gq >= mu * rate and mu < _MU_MAX:   # doubled step still pays off
            xp, step_p, gp = xq, step_q, gq
            mu *= 2.0
            xq, step_q = _rotate(x, kx, k2x, 2.0 * mu * n)
            gq = value(xq)
        collapsed = False
        while gx - gp < 0.5 * mu * rate:               # shrink to sufficient decrease
            mu *= 0.5
            if mu < _MU_MIN:
                collapsed = True
                break
            xp, step_p = _rotate(x, kx, k2x, mu * n)
            gp = value(xp)
        if collapsed:
            break
        x, gx = xp, gp
        if inner % _REPROJECT_EVERY == 0:
            x = project_to_so3(x)
            gx = value(x)
        if step_p < config.tol_rotation:
            break
    return x


def translation_subsolve(objective: PoseObjective, translation_init, rotation_fixed,
                         config: AmmConfig = AmmConfig()) -> np.ndarray:
    """Minimize over the translation at a fixed rotation.

    Barzilai-Borwein gradient descent seeded with ``config.initial_alpha``.
    Returns the last iterate that decreased the objective (on the
    translation quadric, when the objective has one); a step that would
    increase it ends the descent, and a vanishing gradient change is
    treated as convergence.
    """
    value, gradient = _translation_block(
        objective, np.asarray(rotation_fixed, dtype=float))
    x = np.asarray(translation_init, dtype=float)
    alpha = config.initial_alpha
    h = value(x)
    g = gradient(x)
    for _ in range(_INNER_CAP):
        x_new = x - alpha * g
        h_new = value(x_new)
        g_new = gradient(x_new)
        dg = g_new - g
        dg_norm = math.sqrt(float(dg @ dg))
        if dg_norm < _GRAD_DELTA_FLOOR:
            # gradient unchanged to machine precision: nothing left to exploit
            if h_new <= h:
                x = x_new
            return x
        alpha = float((x_new - x) @ dg) / (dg_norm * dg_norm)
        if h_new > h:
            return x
        delta = abs(h_new - h)
        x, h, g = x_new, h_new, g_new
        if delta < config.tol_translation:
            return x
    return x


def solve_amm(objective: PoseObjective, translation_init,
              config: AmmConfig = AmmConfig(), rotation_init=None) -> AmmResult:
    """Alternate the two block solvers until the objective stalls.

    The rotation is solved first at the initial translation, warm-started
    from ``rotation_init`` (identity when omitted) and thereafter from the
    previous outer iterate. Stops when the objective changes by less than
    ``config.tol_outer`` between outer iterations (converged), when an
    outer iteration would raise the objective (converged; the previous
    iterate is kept), or at the iteration cap (not converged). The final
    objective is evaluated at the returned pose. Raises NonFiniteObjective
    if any evaluation returns NaN or infinity.
    """
    t = np.asarray(translation_init, dtype=float)
    r = np.eye(3) if rotation_init is None else np.asarray(rotation_init, dtype=float)
    f_prev = float(objective.value(r, t))
    if not np.isfinite(f_prev):
        raise NonFiniteObjective("objective is not finite at the initial guess")
    use_closed = config.use_closed_form_translation and hasattr(
        objective, "closed_form_translation")
    trace = []
    converged = False
    outer = 0
    for outer in range(1, config.max_outer_iters + 1):
        r_new = rotation_subsolve(objective, r, t, config)
        t_new = t
        if use_closed:
            t_exact = objective.closed_form_translation(r_new)
            if objective.value(r_new, t_exact) <= objective.value(r_new, t):
                t_new = t_exact
        else:
            t_new = translation_subsolve(objective, t, r_new, config)
        f = float(objective.value(r_new, t_new))
        if not np.isfinite(f):
            raise NonFiniteObjective("objective became non-finite during the solve")
        if f > f_prev:
            # The block solves only accept decreases of their own block
            # objectives, so a rise is rounding: nothing left to gain.
            converged = True
            break
        r, t = r_new, t_new
        trace.append(f)
        if f_prev - f < config.tol_outer:
            converged = True
            break
        f_prev = f
    pose = Pose(project_to_so3(r), t)
    return AmmResult(pose=pose,
                     final_objective=float(objective.value(pose.rotation,
                                                           pose.translation)),
                     outer_iterations=outer,
                     converged=converged,
                     objective_trace=tuple(trace))
