"""Alternating minimization engine: an outer loop over two block solvers.

On both absolute objectives the alternation is not needed. Their
translation block t'H_tt t + ... has an H_tt that does not depend on R,
so the exact translation is affine in r = vec(R) and min_t F(R, t) is one
fixed quadric in r, the Schur complement of H_tt in H (the linear
elimination of t in UPnP, Kneip, Li and Seo, ECCV 2014; variable
projection, Golub and Pereyra, 1973). When the objective provides it
(``reduced_rotation_quadric``, see ``PoseObjective``), ``solve_amm`` runs
one rotation solve on that quadric to ``tol_rotation`` and then one exact
translation solve, and stops: one outer iteration, on which ``tol_outer``,
``max_outer_iters`` and the forcing schedule below do not act. GEC forms
and objectives without the method alternate as described below.

The rotation block is minimized on the SO(3) manifold by exact rotations
x -> expm(skew(w)) x, so iterates cannot drift off the manifold; a
re-projection every 50 steps absorbs accumulated rounding anyway. In the
coordinates w the objective's slope is -a, with a the axis of the
Riemannian gradient Z = grad X' - X grad' = M - M', M = grad X'.

When the objective has a rotation quadric, its 3x3 Riemannian Hessian
Hn = 2 U P U' + sym(M) - tr(M) I comes almost for free (U stacks the
rows vec(E_i X) of the so(3) generators E_i), and each step first tries
the Riemannian Newton step w = Hn^-1 a (Absil, Mahony and Sepulchre,
Optimization Algorithms on Matrix Manifolds, 2008). Hn is factored by
the unrolled 3x3 L D L' of ``geometry.solve_symmetric_3x3``. The step
is tried once, at the angle |w| about w / |w|, and kept if it decreases
the block objective by at least a'w / 4, half the decrease its quadratic
model predicts. It compares no quantity with an absolute threshold, so
scaling the objective leaves it unchanged; the floor on |a|
(``_AXIS_FLOOR``) ends steepest descent only.

Otherwise (no quadric, Hn not positive definite, |w| >= pi, or the
Newton trial rejected) the step is steepest descent as in Abrudan,
Eriksson and Koivunen (IEEE TSP 2008): it rotates the iterate by an
angle mu |a| about a / |a|; mu is grown by doubling while the doubled
step keeps paying off and shrunk by halving until the accepted step
decreases the objective by at least 0.5 * mu * (0.5 tr ZZ'). mu carries
over between the steepest-descent steps of one block solve and starts
at ``_INITIAL_MU`` in each.

When the objective provides ``translation_quadric`` (see
``PoseObjective``), the translation block is solved exactly: its
minimizer is the solution of 2At = -b (the linear elimination of t in
UPnP; Kneip, Li and Seo, ECCV 2014), found by the same 3x3 L D L' as the
Newton step (``objectives.translation_minimizer``). A block that is not
positive definite relative to its own scale has no unique minimizer and
raises PoseSolverError. Otherwise the translation block is gradient
descent with Barzilai-Borwein step lengths, seeded with the step length
``_INITIAL_ALPHA`` and stopping when the objective stalls or would
increase.

The rotation solve holds the translation fixed for its whole run, so it
works on a gradient and a line function of the rotation only: the line
function gives the change of the objective along a step, which the
accept tests compare directly. When the objective provides
``rotation_quadric``, that 9x9 quadric is built once per rotation solve
and the change along a step is a trigonometric polynomial in the angle
whose five coefficients come once per step. Trials then cost a few float
operations, and only the accepted rotation is built as a matrix.
Otherwise the change is a difference of the objective's ``value`` calls,
made exactly as often and in the same order as a loop that tracks values
would make them.

The block solves do not raise their block objective: the descents accept
only decreasing steps, and the exact translation solve returns the
block's minimizer. Block quadrics and the full objective round
differently, so the outer loop re-evaluates the full objective and
accepts an outer iterate only if that value did not rise; the outer
objective trace is nonincreasing.

The rotation block is solved inexactly while the alternation still moves
(a forcing schedule, as in inexact block-coordinate descent): outer
iteration k runs its rotation solve to
max(tol_rotation, _FORCING * ||R_{k-1} - R_{k-2}||_F), how far the
previous outer iteration moved the rotation, and the first one to
tol_rotation. The move is a distance between rotations, free of the
scene's units, so the schedule does not depend on its scale; as the
alternation converges the move shrinks and the tolerance returns to
tol_rotation, its floor. Only the outer loop applies the schedule; a
rotation solve called on its own runs to the tolerance it is given.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import PoseSolverError
from .geometry import Pose, project_to_so3, solve_symmetric_3x3
from .objectives import PoseObjective, translation_minimizer

_MU_MAX = 1e6            # cap for the doubling schedule on pathological objectives
_MU_MIN = 1e-16          # below this the step has collapsed; keep the current iterate
_INITIAL_MU = 1.0        # first steepest-descent step of each rotation solve
_INITIAL_ALPHA = 1e-3    # first step length of each translation descent
_FORCING = 1e-2          # rotation tolerance per radian the last outer iteration moved R
_GRAD_DELTA_FLOOR = 1e-16  # gradient changes below this mean the descent is done
_REPROJECT_EVERY = 50
_INNER_CAP = 100_000     # safety net; unreachable on objectives bounded below
_AXIS_FLOOR = 1e-14      # shorter rotation axes give no usable step direction
_SQRT2 = math.sqrt(2.0)
# The so(3) generators E_i = skew(e_i) stacked, (9, 3): _GENERATORS @ x
# stacks the E_i x.
_GENERATORS = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0],
                        [0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                        [0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


@dataclass(frozen=True)
class AmmConfig:
    """Tolerances of the alternating solver.

    tol_outer stops the outer loop on the absolute objective change, and
    max_outer_iters caps it; neither acts on an objective with a reduced
    rotation quadric, which ``solve_amm`` solves in one outer iteration.
    tol_rotation, a Frobenius threshold on the rotation step, is the
    floor of ``solve_amm``'s rotation tolerance schedule (see the module
    docstring) and the tolerance of the reduced rotation solve.
    tol_translation, an absolute threshold on the translation
    objective change, acts only on objectives without a translation
    quadric, whose translation block is solved by descent. Tolerances
    must be finite and positive, and max_outer_iters an integer of at
    least 1.
    """

    tol_outer: float = 1e-9
    max_outer_iters: int = 100
    tol_rotation: float = 1e-8
    tol_translation: float = 1e-10

    def __post_init__(self):
        for name in ("tol_outer", "tol_rotation", "tol_translation"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value <= 0.0:
                raise ValueError(f"{name} must be positive")
        try:
            operator.index(self.max_outer_iters)
        except TypeError:
            raise ValueError(f"max_outer_iters must be an integer, "
                             f"got {self.max_outer_iters!r}") from None
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
    """(gradient, curvature, line) of the objective over rotations at t.

    ``line(x)`` starts the line searches from the iterate x and returns
    ``search(axis, gu, gw)``. With K the cross-product matrix of the unit
    axis, and gu = g'u, gw = g'w the slopes of the gradient g at x along
    u = vec(Kx) and w = vec(K^2 x), ``search`` returns ``(delta, point)``:
    ``point(s, c)`` is x + s Kx + c K^2 x, the iterate rotated by the
    angle with s = sin and c = 1 - cos, and ``delta(s, c)`` the change of
    the objective from x to that point.

    On a rotation quadric (P, q, k) the change is the polynomial
        delta = s gu + c gw + s^2 u'Pu + c^2 w'Pw + 2 s c u'Pw,
    whose three quadratic coefficients ``search`` computes once per line,
    so a trial costs a few float operations and builds no matrix.
    Otherwise delta = value(point) - value(x).

    ``curvature(x)`` is, on a rotation quadric, the 3x3 matrix 2 U P U'
    as nested lists, with U the 3x9 stack of the rows vec(E_i x) for the
    generators E_i of so(3): the second derivative of the quadric term
    along the steps x -> expm(skew(w)) x, in the coordinates w. Without a
    quadric it is None.
    """
    quadric = getattr(objective, "rotation_quadric", None)
    if quadric is None:
        seen = {}   # the last line's trial values: a line from a trial reuses its value

        def line(x):
            fx = seen.pop(x.tobytes(), None)
            if fx is None:
                fx = float(objective.value(x, t))
            seen.clear()

            def search(axis, gu, gw):
                a0, a1, a2 = axis
                k = np.array([[0.0, -a2, a1], [a2, 0.0, -a0], [-a1, a0, 0.0]])
                kx = k @ x
                k2x = k @ kx

                def point(s, c):
                    return x + s * kx + c * k2x

                def delta(s, c):
                    new = point(s, c)
                    seen[new.tobytes()] = fnew = float(objective.value(new, t))
                    return fnew - fx
                return delta, point
            return search

        return (lambda x: np.asarray(objective.rotation_gradient(x, t), dtype=float),
                None, line)
    # Iterates are C-ordered 3x3 arrays, so the quadric is taken to their
    # row-major ravels once: vec index i + 3j becomes 3i + j.
    p, q, _ = quadric(t)
    p = np.asarray(p, dtype=float).reshape(3, 3, 3, 3).transpose(1, 0, 3, 2).reshape(9, 9)
    p2 = 2.0 * p
    q = np.asarray(q, dtype=float).reshape(3, 3).T.ravel()

    def line(x):
        def search(axis, gu, gw):
            a0, a1, a2 = axis
            # [Kx, K^2 x] from [K, K^2] with K^2 = aa' - I; their rows,
            # raveled, are u and w in the order of p.
            kkx = np.array([0.0, -a2, a1, a2, 0.0, -a0, -a1, a0, 0.0,
                            a0 * a0 - 1.0, a0 * a1, a0 * a2,
                            a0 * a1, a1 * a1 - 1.0, a1 * a2,
                            a0 * a2, a1 * a2, a2 * a2 - 1.0]).reshape(2, 3, 3) @ x
            pair = kkx.reshape(2, 9)
            (uu, uw), (_, ww) = np.dot(np.dot(pair, p), pair.T).tolist()
            uw *= 2.0
            kx, k2x = kkx

            def point(s, c):
                return x + s * kx + c * k2x

            def delta(s, c):
                return s * gu + c * gw + s * s * uu + c * c * ww + s * c * uw
            return delta, point
        return search

    def curvature(x):
        u = np.dot(_GENERATORS, x).reshape(3, 9)
        return np.dot(np.dot(u, p2), u.T).tolist()

    return (lambda x: (np.dot(p2, x.ravel()) + q).reshape(3, 3)), curvature, line


def _sin_cos(angle: float):
    """(sin, 1 - cos) of a rotation angle: the Rodrigues coefficients."""
    return math.sin(angle), 1.0 - math.cos(angle)


def _bend(m, a0, a1, a2):
    """g'w = tr(K^2 M') = a'Ma - tr(M) along w = vec(K^2 x), K = skew(a), |a| = 1."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    return (a0 * (a0 * m00 + a1 * m01 + a2 * m02)
            + a1 * (a0 * m10 + a1 * m11 + a2 * m12)
            + a2 * (a0 * m20 + a1 * m21 + a2 * m22)) - (m00 + m11 + m22)


def _newton_vector(c, m, a0, a1, a2):
    """w = Hn^-1 a for Hn = c + sym(M) - tr(M) I, or None unless Hn > 0:
    a pivot of its L D L' that is not positive means there is no Newton
    step."""
    (c00, c01, c02), (_, c11, c12), (_, _, c22) = c
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    tr = m00 + m11 + m22
    return solve_symmetric_3x3(c00 + m00 - tr, c01 + 0.5 * (m01 + m10),
                               c02 + 0.5 * (m02 + m20), c11 + m11 - tr,
                               c12 + 0.5 * (m12 + m21), c22 + m22 - tr, a0, a1, a2)


def rotation_subsolve(objective: PoseObjective, rotation_init, translation_fixed,
                      tol: float = AmmConfig.tol_rotation) -> np.ndarray:
    """Minimize over rotations at a fixed translation.

    Returns a rotation with objective value no larger than at
    ``rotation_init`` (on the rotation quadric, when the objective has
    one). Stops when the Frobenius step norm drops below ``tol`` (by
    default ``AmmConfig().tol_rotation``), when the tangent gradient
    vanishes, or when the step length underflows on a flat objective (the
    best iterate so far is returned in that case).
    """
    gradient, curvature, line = _rotation_block(
        objective, np.asarray(translation_fixed, dtype=float))
    x = np.asarray(rotation_init, dtype=float)
    mu = _INITIAL_MU
    search = line(x)
    for inner in range(1, _INNER_CAP + 1):
        # Riemannian gradient Z = grad X' - X grad' = M - M' with M = grad X';
        # (a0, a1, a2) is the axis of -Z and rate = 0.5 tr(ZZ') its decrease rate.
        g = gradient(x)
        m = (g @ x.T).tolist()
        a0 = m[1][2] - m[2][1]
        a1 = m[2][0] - m[0][2]
        a2 = m[0][1] - m[1][0]
        rate = a0 * a0 + a1 * a1 + a2 * a2
        # With K the cross-product matrix of the unit axis, the step by
        # angle theta is x -> x + sin(theta) Kx + (1 - cos(theta)) K^2 x.
        # Newton step w = Hn^-1 a on the model f - a'w + w'Hn w / 2: one
        # trial at theta = |w|, kept if it gains half the model's decrease
        # a'w / 2. It compares no quantity with an absolute threshold, so
        # scaling the objective does not change it.
        newton = (None if curvature is None
                  else _newton_vector(curvature(x), m, a0, a1, a2))
        if newton is not None:
            w0, w1, w2 = newton
            theta = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
            if 0.0 < theta < math.pi:
                w0, w1, w2 = w0 / theta, w1 / theta, w2 / theta
                slope = a0 * w0 + a1 * w1 + a2 * w2
                delta, point = search((w0, w1, w2), -slope, _bend(m, w0, w1, w2))
                sp, cp = _sin_cos(theta)
                if -delta(sp, cp) < 0.25 * theta * slope:
                    newton = None
            else:
                newton = None
        if newton is None:
            n = math.sqrt(rate)
            if n < _AXIS_FLOOR:
                break                         # no step direction: every trial is x
            # Steepest descent. Slopes along u = vec(Kx) and w = vec(K^2 x):
            # g'u = tr(K M') = -n, and g'w = tr(K^2 M') = a'Ma - tr(M).
            a0, a1, a2 = a0 / n, a1 / n, a2 / n
            delta, point = search((a0, a1, a2), -n, _bend(m, a0, a1, a2))
            sp, cp = _sin_cos(mu * n)
            dp = delta(sp, cp)
            sq, cq = _sin_cos(2.0 * mu * n)
            dq = delta(sq, cq)
            while -dq >= mu * rate and mu < _MU_MAX:      # doubled step still pays off
                sp, cp, dp = sq, cq, dq
                mu *= 2.0
                sq, cq = _sin_cos(2.0 * mu * n)
                dq = delta(sq, cq)
            collapsed = False
            while -dp < 0.5 * mu * rate:                  # shrink to sufficient decrease
                mu *= 0.5
                if mu < _MU_MIN:
                    collapsed = True
                    break
                sp, cp = _sin_cos(mu * n)
                dp = delta(sp, cp)
            if collapsed:
                break
        x = point(sp, cp)
        if inner % _REPROJECT_EVERY == 0:
            x = project_to_so3(x)
        search = line(x)
        # ||expm(theta K) - I||_F = sqrt(2 (sin^2 + (1 - cos)^2))
        if _SQRT2 * math.hypot(sp, cp) < tol:
            break
    return x


def translation_subsolve(objective: PoseObjective, translation_init, rotation_fixed,
                         config: AmmConfig = AmmConfig()) -> np.ndarray:
    """Minimize over the translation at a fixed rotation.

    On a translation quadric (A, b, k) this returns its exact minimizer,
    the solution of 2At = -b, whatever ``translation_init`` is, and calls
    neither ``value`` nor the gradients; it raises PoseSolverError when A
    is not positive definite relative to its own scale
    (``objectives.translation_minimizer``).

    Otherwise it runs Barzilai-Borwein gradient descent seeded with the
    step length ``_INITIAL_ALPHA`` and returns the last iterate that decreased
    the objective: a step that would increase it ends the descent, a
    decrease below ``config.tol_translation`` or a vanishing gradient
    change is treated as convergence.
    """
    r = np.asarray(rotation_fixed, dtype=float)
    quadric = getattr(objective, "translation_quadric", None)
    if quadric is not None:
        a, b, _ = quadric(r)
        return translation_minimizer(a, b)
    x = np.asarray(translation_init, dtype=float)
    alpha = _INITIAL_ALPHA
    fx = float(objective.value(r, x))
    g = np.asarray(objective.translation_gradient(r, x), dtype=float)
    for _ in range(_INNER_CAP):
        x_new = x - alpha * g
        f_new = float(objective.value(r, x_new))
        dh = f_new - fx
        g_new = np.asarray(objective.translation_gradient(r, x_new), dtype=float)
        dg = g_new - g
        dg_norm = math.sqrt(float(dg @ dg))
        if dg_norm < _GRAD_DELTA_FLOOR:
            # gradient unchanged to machine precision: nothing left to exploit
            if dh <= 0.0:
                x = x_new
            return x
        alpha = float((x_new - x) @ dg) / (dg_norm * dg_norm)
        if dh > 0.0:
            return x
        x, g, fx = x_new, g_new, f_new
        if -dh < config.tol_translation:
            return x
    return x


class _FixedRotationQuadric:
    """A reduced rotation quadric as the rotation block reads it: the same
    (P, q, k) at every translation."""

    def __init__(self, quadric):
        self._quadric = quadric

    def rotation_quadric(self, translation):
        return self._quadric


def solve_amm(objective: PoseObjective, translation_init,
              config: AmmConfig = AmmConfig(), rotation_init=None) -> AmmResult:
    """Alternate the two block solvers until the objective stalls, or
    solve once on the reduced rotation quadric.

    With ``reduced_rotation_quadric`` (looked up by name, like the block
    quadrics) the objective is minimized by one ``rotation_subsolve`` on
    that quadric from ``rotation_init`` to ``config.tol_rotation`` and one
    ``translation_subsolve`` at the rotation found: one outer iteration,
    converged, keeping the start if the objective rose there. A singular
    translation block raises PoseSolverError there too.

    Otherwise the rotation is solved first at the initial translation,
    warm-started from ``rotation_init`` (identity when omitted) and
    thereafter from the previous outer iterate; after the first outer
    iteration each rotation solve runs to the forcing tolerance of the
    module docstring, never below ``config.tol_rotation``. Stops when the objective changes by
    less than ``config.tol_outer`` between outer iterations (converged),
    when an outer iteration would raise the objective (converged; the
    previous iterate is kept), or at the iteration cap (not converged). The final
    objective is evaluated at the returned pose. Each translation solve is
    ``translation_subsolve``: exact on a translation quadric, where a
    singular block raises PoseSolverError, and a descent from the
    previous translation otherwise. Raises PoseSolverError if any
    evaluation returns NaN or infinity.
    """
    t = np.asarray(translation_init, dtype=float)
    r = np.eye(3) if rotation_init is None else np.asarray(rotation_init, dtype=float)
    f_prev = float(objective.value(r, t))
    if not np.isfinite(f_prev):
        raise PoseSolverError("objective is not finite at the initial guess")
    reduced = getattr(objective, "reduced_rotation_quadric", None)
    block = objective if reduced is None else _FixedRotationQuadric(reduced())
    trace = []
    converged = False
    outer = 0
    tol = config.tol_rotation
    for outer in range(1, config.max_outer_iters + 1):
        r_new = rotation_subsolve(block, r, t, tol)
        t_new = translation_subsolve(objective, t, r_new, config)
        f = float(objective.value(r_new, t_new))
        if not np.isfinite(f):
            raise PoseSolverError("objective became non-finite during the solve")
        if f > f_prev:
            # The block solves only accept decreases of their own block
            # objectives, so a rise is rounding: nothing left to gain.
            converged = True
            break
        # Forcing: the next rotation solve need only be as tight as this
        # outer iteration moved the rotation, down to the configured floor.
        move = r_new - r
        tol = max(config.tol_rotation, _FORCING * math.sqrt(float(np.vdot(move, move))))
        r, t = r_new, t_new
        trace.append(f)
        if reduced is not None or f_prev - f < config.tol_outer:
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
