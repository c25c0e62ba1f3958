"""The objective contract the alternating solver consumes, and the one
lifted quadric form all three shipped objectives reduce to.

Each is F(R, t) = phi'H phi for a symmetric PSD H of fixed size over a
lifted pose phi(R, t), so its cost does not depend on how many
correspondences were folded into H. Builders emit residual rows A against
phi, F = ||A phi||^2, and ``QuadricForm.from_rows`` folds H = A'A once.
phi is linear in r = vec(R) at a fixed t and affine in t at a fixed R, so
fixing either block leaves a quadric in the other. A lift supplies phi and
these two restrictions of H (``rotation_quadric``, ``translation_quadric``),
and the form takes both gradients and the exact translation minimizer
(``translation_minimizer``) from them. On the absolute lift the
translation block does not depend on R, so the lift also eliminates t:
min_t F is one fixed quadric in r (``reduced_rotation_quadric``). The two
lifts are the vec(R) lift of UPnP (Kneip, Li and Seo, ECCV 2014) and the
generalized epipolar constraint (Pless, CVPR 2003).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import partial

import numpy as np

from .exceptions import PoseSolverError
from .geometry import skew, solve_symmetric_3x3, unvec, vec


class PoseObjective(ABC):
    """What the alternating solver needs from any pose objective.

    Implementations must be pure: ``value`` and both gradients may be
    called concurrently and must not mutate shared state. Values are sums
    of squared residuals, hence nonnegative up to rounding (a PSD quadric
    evaluated near its minimum may round a little below zero).

    Objectives that are quadratic in each block may also provide three
    optional methods, which the solver looks up by name:

      * ``rotation_quadric(translation) -> (P, q, k)`` with P a symmetric
        9x9 matrix, q a 9-vector and k a float such that
        value(R, t) = r'Pr + q'r + k for r = vec(R) at that translation;
      * ``translation_quadric(rotation) -> (A, b, k)`` with A a symmetric
        3x3 matrix such that value(R, t) = t'At + b't + k at that rotation;
      * ``reduced_rotation_quadric() -> (P, q, k)`` such that
        min_t value(R, t) = r'Pr + q'r + k for every rotation, which
        exists when A does not depend on the rotation.

    Each block solve then builds its quadric once instead of calling
    ``value`` and the gradients. A translation quadric means an exact
    translation block: the solver returns its minimizer, the solution of
    2At = -b (``translation_minimizer``), which requires A positive
    definite. The rotation solve evaluates its trial points on the
    rotation quadric, which also gives the Riemannian Hessian over
    rotations, so it takes Newton steps and falls back to steepest
    descent only where no Newton step is accepted. With a reduced
    quadric the solver does not alternate: one rotation solve on it, then
    one translation solve at the rotation found. Without the quadrics
    the solver uses ``value`` and the gradients throughout: gradient
    descent for the translation and steepest descent for every rotation
    step.
    """

    @abstractmethod
    def value(self, rotation: np.ndarray, translation: np.ndarray) -> float:
        """Objective value at (rotation, translation)."""

    @abstractmethod
    def rotation_gradient(self, rotation, translation) -> np.ndarray:
        """Euclidean gradient w.r.t. the nine rotation entries, as 3x3."""

    @abstractmethod
    def translation_gradient(self, rotation, translation) -> np.ndarray:
        """Euclidean gradient w.r.t. the translation, as a 3-vector."""


class AbsoluteLift:
    """phi = [vec(R); t; 1], the lift of both absolute-pose objectives.

    phi selects its entries, so both restrictions are slices of H, split
    at rows 9 and 12 into the blocks of r, t and the constant 1.
    """

    size = 13

    def phi(self, rotation, translation) -> np.ndarray:
        return np.concatenate([vec(rotation), np.asarray(translation, dtype=float),
                               [1.0]])

    def rotation_quadric(self, h, translation):
        """(H_rr, 2 (H_r1 + H_rt t), t'H_tt t + 2 H_1t t + H_11)."""
        t = np.asarray(translation, dtype=float)
        return (h[:9, :9], 2.0 * (h[12, :9] + h[9:12, :9].T @ t),
                float(t @ (h[9:12, 9:12] @ t) + 2.0 * (h[12, 9:12] @ t) + h[12, 12]))

    def translation_quadric(self, h, rotation):
        """(H_tt, 2 (H_tr r + H_t1), r'H_rr r + 2 H_1r r + H_11)."""
        r = vec(rotation)
        return (h[9:12, 9:12], 2.0 * (h[9:12, :9] @ r + h[9:12, 12]),
                float(r @ (h[:9, :9] @ r) + 2.0 * (h[12, :9] @ r) + h[12, 12]))

    def reduced_rotation_quadric(self, h):
        """(S_rr, 2 S_1r, S_11) of the Schur complement
        S = H - H_:t H_tt^-1 H_t: of H_tt, on the rows and columns of r
        and of the constant 1.

        H_tt does not depend on R, so the minimizing translation
        t = -H_tt^-1 (H_tr r + H_t1) is affine in r, and min_t phi'H phi
        = x'Sx over x = (r, 1). H_tt^-1 is solved column by column with
        the L D L' and the floor of ``translation_minimizer``, so a block
        that is not positive definite relative to its own scale raises
        PoseSolverError.
        """
        g = h[:, 9:12]
        s = h - (g @ np.array(_solve_block(g[9:12], _UNIT_VECTORS))) @ g.T
        p = s[:9, :9]
        return 0.5 * (p + p.T), s[12, :9] + s[:9, 12], float(s[12, 12])


class GecLift:
    """phi = [vec(skew(t) R); vec(R)], the generalized epipolar lift.

    phi = L_t r with L_t = [I3 kron skew(t); I9], and
    vec(skew(t) R) = S_R t with S_R = -[skew(R e1); skew(R e2); skew(R e3)],
    so phi = [S_R t; r] at a fixed rotation.
    """

    size = 18

    def phi(self, rotation, translation) -> np.ndarray:
        rotation = np.asarray(rotation, dtype=float)
        return np.concatenate([vec(skew(translation) @ rotation), vec(rotation)])

    def rotation_quadric(self, h, translation):
        """(L_t'H L_t, 0, 0): the objective as r'Pr at this translation.

        L_t is filled in place: its I9 half, then its three diagonal
        skew(t) blocks, with no Kronecker product.
        """
        lift = np.zeros((18, 9))
        lift[9:] = np.eye(9)
        tt = skew(translation)
        for i in (0, 3, 6):
            lift[i:i + 3, i:i + 3] = tt
        p = lift.T @ (h @ lift)
        return 0.5 * (p + p.T), np.zeros(9), 0.0

    def translation_quadric(self, h, rotation):
        """(S'H_EE S, 2 S'H_ER r, r'H_RR r) with S = S_R at this rotation.

        S is written out from the entries of R in one array.
        """
        rotation = np.asarray(rotation, dtype=float)
        (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = rotation.T.tolist()
        s = np.array([[0.0, z0, -y0], [-z0, 0.0, x0], [y0, -x0, 0.0],
                      [0.0, z1, -y1], [-z1, 0.0, x1], [y1, -x1, 0.0],
                      [0.0, z2, -y2], [-z2, 0.0, x2], [y2, -x2, 0.0]])
        r = vec(rotation)
        a = s.T @ (h[:9, :9] @ s)
        return (0.5 * (a + a.T), 2.0 * (s.T @ (h[:9, 9:] @ r)),
                float(r @ (h[9:, 9:] @ r)))


ABSOLUTE_LIFT = AbsoluteLift()
GEC_LIFT = GecLift()


@dataclass(frozen=True, eq=False)
class QuadricForm(PoseObjective):
    """The objective phi'H phi over a lift (``ABSOLUTE_LIFT`` or ``GEC_LIFT``).

    A matrix passed in must have the lift's size, finite entries, and be
    symmetric and positive semidefinite to 1e-10 of max(1, ||H||); the form
    keeps a read-only copy of its symmetric part.
    """

    h: np.ndarray
    lift: AbsoluteLift | GecLift

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        self._store(h, self.lift)
        scale = max(1.0, float(np.linalg.norm(h)))
        if np.linalg.norm(h - h.T) > 1e-10 * scale:
            raise ValueError("H must be symmetric")
        if float(np.linalg.eigvalsh(self.h).min()) < -1e-10 * scale:
            raise ValueError("H must be positive semidefinite")

    def _store(self, h, lift) -> None:
        """Check the shape and entries of ``h``, then keep its symmetric
        part, read-only, and the lift."""
        if h.shape != (lift.size, lift.size):
            raise ValueError(f"H must be {lift.size}x{lift.size} for this lift, "
                             f"got shape {h.shape}")
        if not np.isfinite(h).all():
            raise ValueError("H must be finite")
        h = 0.5 * (h + h.T)
        h.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "lift", lift)

    @classmethod
    def from_rows(cls, rows, lift) -> "QuadricForm":
        """The form ||A phi||^2 of residual rows A, (k, lift.size): H = A'A,
        PSD by construction, so only its shape and finiteness are checked."""
        a = np.asarray(rows, dtype=float)
        form = object.__new__(cls)
        form._store(a.T @ a, lift)
        return form

    def value(self, rotation, translation) -> float:
        phi = self.lift.phi(rotation, translation)
        return float(phi @ (self.h @ phi))

    def rotation_quadric(self, translation):
        """(P, q, k) with value(R, t) = r'Pr + q'r + k at this translation."""
        return self.lift.rotation_quadric(self.h, translation)

    def translation_quadric(self, rotation):
        """(A, b, k) with value(R, t) = t'At + b't + k at this rotation."""
        return self.lift.translation_quadric(self.h, rotation)

    @property
    def reduced_rotation_quadric(self):
        """``() -> (P, q, k)`` with min_t value(R, t) = r'Pr + q'r + k, or
        None on a lift that has no such quadric (``GEC_LIFT``), so that the
        solver's lookup by name finds none there."""
        reduced = getattr(self.lift, "reduced_rotation_quadric", None)
        return None if reduced is None else partial(reduced, self.h)

    def rotation_gradient(self, rotation, translation) -> np.ndarray:
        p, q, _ = self.rotation_quadric(translation)
        return unvec(2.0 * (p @ vec(rotation)) + q)

    def translation_gradient(self, rotation, translation) -> np.ndarray:
        a, b, _ = self.translation_quadric(rotation)
        return 2.0 * (a @ np.asarray(translation, dtype=float)) + b

    def closed_form_translation(self, rotation) -> np.ndarray:
        """Exact minimizer over t at fixed rotation (``translation_minimizer``
        of the translation quadric)."""
        a, b, _ = self.translation_quadric(rotation)
        return translation_minimizer(a, b)


def translation_minimizer(a, b) -> np.ndarray:
    """The t minimizing t'At + b't, the solution of 2At = -b.

    Raises PoseSolverError unless the symmetric 3x3 A is positive
    definite relative to its own scale: every pivot of its L D L'
    factorization (``geometry.solve_symmetric_3x3``) must exceed 1e-12 |tr A|.
    """
    (x,) = _solve_block(a, [np.asarray(b, dtype=float).tolist()])
    return -0.5 * np.array(x)


_UNIT_VECTORS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _solve_block(a, vectors) -> list:
    """The solutions x of Ax = v, one per 3-vector v of ``vectors``, for the
    symmetric 3x3 A (``geometry.solve_symmetric_3x3``); raises
    PoseSolverError unless every pivot exceeds 1e-12 |tr A|."""
    (a00, a01, a02), (_, a11, a12), (_, _, a22) = np.asarray(a, dtype=float).tolist()
    floor = 1e-12 * abs(a00 + a11 + a22)
    out = []
    for v0, v1, v2 in vectors:
        x = solve_symmetric_3x3(a00, a01, a02, a11, a12, a22, v0, v1, v2, floor)
        if x is None:
            raise PoseSolverError(
                "translation block is singular; no unique minimizer")
        out.append(x)
    return out
