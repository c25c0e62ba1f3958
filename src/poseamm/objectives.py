"""The objective contract the alternating solver consumes, and the
fixed-size quadratic form both absolute-pose objectives reduce to.

A quadratic form stores six coefficient blocks of
    F(R, t) = r'M_rr r + v_r'r + t'M_tr r + t'M_tt t + v_t't + c,
with r = vec(R), so evaluating the objective or its gradients costs the
same no matter how many correspondences were folded into the blocks.
Builders emit stacked residual rows A against phi = [vec(R); t; 1], so
F = ||A phi||^2, and ``QuadraticPoseForm.from_rows`` reads all six blocks
off the one 13x13 fold A'A.
Fixing either block leaves a quadric in the other, which the form hands
to the solver through ``rotation_quadric`` and ``translation_quadric``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .exceptions import SingularTranslationSystem
from .geometry import unvec, vec


class PoseObjective(ABC):
    """What the alternating solver needs from any pose objective.

    Implementations must be pure: ``value`` and both gradients may be
    called concurrently and must not mutate shared state. Values are sums
    of squared residuals, hence nonnegative.

    Objectives that are quadratic in each block may also provide two
    optional methods, which the solver looks up by name:

      * ``rotation_quadric(translation) -> (P, q, k)`` with P a symmetric
        9x9 matrix, q a 9-vector and k a float such that
        value(R, t) = r'Pr + q'r + k for r = vec(R) at that translation;
      * ``translation_quadric(rotation) -> (A, b, k)`` with A a symmetric
        3x3 matrix such that value(R, t) = t'At + b't + k at that rotation.

    Each block solve then builds its quadric once and evaluates trial
    points on it, instead of calling ``value`` and the gradients. Without
    them the solver uses ``value`` and the gradients throughout.
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


def _scaled_tol(base: float, magnitude: float) -> float:
    return base * max(1.0, magnitude)


@dataclass(frozen=True)
class QuadraticPoseForm(PoseObjective):
    """Pose objective compressed into fixed-size quadratic coefficients."""

    m_rr: np.ndarray  # (9, 9), symmetric
    v_r: np.ndarray   # (9,)
    m_tr: np.ndarray  # (3, 9)
    m_tt: np.ndarray  # (3, 3), symmetric PSD
    v_t: np.ndarray   # (3,)
    c: float

    def __post_init__(self):
        m_rr = np.asarray(self.m_rr, dtype=float)
        v_r = np.asarray(self.v_r, dtype=float)
        m_tr = np.asarray(self.m_tr, dtype=float)
        m_tt = np.asarray(self.m_tt, dtype=float)
        v_t = np.asarray(self.v_t, dtype=float)
        shapes = (m_rr.shape, v_r.shape, m_tr.shape, m_tt.shape, v_t.shape)
        if shapes != ((9, 9), (9,), (3, 9), (3, 3), (3,)):
            raise ValueError(f"bad coefficient shapes {shapes}")
        if np.linalg.norm(m_rr - m_rr.T) > _scaled_tol(1e-10, np.linalg.norm(m_rr)):
            raise ValueError("m_rr must be symmetric")
        if np.linalg.norm(m_tt - m_tt.T) > _scaled_tol(1e-10, np.linalg.norm(m_tt)):
            raise ValueError("m_tt must be symmetric")
        eig_min = float(np.linalg.eigvalsh(m_tt).min())
        if eig_min < -_scaled_tol(1e-10, np.linalg.norm(m_tt)):
            raise ValueError("m_tt must be positive semidefinite")
        if self.c < -1e-10:
            raise ValueError("constant term must be nonnegative")
        for name, arr in (("m_rr", m_rr), ("v_r", v_r), ("m_tr", m_tr),
                          ("m_tt", m_tt), ("v_t", v_t)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)

    @staticmethod
    def from_rows(rows) -> "QuadraticPoseForm":
        """The form ||A phi||^2 of residual rows A (k, 13), phi = [vec(R); t; 1].

        H = A'A is formed once; m_rr, m_tt and c are its diagonal blocks,
        m_tr, v_r and v_t twice its off-diagonal ones.
        """
        h = np.asarray(rows, dtype=float)
        h = h.T @ h
        h = 0.5 * (h + h.T)
        return QuadraticPoseForm(m_rr=h[:9, :9].copy(), v_r=2.0 * h[12, :9],
                                 m_tr=2.0 * h[9:12, :9], m_tt=h[9:12, 9:12].copy(),
                                 v_t=2.0 * h[12, 9:12], c=float(h[12, 12]))

    @staticmethod
    def zero() -> "QuadraticPoseForm":
        return QuadraticPoseForm(np.zeros((9, 9)), np.zeros(9), np.zeros((3, 9)),
                                 np.zeros((3, 3)), np.zeros(3), 0.0)

    def value(self, rotation, translation) -> float:
        r = vec(rotation)
        t = np.asarray(translation, dtype=float)
        return float(r @ (self.m_rr @ r) + self.v_r @ r + t @ (self.m_tr @ r)
                     + t @ (self.m_tt @ t) + self.v_t @ t + self.c)

    def rotation_gradient_flat(self, rotation, translation) -> np.ndarray:
        """Rotation gradient as a 9-vector (column-major entry order)."""
        r = vec(rotation)
        t = np.asarray(translation, dtype=float)
        return 2.0 * (self.m_rr @ r) + self.v_r + self.m_tr.T @ t

    def rotation_gradient(self, rotation, translation) -> np.ndarray:
        return unvec(self.rotation_gradient_flat(rotation, translation))

    def translation_gradient(self, rotation, translation) -> np.ndarray:
        r = vec(rotation)
        t = np.asarray(translation, dtype=float)
        return 2.0 * (self.m_tt @ t) + self.m_tr @ r + self.v_t

    def rotation_quadric(self, translation):
        """(P, q, k) with value(R, t) = r'Pr + q'r + k at this translation."""
        t = np.asarray(translation, dtype=float)
        return (self.m_rr, self.v_r + self.m_tr.T @ t,
                float(t @ (self.m_tt @ t) + self.v_t @ t + self.c))

    def translation_quadric(self, rotation):
        """(A, b, k) with value(R, t) = t'At + b't + k at this rotation."""
        r = vec(rotation)
        return (self.m_tt, self.m_tr @ r + self.v_t,
                float(r @ (self.m_rr @ r) + self.v_r @ r + self.c))

    def closed_form_translation(self, rotation) -> np.ndarray:
        """Exact minimizer over t at fixed rotation.

        Solves 2 M_tt t = -(M_tr r + v_t); raises SingularTranslationSystem
        when M_tt has a singular value at or below 1e-12.
        """
        svals = np.linalg.svd(self.m_tt, compute_uv=False)
        if svals[-1] <= 1e-12:
            raise SingularTranslationSystem(
                "translation block is singular; no unique minimizer")
        rhs = -(self.m_tr @ vec(rotation) + self.v_t)
        return np.linalg.solve(2.0 * self.m_tt, rhs)
