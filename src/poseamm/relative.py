"""Relative pose from ray-to-ray correspondences.

Two projection rays, one per camera frame, intersect exactly when
l1' [[E, R], [R, 0]] l2 = 0 with E = skew(t) R, where l1, l2 are the
Plücker 6-vectors and (R, t) maps frame-2 coordinates into frame 1.
Expanding the bilinear form per correspondence gives a coefficient
18-vector a_i against the stacked variable v = [vec(E); vec(R)]; the rows
of all correspondences are built in one vectorized pass, and the fold
M = A'A = sum_i a_i a_i' turns the summed squared constraint into the
single quadric v'Mv, evaluable in time independent of the number of
correspondences.

v is linear in each block when the other is fixed: v = L_t r with
L_t = [I3 kron skew(t); I9] and r = vec(R), and vec(skew(t) R) = S_R t with
S_R = -[skew(R e1); skew(R e2); skew(R e3)]. Both restrictions of v'Mv are
therefore quadrics too, in 9 and 3 variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import EmptyData
from .geometry import PlueckerLine, skew, unvec, vec
from .objectives import PoseObjective


@dataclass(frozen=True)
class RayCorrespondence:
    """A matched pair of projection rays, one per camera frame."""

    line1: PlueckerLine
    line2: PlueckerLine


def gec_rows(corrs: Sequence[RayCorrespondence]) -> np.ndarray:
    """Coefficient rows (N, 18) with rows @ v = l1' [[E,R],[R,0]] l2.

    With l = (d; m), the bilinear form is d1'E d2 + d1'R m2 + m1'R d2, so
    row i is [d2 kron d1, d2 kron m1 + m2 kron d1], built for all
    correspondences in one broadcast.
    """
    if len(corrs) == 0:
        raise EmptyData("no ray correspondences")
    d1 = np.array([c.line1.direction for c in corrs])
    m1 = np.array([c.line1.moment for c in corrs])
    d2 = np.array([c.line2.direction for c in corrs])
    m2 = np.array([c.line2.moment for c in corrs])
    n = len(d1)
    rows = np.empty((n, 18))
    rows[:, :9] = (d2[:, :, None] * d1[:, None, :]).reshape(n, 9)
    rows[:, 9:] = (d2[:, :, None] * m1[:, None, :]
                   + m2[:, :, None] * d1[:, None, :]).reshape(n, 9)
    return rows


@dataclass(frozen=True)
class GecForm(PoseObjective):
    """Accumulated 18x18 quadric of the generalized epipolar objective."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (18, 18):
            raise ValueError(f"quadric must be 18x18, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("quadric entries must be finite")
        scale = max(1.0, float(np.linalg.norm(m)))
        if np.linalg.norm(m - m.T) > 1e-10 * scale:
            raise ValueError("quadric must be symmetric")
        if float(np.linalg.eigvalsh(m).min()) < -1e-10 * scale:
            raise ValueError("quadric must be positive semidefinite")
        object.__setattr__(self, "m", m)

    def stacked_variable(self, rotation, translation) -> np.ndarray:
        """v = [vec(skew(t) R); vec(R)]."""
        rotation = np.asarray(rotation, dtype=float)
        e = skew(translation) @ rotation
        return np.concatenate([vec(e), vec(rotation)])

    def value(self, rotation, translation) -> float:
        v = self.stacked_variable(rotation, translation)
        return float(v @ (self.m @ v))

    def rotation_gradient(self, rotation, translation) -> np.ndarray:
        # dv'/dr = [blockdiag(-t^, -t^, -t^) | blockdiag(I, I, I)]; applying a
        # block-diagonal to a 9-vector is a 3x3 product on its unvec'd form.
        v = self.stacked_variable(rotation, translation)
        mv = self.m @ v
        th = skew(translation)
        flat = 2.0 * (vec(-th @ unvec(mv[:9])) + mv[9:])
        return unvec(flat)

    def rotation_quadric(self, translation):
        """(L_t'M L_t, 0, 0): the objective as r'Pr at this translation."""
        lift = np.vstack([np.kron(np.eye(3), skew(translation)), np.eye(9)])
        p = lift.T @ self.m @ lift
        return 0.5 * (p + p.T), np.zeros(9), 0.0

    def translation_quadric(self, rotation):
        """(S'M_EE S, 2 S'M_ER r, r'M_RR r) with S = S_R at this rotation."""
        rotation = np.asarray(rotation, dtype=float)
        s = -np.vstack([skew(rotation[:, 0]), skew(rotation[:, 1]),
                        skew(rotation[:, 2])])
        r = vec(rotation)
        a = s.T @ self.m[:9, :9] @ s
        return (0.5 * (a + a.T), 2.0 * (s.T @ (self.m[:9, 9:] @ r)),
                float(r @ (self.m[9:, 9:] @ r)))

    def translation_gradient(self, rotation, translation) -> np.ndarray:
        # dv'/dt = [skew(r_1) skew(r_2) skew(r_3) | 0] over R's columns.
        rotation = np.asarray(rotation, dtype=float)
        v = self.stacked_variable(rotation, translation)
        mv = self.m @ v
        return 2.0 * (skew(rotation[:, 0]) @ mv[0:3]
                      + skew(rotation[:, 1]) @ mv[3:6]
                      + skew(rotation[:, 2]) @ mv[6:9])


def build_gec_form(corrs: Sequence[RayCorrespondence]) -> GecForm:
    """The quadric M = A'A = sum_i a_i a_i' of the stacked rows A."""
    rows = gec_rows(corrs)
    return GecForm(rows.T @ rows)
