"""Relative pose from ray-to-ray correspondences.

Two projection rays, one per camera frame, intersect exactly when
l1' [[E, R], [R, 0]] l2 = 0 with E = skew(t) R, where l1, l2 are the
Plücker 6-vectors and (R, t) maps frame-2 coordinates into frame 1.
Expanding the bilinear form per correspondence gives a coefficient
18-vector a_i against the stacked variable v = [vec(E); vec(R)];
accumulating M = sum_i a_i a_i' turns the summed squared constraint into
the single quadric v'Mv, evaluable in time independent of the number of
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
from .geometry import PlueckerLine, kron, skew, unvec, vec
from .objectives import PoseObjective


@dataclass(frozen=True)
class RayCorrespondence:
    """A matched pair of projection rays, one per camera frame."""

    line1: PlueckerLine
    line2: PlueckerLine


def build_gec_vector(corr: RayCorrespondence) -> np.ndarray:
    """Coefficient 18-vector a with a @ v = l1' [[E,R],[R,0]] l2.

    Built from the 36-entry Kronecker row (l2' kron l1') indexing the
    stacked 6x6 block matrix: nine entries multiply vec(E), two groups of
    nine both multiply vec(R) and are summed, and the nine that multiply
    the zero block are dropped.
    """
    k = kron(corr.line2.as_vector(), corr.line1.as_vector())
    a = np.empty(18)
    a[0:3] = k[0:3]
    a[3:6] = k[6:9]
    a[6:9] = k[12:15]
    a[9:12] = k[3:6] + k[18:21]
    a[12:15] = k[9:12] + k[24:27]
    a[15:18] = k[15:18] + k[30:33]
    return a


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

    def rotation_gradient_flat(self, rotation, translation) -> np.ndarray:
        return vec(self.rotation_gradient(rotation, translation))

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
    """Accumulate M = sum_i a_i a_i' over the correspondences."""
    if len(corrs) == 0:
        raise EmptyData("no ray correspondences")
    m = np.zeros((18, 18))
    for corr in corrs:
        a = build_gec_vector(corr)
        m += np.outer(a, a)
    return GecForm(m)
