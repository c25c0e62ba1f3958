"""Relative pose from ray-to-ray correspondences.

Two projection rays, one per camera frame, intersect exactly when
l1' [[E, R], [R, 0]] l2 = 0 with E = skew(t) R, where l1, l2 are the
Plücker 6-vectors and (R, t) maps frame-2 coordinates into frame 1.
Expanding the bilinear form per correspondence gives a coefficient
18-vector a_i against the lifted pose phi = [vec(E); vec(R)]; the rows
of all correspondences are built in one vectorized pass over the (N, 3)
arrays of a ``RayPairSet`` (the one form ray correspondences take, one
row per pair of lines), and the fold H = A'A = sum_i a_i a_i' turns
the summed squared constraint into the quadric phi'H phi over
``objectives.GEC_LIFT``, evaluable in time independent of the number of
correspondences. The lift holds the algebra of its block quadrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import PoseSolverError
from .geometry import LINE_SHAPE_MESSAGE, check_rows, frozen_rows, line_faults
from .objectives import GEC_LIFT, QuadricForm


@dataclass(frozen=True, eq=False)
class RayPairSet:
    """N ray correspondences held as four read-only (N, 3) arrays.

    Row i pairs the Plücker line (d1[i]; m1[i]) of camera 1 with the line
    (d2[i]; m2[i]) of camera 2. Construction checks the shapes of the
    whole set, then every row of both lines in one vectorized pass (finite
    entries, unit directions, moments orthogonal to them), and raises
    ValueError for the first failing row. A slice gives a set; ``len``
    counts rows.
    """

    d1: np.ndarray
    m1: np.ndarray
    d2: np.ndarray
    m2: np.ndarray

    def __post_init__(self):
        d1, m1, d2, m2 = (frozen_rows(a, LINE_SHAPE_MESSAGE)
                          for a in (self.d1, self.m1, self.d2, self.m2))
        if not len(d1) == len(m1) == len(d2) == len(m2):
            raise ValueError("d1, m1, d2 and m2 differ in length")
        check_rows(line_faults(d1, m1) + line_faults(d2, m2))
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "m1", m1)
        object.__setattr__(self, "d2", d2)
        object.__setattr__(self, "m2", m2)

    def __len__(self) -> int:
        return len(self.d1)

    def __getitem__(self, index: slice) -> "RayPairSet":
        if not isinstance(index, slice):
            raise TypeError(f"RayPairSet indices must be slices, not "
                            f"{type(index).__name__}")
        return RayPairSet(self.d1[index], self.m1[index], self.d2[index],
                          self.m2[index])


def gec_rows(corrs: RayPairSet) -> np.ndarray:
    """Coefficient rows (N, 18) with rows @ phi = l1' [[E,R],[R,0]] l2.

    With l = (d; m), the bilinear form is d1'E d2 + d1'R m2 + m1'R d2, so
    row i is [d2 kron d1, d2 kron m1 + m2 kron d1], built for all
    correspondences in one broadcast.
    """
    if len(corrs) == 0:
        raise PoseSolverError("no ray correspondences")
    d1, m1, d2, m2 = corrs.d1, corrs.m1, corrs.d2, corrs.m2
    n = len(d1)
    rows = np.empty((n, 18))
    rows[:, :9] = (d2[:, :, None] * d1[:, None, :]).reshape(n, 9)
    rows[:, 9:] = (d2[:, :, None] * m1[:, None, :]
                   + m2[:, :, None] * d1[:, None, :]).reshape(n, 9)
    return rows


def build_gec_form(corrs: RayPairSet) -> QuadricForm:
    """The quadric H = A'A = sum_i a_i a_i' of the stacked rows A."""
    return QuadricForm.from_rows(gec_rows(corrs), GEC_LIFT)
