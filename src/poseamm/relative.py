"""Relative pose from ray-to-ray correspondences.

Two projection rays, one per camera frame, intersect exactly when
l1' [[E, R], [R, 0]] l2 = 0 with E = skew(t) R, where l1, l2 are the
Plücker 6-vectors and (R, t) maps frame-2 coordinates into frame 1.
Expanding the bilinear form per correspondence gives a coefficient
18-vector a_i against the lifted pose phi = [vec(E); vec(R)]; the rows
of all correspondences are built in one vectorized pass over the (N, 3)
arrays of a ``RayPairSet``, and the fold H = A'A = sum_i a_i a_i' turns
the summed squared constraint into the quadric phi'H phi over
``objectives.GEC_LIFT``, evaluable in time independent of the number of
correspondences. The lift holds the algebra of its block quadrics.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import PoseSolverError
from .geometry import (LINE_SHAPE_MESSAGE, PlueckerLine, check_rows,
                       frozen_rows, line_faults)
from .objectives import GEC_LIFT, QuadricForm


@dataclass(frozen=True)
class RayCorrespondence:
    """A matched pair of projection rays, one per camera frame."""

    line1: PlueckerLine
    line2: PlueckerLine


@dataclass(frozen=True, eq=False)
class RayPairSet:
    """N ray correspondences held as four read-only (N, 3) arrays.

    Row i pairs the Plücker line (d1[i]; m1[i]) of camera 1 with the line
    (d2[i]; m2[i]) of camera 2. Construction applies ``PlueckerLine``'s
    checks to every row of both lines in one vectorized pass (shapes
    first, for the whole set) and raises the record's ValueError for the
    first failing row. ``len``, iteration and integer indexing give
    ``RayCorrespondence`` records built on demand; a slice gives a set.
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

    @staticmethod
    def of(corrs: Sequence[RayCorrespondence]) -> "RayPairSet":
        """``corrs`` itself if it is a set, else its records stacked once."""
        if isinstance(corrs, RayPairSet):
            return corrs
        n = len(corrs)
        return RayPairSet(np.array([c.line1.direction for c in corrs]).reshape(n, 3),
                          np.array([c.line1.moment for c in corrs]).reshape(n, 3),
                          np.array([c.line2.direction for c in corrs]).reshape(n, 3),
                          np.array([c.line2.moment for c in corrs]).reshape(n, 3))

    def __len__(self) -> int:
        return len(self.d1)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RayPairSet(self.d1[index], self.m1[index], self.d2[index],
                              self.m2[index])
        i = operator.index(index)
        return RayCorrespondence(PlueckerLine(self.d1[i], self.m1[i]),
                                 PlueckerLine(self.d2[i], self.m2[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def gec_rows(corrs: Sequence[RayCorrespondence]) -> np.ndarray:
    """Coefficient rows (N, 18) with rows @ phi = l1' [[E,R],[R,0]] l2.

    With l = (d; m), the bilinear form is d1'E d2 + d1'R m2 + m1'R d2, so
    row i is [d2 kron d1, d2 kron m1 + m2 kron d1], built for all
    correspondences in one broadcast.
    """
    pairs = RayPairSet.of(corrs)
    if len(pairs) == 0:
        raise PoseSolverError("no ray correspondences")
    d1, m1, d2, m2 = pairs.d1, pairs.m1, pairs.d2, pairs.m2
    n = len(d1)
    rows = np.empty((n, 18))
    rows[:, :9] = (d2[:, :, None] * d1[:, None, :]).reshape(n, 9)
    rows[:, 9:] = (d2[:, :, None] * m1[:, None, :]
                   + m2[:, :, None] * d1[:, None, :]).reshape(n, 9)
    return rows


def build_gec_form(corrs: Sequence[RayCorrespondence]) -> QuadricForm:
    """The quadric H = A'A = sum_i a_i a_i' of the stacked rows A."""
    return QuadricForm.from_rows(gec_rows(corrs), GEC_LIFT)
