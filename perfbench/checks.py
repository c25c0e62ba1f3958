"""Correctness checks on every solve the benchmark makes.

A solve passes when all of these hold:

* its reported errors match errors the benchmark computes itself from the
  generator's ground truth and the returned pose;
* the returned rotation is orthonormal with determinant +1, and the
  reported final objective is the objective at the returned pose;
* a solve that reports convergence returned a stationary point of its
  objective: the Riemannian rotation gradient plus the translation
  gradient there is at most ``STATIONARY_RATIO`` of its size at the
  identity pose. A solve that hit the iteration cap claims no such thing.

Whether a solve also lands within the per-level error bounds is counted,
not required of each solve: from its seed, the alternating solver can stop
in a wrong local minimum (about 0.2% of linear-seeded and 6% of
identity-seeded noisy GEC solves), and identity-seeded zero-noise solves
stop short of the exactness bound because termination uses an absolute
objective change. Instead, the solves of a run are counted per family and
noise class (a cell), and a cell fails the run when it misses the bounds
more often than its calibrated miss rate (``MISSES``) makes likelier than
``ALARM``. Cells without a calibrated rate, and every ``wide-scene``
solve, may not miss at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Zero-noise solves must recover the pose exactly.
EXACT_ROT_ERR = 1e-6
EXACT_TRANS_ERR = 1e-5
# Noisy N=20 sweep solves: error bound per pixel of noise, about twice the
# largest errors seen over 1200 linear-seeded GEC solves per level, 0.0085
# (rotation, Frobenius) and 0.072 scene units (translation) per pixel.
ROT_ERR_PER_PX = 0.015
TRANS_ERR_PER_PX = 0.12
# N=2000 wide-scene solves at 2 px; the largest errors seen were 7e-4 and
# 7.6e-3.
WIDE_ROT_ERR = 0.01
WIDE_TRANS_ERR = 0.05
# Solves that reported convergence measured at most 7e-4; a pose 0.05 rad
# off the truth measures at least 1.2e-2.
STATIONARY_RATIO = 5e-3

# [solves outside the bounds, solves] per cell, as ``calibrate.py``
# printed them. The miss rate of a cell is taken as (misses + 1) /
# (solves + 2), so a cell that never missed in calibration still tolerates
# a rare miss.
MISSES = {
    "acceptance-sweep": {
        "relative-noncentral/zero": [0, 1000],
        "relative-noncentral/noisy": [10, 5000],
        "absolute-central/zero": [0, 2000],
        "absolute-central/noisy": [0, 10000],
        "absolute-noncentral/zero": [0, 2000],
        "absolute-noncentral/noisy": [0, 10000],
    },
    "identity-seed": {
        "relative-noncentral/zero": [1000, 1000],
        "relative-noncentral/noisy": [293, 5000],
        "absolute-central/zero": [642, 2000],
        "absolute-central/noisy": [7, 10000],
        "absolute-noncentral/zero": [640, 2000],
        "absolute-noncentral/noisy": [9, 10000],
    },
}
# Chance that a run whose cells miss at their calibrated rates fails anyway,
# per cell.
ALARM = 1e-6

_REPORT_TOL = 1e-12


def cell_name(family: str, noise_px: float) -> str:
    """The miss-count cell of a sweep solve: its family and noise class."""
    return f"{family}/{'zero' if noise_px == 0.0 else 'noisy'}"


def allowed_misses(workload: str, cell: str, solves: int) -> int:
    """Most misses of the bounds among ``solves`` solves that pass a cell.

    The smallest k with P(misses > k) < ``ALARM`` when each solve misses
    independently at the cell's calibrated rate.
    """
    missed, made = MISSES.get(workload, {}).get(cell, (0, 0))
    if made == 0:
        return 0
    rate = (missed + 1) / (made + 2)
    log_choose = 0.0
    below = 0.0
    for k in range(solves + 1):
        if k:
            log_choose += math.log((solves - k + 1) / k)
        below += math.exp(log_choose + k * math.log(rate)
                          + (solves - k) * math.log1p(-rate))
        if 1.0 - below < ALARM:
            return k
    return solves


def level_bounds(noise_px: float):
    """(rotation, translation) error bounds of a sweep solve."""
    if noise_px == 0.0:
        return EXACT_ROT_ERR, EXACT_TRANS_ERR
    return ROT_ERR_PER_PX * noise_px, TRANS_ERR_PER_PX * noise_px


def pose_errors(truth, rotation, translation):
    """(Frobenius rotation error, translation error norm) against truth."""
    return (float(np.linalg.norm(truth.rotation - rotation)),
            float(np.linalg.norm(truth.translation - translation)))


def _gradient_size(form, rotation, translation) -> float:
    g = np.asarray(form.rotation_gradient(rotation, translation))
    riemannian = g @ rotation.T - rotation @ g.T
    return (float(np.linalg.norm(riemannian))
            + float(np.linalg.norm(form.translation_gradient(rotation, translation))))


def stationarity_ratio(form, rotation, translation) -> float:
    """Gradient size at the pose over its size at the identity pose."""
    reference = _gradient_size(form, np.eye(3), np.zeros(3))
    here = _gradient_size(form, rotation, translation)
    return here / reference if reference > 0.0 else math.inf


@dataclass(frozen=True)
class Assessment:
    """What the checks found about one solve."""

    rot_err: float
    trans_err: float
    fit: Optional[float]
    within: bool
    problems: list


def assess(truth, form, rotation, translation, final_objective: float,
           converged: bool, bounds, reported_errors=None) -> Assessment:
    """Check one returned pose against the generator's ground truth.

    ``fit`` is the final objective over the objective at the ground truth,
    or None when the truth fits exactly (zero noise).
    """
    rotation = np.asarray(rotation, dtype=float)
    translation = np.asarray(translation, dtype=float)
    problems = []
    rot_err, trans_err = pose_errors(truth, rotation, translation)
    if reported_errors is not None:
        for label, mine, theirs in zip(("rotation", "translation"),
                                       (rot_err, trans_err), reported_errors):
            if abs(mine - theirs) > _REPORT_TOL * max(1.0, mine):
                problems.append(f"reported {label} error {theirs!r} != {mine!r}")
    if (np.linalg.norm(rotation.T @ rotation - np.eye(3)) > 1e-9
            or np.linalg.det(rotation) <= 0.0):
        problems.append("returned rotation is not in SO(3)")
    at_pose = float(form.value(rotation, translation))
    scale = max(float(form.value(np.eye(3), np.zeros(3))), 1e-300)
    if not abs(final_objective - at_pose) <= 1e-9 * scale:
        problems.append(f"final objective {final_objective!r} != {at_pose!r} "
                        "at the returned pose")
    if converged:
        ratio = stationarity_ratio(form, rotation, translation)
        if not ratio <= STATIONARY_RATIO:
            problems.append("converged pose is not stationary (gradient ratio "
                            f"{ratio:.3g})")
    at_truth = float(form.value(truth.rotation, truth.translation))
    fit = at_pose / at_truth if at_truth > 1e-20 else None
    within = rot_err <= bounds[0] and trans_err <= bounds[1]
    return Assessment(rot_err, trans_err, fit, within, problems)


def parse_solve_output(text: str):
    """(rotation, translation, objective, iterations, converged) printed by
    ``poseamm solve``."""
    fields = {}
    for line in text.splitlines():
        key, sep, rest = line.partition(":")
        if sep:
            fields[key.strip()] = rest.split()
    try:
        rotation = np.array([float(x) for x in fields["rotation"]]).reshape(3, 3)
        translation = np.array([float(x) for x in fields["translation"]])
        (objective,) = (float(x) for x in fields["objective"])
        (iterations,) = (int(x) for x in fields["iterations"])
        (converged,) = fields["converged"]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"unparsable solve output: {exc}") from None
    if translation.shape != (3,) or converged not in ("0", "1"):
        raise ValueError("malformed translation or converged flag")
    return rotation, translation, objective, iterations, converged == "1"
