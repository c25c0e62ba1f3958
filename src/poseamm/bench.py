"""Synthetic benchmark: scene generation, pixel-noise model, error metrics
and the noise-sweep driver.

Scene scale matters when reading absolute error magnitudes: bearing noise
is Gaussian in pixels at the configured focal length (default 800 px),
world points sit 4-8 scene units out, non-central camera offsets span
+-0.5 units, translations +-2 units and rotation angles up to pi/2. All
randomness flows from the configured seed; every trial draws from its own
generator seeded by (seed, noise level index, trial index), so sweeps are
reproducible regardless of execution order.

After the pose (axis, angle, translation), scenes draw per point the offset
(``uniform(size=3)``, non-central only), direction (``normal(size=3)``) and
depth (``uniform``), on relative scenes camera 2's offset (redrawing all four
while the point is too close to it), then ``normal(size=2)`` per noisy
bearing. That order is part of the protocol; all arithmetic but the retry
test runs once per scene and rounds like the per-point expressions.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .absolute import PointRaySet, build_gpnp_form, build_upnp_form
from .amm import AmmConfig, solve_amm
from .exceptions import PoseSolverError
from .geometry import Pose, rodrigues_step, row_norms
from .initializers import init_absolute_linear, init_identity, init_relative_17pt
from .relative import RayPairSet, build_gec_form

RIG_CENTRAL = "central"
RIG_NON_CENTRAL = "non_central"

PROBLEM_ABSOLUTE = "absolute"
PROBLEM_RELATIVE = "relative"

SOLVER_GEC = "amm-gec"
SOLVER_GPNP = "amm-gpnp"
SOLVER_UPNP = "amm-upnp"
RELATIVE_SOLVERS = (SOLVER_GEC,)
ABSOLUTE_SOLVERS = (SOLVER_GPNP, SOLVER_UPNP)

# The three benchmark families: (name, problem, rig).
FAMILIES = (
    ("relative-noncentral", PROBLEM_RELATIVE, RIG_NON_CENTRAL),
    ("absolute-central", PROBLEM_ABSOLUTE, RIG_CENTRAL),
    ("absolute-noncentral", PROBLEM_ABSOLUTE, RIG_NON_CENTRAL),
)

INIT_LINEAR = "linear"
INIT_IDENTITY = "identity"

# Relative scenes reject points closer to the second camera center than
# this share of the nearest point depth (1.0 at the default depths); a
# point on top of a camera makes its observed direction meaningless.
_MIN_CAMERA_DISTANCE_RATIO = 0.25

# GEC quadrics whose vec(R) rows carry at most this share of the norm come
# from central cameras on both sides.
_CENTRAL_GEC_TOL = 1e-12


@dataclass(frozen=True)
class SceneConfig:
    """Knobs of the synthetic scene generator."""

    num_correspondences: int = 20
    noise_sigma_px: float = 0.0
    focal_px: float = 800.0
    rig: str = RIG_NON_CENTRAL
    rig_extent: float = 0.5
    point_depth_range: tuple = (4.0, 8.0)
    rotation_max_angle: float = math.pi / 2
    translation_extent: float = 2.0
    seed: int = 0

    def __post_init__(self):
        for name in ("noise_sigma_px", "focal_px", "rig_extent", "point_depth_range",
                     "rotation_max_angle", "translation_extent"):
            value = getattr(self, name)
            if not all(map(math.isfinite, value if name == "point_depth_range" else [value])):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.num_correspondences < 1:
            raise ValueError("num_correspondences must be at least 1")
        if self.noise_sigma_px < 0 or self.focal_px <= 0:
            raise ValueError("noise sigma must be >= 0 and focal length > 0")
        if self.rig not in (RIG_CENTRAL, RIG_NON_CENTRAL):
            raise ValueError(f"unknown rig kind {self.rig!r}")
        lo, hi = self.point_depth_range
        if not (0 < lo <= hi):
            raise ValueError("point_depth_range must be positive and ordered")
        if self.rig_extent < 0 or self.translation_extent < 0:
            raise ValueError("extents must be nonnegative")
        if not 0 <= self.rotation_max_angle <= math.pi:
            raise ValueError("rotation_max_angle must lie in [0, pi]")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class TrialRecord:
    """One solver run on one generated scene."""

    noise_sigma: float
    trial_index: int
    solver_name: str
    rot_err_frobenius: float
    trans_err_norm: float
    wall_time_ns: int
    outer_iterations: int
    final_objective: float
    converged: bool


def _random_unit(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        n = math.sqrt(v.dot(v))     # float(np.linalg.norm(v)), as it rounds
        if n > 1e-12:
            return v / n


def _unit_rows(a: np.ndarray) -> np.ndarray:
    return a / row_norms(a)[:, None]


def random_pose(rng: np.random.Generator, config: SceneConfig) -> Pose:
    """Rotation axis uniform on the sphere, angle and translation uniform."""
    axis = _random_unit(rng)
    angle = rng.uniform(0.0, config.rotation_max_angle)
    ext = config.translation_extent
    return Pose(rodrigues_step(axis, angle), rng.uniform(-ext, ext, size=3))


def _pixel_noise_rows(bearings: np.ndarray, draws: np.ndarray,
                      focal_px: float) -> np.ndarray:
    """The pixel-noise model on (N, 3) unit bearings and their (N, 2)
    tangent offsets in pixels."""
    helper = np.eye(3)[np.abs(bearings).argmin(axis=1)]
    e1 = _unit_rows(np.cross(bearings, helper))
    e2 = np.cross(bearings, e1)
    return _unit_rows(bearings + (draws[:, :1] * e1 + draws[:, 1:] * e2) / focal_px)


def apply_pixel_noise(bearing, sigma_px: float, focal_px: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Perturb a unit bearing by Gaussian pixel noise in its tangent plane.

    Independent offsets with standard deviation ``sigma_px`` are applied
    to the two tangent coordinates scaled at distance ``focal_px``, then
    the result is renormalized; per-axis angular deviation is therefore
    sigma_px / focal_px radians. Zero sigma returns the input unchanged.
    """
    b = np.asarray(bearing, dtype=float)
    if sigma_px == 0.0:
        return b
    draws = rng.normal(0.0, sigma_px, size=2)
    return _pixel_noise_rows(b[None], draws[None], focal_px)[0]


def _camera_offset(rng: np.random.Generator, config: SceneConfig) -> np.ndarray:
    if config.rig == RIG_CENTRAL:
        return np.zeros(3)
    return rng.uniform(-config.rig_extent, config.rig_extent, size=3)


def generate_absolute_scene(config: SceneConfig,
                            rng: Optional[np.random.Generator] = None):
    """-> (ground truth pose, PointRaySet of the correspondences).

    World points are placed on exact camera rays at uniform depths, then
    observed bearings are perturbed by the pixel-noise model, so at zero
    noise every residual vanishes at the ground truth.
    """
    rng = np.random.default_rng(config.seed) if rng is None else rng
    truth = random_pose(rng, config)
    n, sigma = config.num_correspondences, config.noise_sigma_px
    offsets, bearings, depths, noise = (np.empty((n, k)) for k in (3, 3, 1, 2))
    for i in range(n):
        offsets[i] = _camera_offset(rng, config)
        bearings[i] = _random_unit(rng)
        depths[i] = rng.uniform(*config.point_depth_range)
        if sigma != 0.0:
            noise[i] = rng.normal(0.0, sigma, size=2)
    points = (offsets + depths * bearings - truth.translation) @ truth.rotation
    if sigma != 0.0:
        bearings = _pixel_noise_rows(bearings, noise, config.focal_px)
    return truth, PointRaySet(points, bearings, offsets)


def generate_relative_scene(config: SceneConfig,
                            rng: Optional[np.random.Generator] = None):
    """-> (ground truth pose, RayPairSet of the ray correspondences).

    A 3D point is placed on a ray of camera 1, re-observed from camera 2
    (frame-2 coordinates x2 = R'(x1 - t)), and both rays are returned as
    Plücker lines in their own frames. Points landing within a quarter of
    the nearest point depth of the second camera center are resampled.
    Non-central offsets fill a full 3D cube, which keeps the rig away from
    the aligned-stereo degeneracy.
    """
    rng = np.random.default_rng(config.seed) if rng is None else rng
    truth = random_pose(rng, config)
    min_distance = _MIN_CAMERA_DISTANCE_RATIO * config.point_depth_range[0]
    n, sigma = config.num_correspondences, config.noise_sigma_px
    offsets, dirs, noise = (np.empty((2 * n, k)) for k in (3, 3, 2))
    for i in range(n):
        while True:
            offset1 = _camera_offset(rng, config)
            dir1 = _random_unit(rng)
            depth = rng.uniform(*config.point_depth_range)
            offset2 = _camera_offset(rng, config)
            point2 = truth.rotation.T @ (offset1 + depth * dir1 - truth.translation)
            ray2 = point2 - offset2
            if math.sqrt(ray2.dot(ray2)) >= min_distance:
                break
        offsets[i], dirs[i], offsets[n + i], dirs[n + i] = offset1, dir1, offset2, ray2
        if sigma != 0.0:
            noise[i] = rng.normal(0.0, sigma, size=2)
            noise[n + i] = rng.normal(0.0, sigma, size=2)
    dirs[n:] = _unit_rows(dirs[n:])
    if sigma != 0.0:
        dirs = _pixel_noise_rows(dirs, noise, config.focal_px)
    moments = np.cross(offsets, dirs)
    return truth, RayPairSet(dirs[:n], moments[:n], dirs[n:], moments[n:])


def pose_errors(truth: Pose, estimate: Pose):
    """-> (Frobenius rotation error, translation error norm)."""
    rot_err = float(np.linalg.norm(truth.rotation - estimate.rotation))
    trans_err = float(np.linalg.norm(truth.translation - estimate.translation))
    return rot_err, trans_err


def mean_records(records: Sequence[TrialRecord]) -> list:
    """Per (noise level, solver) means, marked with trial index -1.

    Rows keep the TrialRecord schema: times and iteration counts are
    rounded to integers, converged means every trial of the group
    converged.
    """
    order = []
    groups = {}
    for record in records:
        key = (record.noise_sigma, record.solver_name)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(record)
    means = []
    for noise_sigma, solver_name in order:
        group = groups[(noise_sigma, solver_name)]
        n = len(group)
        means.append(TrialRecord(
            noise_sigma=noise_sigma,
            trial_index=-1,
            solver_name=solver_name,
            rot_err_frobenius=sum(r.rot_err_frobenius for r in group) / n,
            trans_err_norm=sum(r.trans_err_norm for r in group) / n,
            wall_time_ns=int(sum(r.wall_time_ns for r in group) // n),
            outer_iterations=int(round(sum(r.outer_iterations for r in group) / n)),
            final_objective=sum(r.final_objective for r in group) / n,
            converged=all(r.converged for r in group),
        ))
    return means


def build_objective(solver: str, corrs):
    """The objective a named solver minimizes over the given correspondences.

    Raises PoseSolverError for GEC data from two central cameras: all
    Plücker moments vanish, so the rows of H that couple vec(R) are zero
    and the scale of the translation cannot be observed.
    """
    if solver == SOLVER_GEC:
        form = build_gec_form(corrs)
        coupling = np.linalg.norm(form.h[9:, :])
        if coupling <= _CENTRAL_GEC_TOL * np.linalg.norm(form.h):
            raise PoseSolverError(
                "central relative data: the translation scale is unobservable")
        return form
    if solver == SOLVER_GPNP:
        return build_gpnp_form(corrs)
    if solver == SOLVER_UPNP:
        return build_upnp_form(corrs)
    raise ValueError(f"unknown solver {solver!r}")


def initial_pose(solver: str, init: str, corrs, objective) -> Pose:
    """The seed pose a named solver starts from under the given init policy."""
    if init == INIT_IDENTITY:
        return init_identity()
    if init != INIT_LINEAR:
        raise ValueError(f"unknown initializer {init!r}")
    if solver == SOLVER_GEC:
        return init_relative_17pt(corrs)
    return init_absolute_linear(objective)


def _failed_record(sigma: float, trial: int, solver: str, elapsed: int) -> TrialRecord:
    return TrialRecord(
        noise_sigma=sigma, trial_index=trial, solver_name=solver,
        rot_err_frobenius=math.inf, trans_err_norm=math.inf,
        wall_time_ns=elapsed, outer_iterations=0,
        final_objective=math.inf, converged=False)


def _run_trial(level_index: int, sigma: float, trial: int,
               base_config: SceneConfig, problem: str, solvers,
               init: str, amm_config: AmmConfig, measure_time: bool):
    config = dataclasses.replace(base_config, noise_sigma_px=sigma)
    rng = np.random.default_rng([base_config.seed, level_index, trial])
    if problem == PROBLEM_RELATIVE:
        truth, corrs = generate_relative_scene(config, rng)
    else:
        truth, corrs = generate_absolute_scene(config, rng)
    records = []
    for solver in solvers:
        start = time.perf_counter_ns() if measure_time else 0
        try:
            objective = build_objective(solver, corrs)
            pose0 = initial_pose(solver, init, corrs, objective)
            result = solve_amm(objective, pose0.translation, amm_config,
                               rotation_init=pose0.rotation)
        except PoseSolverError:
            result = None
        elapsed = time.perf_counter_ns() - start if measure_time else 0
        if result is None:
            # a failed solve voids this record only, never the sweep
            records.append(_failed_record(sigma, trial, solver, elapsed))
            continue
        rot_err, trans_err = pose_errors(truth, result.pose)
        records.append(TrialRecord(
            noise_sigma=sigma, trial_index=trial, solver_name=solver,
            rot_err_frobenius=rot_err, trans_err_norm=trans_err,
            wall_time_ns=elapsed, outer_iterations=result.outer_iterations,
            final_objective=result.final_objective,
            converged=result.converged))
    return records


def run_sweep(base_config: SceneConfig, problem: str, noise_levels: Sequence[float],
              trials: int, solvers: Optional[Sequence[str]] = None,
              init: str = INIT_LINEAR, amm_config: Optional[AmmConfig] = None,
              measure_time: bool = True) -> list:
    """One TrialRecord per (noise level, trial, solver).

    Every solver sees the same scene within a trial. Timing wraps the
    initializer plus the solve, never scene generation; pass
    ``measure_time=False`` to record zeros instead, which makes repeated
    sweeps byte-identical. Solver failures become non-converged records
    with infinite errors; they never abort the sweep.
    """
    if problem not in (PROBLEM_ABSOLUTE, PROBLEM_RELATIVE):
        raise ValueError(f"unknown problem kind {problem!r}")
    if solvers is None:
        solvers = RELATIVE_SOLVERS if problem == PROBLEM_RELATIVE else ABSOLUTE_SOLVERS
    allowed = RELATIVE_SOLVERS if problem == PROBLEM_RELATIVE else ABSOLUTE_SOLVERS
    for solver in solvers:
        if solver not in allowed:
            raise ValueError(f"solver {solver!r} does not apply to {problem} problems")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    amm_config = AmmConfig() if amm_config is None else amm_config
    return [record
            for level_index, sigma in enumerate(noise_levels)
            for trial in range(trials)
            for record in _run_trial(level_index, float(sigma), trial, base_config,
                                     problem, solvers, init, amm_config, measure_time)]
