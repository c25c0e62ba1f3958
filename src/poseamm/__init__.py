"""Absolute and relative camera pose by alternating minimization.

The solver alternates a steepest-descent rotation step on SO(3) with a
Barzilai-Borwein translation step, and only needs an objective value plus
its two Euclidean gradients; objectives that also provide their block
quadrics (see ``PoseObjective``) are solved on those. Three objectives
ship with the package:

  * GecForm - relative pose of generalized (central or non-central)
    cameras from ray-to-ray correspondences;
  * build_gpnp_form - absolute pose from point-to-ray distances;
  * build_upnp_form - absolute pose from depth-eliminated ray residuals.

See the demos/ directory for worked examples and the CLI (``poseamm``)
for benchmark sweeps.
"""

from .absolute import (PointRayCorrespondence, PointRaySet, build_gpnp_form,
                       build_upnp_form, gpnp_residual)
from .amm import (AmmConfig, AmmResult, rotation_subsolve, solve_amm,
                  translation_subsolve)
from .bench import (SceneConfig, TrialRecord, apply_pixel_noise,
                    build_objective, generate_absolute_scene,
                    generate_relative_scene, initial_pose, mean_records,
                    pose_errors, random_pose, run_sweep)
from .exceptions import (AmbiguousProjection, ConstraintViolation,
                         DegenerateNullspace, EmptyData, InsufficientData,
                         NonFiniteObjective, ParseError, PoseSolverError,
                         RankDeficientSystem, SingularSystem,
                         SingularTranslationSystem)
from .fileio import (parse_correspondence_file, read_sweep_csv,
                     records_to_csv, write_correspondence_file,
                     write_sweep_csv)
from .geometry import (ObservedRay, PlueckerLine, Pose, project_to_so3,
                       rodrigues_step, skew, unskew, unvec, vec)
from .initializers import (init_absolute_linear, init_identity,
                           init_relative_17pt)
from .objectives import PoseObjective, QuadraticPoseForm
from .relative import GecForm, RayCorrespondence, RayPairSet, build_gec_form

__version__ = "0.1.0"

__all__ = [
    "AmbiguousProjection", "AmmConfig", "AmmResult", "ConstraintViolation",
    "DegenerateNullspace", "EmptyData", "GecForm", "InsufficientData",
    "NonFiniteObjective", "ObservedRay", "ParseError", "PlueckerLine",
    "PointRayCorrespondence", "PointRaySet", "Pose", "PoseObjective",
    "PoseSolverError", "QuadraticPoseForm", "RankDeficientSystem",
    "RayCorrespondence", "RayPairSet", "SceneConfig", "SingularSystem",
    "SingularTranslationSystem", "TrialRecord", "apply_pixel_noise",
    "build_gec_form", "build_gpnp_form", "build_objective", "build_upnp_form",
    "generate_absolute_scene", "generate_relative_scene", "gpnp_residual",
    "init_absolute_linear", "init_identity", "init_relative_17pt",
    "initial_pose", "mean_records", "parse_correspondence_file",
    "pose_errors", "project_to_so3", "random_pose", "read_sweep_csv",
    "records_to_csv", "rodrigues_step", "rotation_subsolve", "run_sweep",
    "skew", "solve_amm", "translation_subsolve", "unskew", "unvec", "vec",
    "write_correspondence_file", "write_sweep_csv",
]
