"""Absolute and relative camera pose by alternating minimization.

The solver alternates a rotation solve on SO(3) with a translation
solve, and only needs an objective value plus its two Euclidean
gradients. Objectives that also provide their block quadrics (see
``PoseObjective``) are solved on those: Riemannian Newton steps for the
rotation and the exact minimizer of the translation quadric. The others
take steepest-descent rotation steps and Barzilai-Borwein translation
steps. Three objectives, each an ``objectives.QuadricForm``, ship with
the package:

  * build_gec_form - relative pose of generalized (central or non-central)
    cameras from ray-to-ray correspondences;
  * build_gpnp_form - absolute pose from point-to-ray distances;
  * build_upnp_form - absolute pose from depth-eliminated ray residuals.

The top level holds what the demos and the README import; import the rest
from its module (``poseamm.amm``, ``poseamm.exceptions``, ...). See the
demos/ directory for worked examples and the CLI (``poseamm``) for
benchmark sweeps.
"""

from .absolute import PointRaySet, build_gpnp_form, build_upnp_form
from .amm import solve_amm
from .bench import (SceneConfig, generate_absolute_scene, generate_relative_scene,
                    pose_errors, run_sweep)
from .fileio import write_sweep_csv
from .geometry import rodrigues_step
from .initializers import init_absolute_linear, init_relative_17pt
from .objectives import PoseObjective
from .relative import RayPairSet, build_gec_form

__version__ = "0.1.0"

__all__ = [
    "PointRaySet", "PoseObjective", "RayPairSet", "SceneConfig",
    "build_gec_form", "build_gpnp_form", "build_upnp_form",
    "generate_absolute_scene", "generate_relative_scene",
    "init_absolute_linear", "init_relative_17pt", "pose_errors",
    "rodrigues_step", "run_sweep", "solve_amm", "write_sweep_csv",
]
