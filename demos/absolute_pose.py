"""Absolute pose from point-to-ray correspondences, start to finish.

Generates a synthetic non-central scene, builds both absolute objectives
(point-to-ray distance and the depth-eliminated ray residual), seeds the
solver with the linear initializer and solves once for the rotation, with
the translation eliminated (one outer iteration), then for the
translation. Run:

    python3 demos/absolute_pose.py
"""

import time

import numpy as np

from poseamm import (SceneConfig, build_gpnp_form, build_upnp_form,
                     generate_absolute_scene, init_absolute_linear,
                     pose_errors, solve_amm)


def estimate(form, truth, label):
    start = time.perf_counter()
    guess = init_absolute_linear(form)
    result = solve_amm(form, guess.translation, rotation_init=guess.rotation)
    elapsed = (time.perf_counter() - start) * 1e3
    rot_err, trans_err = pose_errors(truth, result.pose)
    print(f"  {label:10s} rot err {rot_err:9.3e}  trans err {trans_err:9.3e}  "
          f"F {result.final_objective:9.3e}  {result.outer_iterations:3d} outer  "
          f"{elapsed:6.2f} ms")
    return result


def main():
    for sigma in (0.0, 5.0):
        config = SceneConfig(seed=42, rig="non_central", noise_sigma_px=sigma)
        truth, corrs = generate_absolute_scene(config)
        print(f"\nnon-central scene, {len(corrs)} correspondences, "
              f"noise {sigma:g} px @ {config.focal_px:g} px focal")
        estimate(build_gpnp_form(corrs), truth, "gpnp")
        estimate(build_upnp_form(corrs), truth, "upnp")

    # Central camera: all rays share one center; same API, rig="central".
    config = SceneConfig(seed=7, rig="central", noise_sigma_px=1.0)
    truth, corrs = generate_absolute_scene(config)
    print(f"\ncentral scene, noise 1 px")
    estimate(build_gpnp_form(corrs), truth, "gpnp")
    estimate(build_upnp_form(corrs), truth, "upnp")


if __name__ == "__main__":
    main()
