"""Relative pose of a non-central rig from ray-to-ray correspondences.

The generalized epipolar constraint couples the essential part skew(t) R
with the rotation itself; accumulating the per-correspondence coefficient
vectors gives an 18x18 quadric evaluated in constant time. The 17-point
nullspace estimate seeds the alternating solver. Run:

    python3 demos/relative_pose.py
"""

from poseamm import (SceneConfig, build_gec_form, generate_relative_scene,
                     init_relative_17pt, pose_errors, solve_amm)


def main():
    print("noise(px)   init rot/trans err         refined rot/trans err   outer")
    for sigma in (0.0, 2.0, 5.0, 10.0):
        config = SceneConfig(seed=11, rig="non_central", noise_sigma_px=sigma)
        truth, corrs = generate_relative_scene(config)
        form = build_gec_form(corrs)
        guess = init_relative_17pt(form)
        init_errs = pose_errors(truth, guess)
        result = solve_amm(form, guess.translation, rotation_init=guess.rotation)
        refined = pose_errors(truth, result.pose)
        print(f"  {sigma:5.1f}   {init_errs[0]:9.3e} {init_errs[1]:9.3e}"
              f"    {refined[0]:9.3e} {refined[1]:9.3e}     "
              f"{result.outer_iterations:3d}")
    print("\nThe alternation drives the algebraic objective down, which "
          "mostly\nsharpens the rotation; at zero noise both estimates are "
          "exact to rounding.")


if __name__ == "__main__":
    main()
