import numpy as np
import pytest

from poseamm.absolute import PointRayCorrespondence, build_gpnp_form, build_upnp_form
from poseamm.amm import AmmConfig, solve_amm
from poseamm.bench import (SceneConfig, generate_absolute_scene,
                           generate_relative_scene, pose_errors)
from poseamm.exceptions import (DegenerateNullspace, InsufficientData,
                                SingularSystem)
from poseamm.geometry import ObservedRay, rodrigues_step, skew, vec
from poseamm.initializers import (init_absolute_linear, init_identity,
                                  init_relative_17pt)
from poseamm.relative import gec_rows


class TestInitRelative17pt:
    def test_recovers_clean_pose(self):
        for seed in range(10):
            truth, corrs = generate_relative_scene(SceneConfig(seed=seed))
            pose = init_relative_17pt(corrs)
            rot_err, trans_err = pose_errors(truth, pose)
            assert rot_err < 1e-6
            assert trans_err < 1e-5

    def test_deterministic(self):
        _, corrs = generate_relative_scene(SceneConfig(seed=40, noise_sigma_px=2.0))
        first = init_relative_17pt(corrs)
        second = init_relative_17pt(corrs)
        np.testing.assert_array_equal(first.rotation, second.rotation)
        np.testing.assert_array_equal(first.translation, second.translation)

    def test_too_few_correspondences(self):
        _, corrs = generate_relative_scene(SceneConfig(seed=1, num_correspondences=16))
        with pytest.raises(InsufficientData):
            init_relative_17pt(corrs)

    def test_degenerate_nullspace(self):
        # One correspondence repeated: the constraint stack has rank 1 and
        # the nullspace is 17-dimensional.
        _, corrs = generate_relative_scene(SceneConfig(seed=2, num_correspondences=1))
        with pytest.raises(DegenerateNullspace):
            init_relative_17pt(list(corrs) * 20)

    def test_nullspace_residual_small(self):
        truth, corrs = generate_relative_scene(SceneConfig(seed=3))
        pose = init_relative_17pt(corrs)
        stack = gec_rows(corrs)
        essential = skew(pose.translation) @ pose.rotation
        v = np.concatenate([vec(essential), vec(pose.rotation)])
        v /= np.linalg.norm(v)
        spectral_norm = np.linalg.svd(stack, compute_uv=False)[0]
        assert np.linalg.norm(stack @ v) < 1e-10 * spectral_norm


class TestInitAbsoluteLinear:
    def test_recovers_clean_pose_gpnp(self):
        for seed in range(10):
            truth, corrs = generate_absolute_scene(SceneConfig(seed=seed))
            pose = init_absolute_linear(build_gpnp_form(corrs))
            rot_err, trans_err = pose_errors(truth, pose)
            assert rot_err < 1e-8
            assert trans_err < 1e-8

    def test_recovers_clean_pose_upnp(self):
        for seed in range(10):
            truth, corrs = generate_absolute_scene(SceneConfig(seed=seed))
            pose = init_absolute_linear(build_upnp_form(corrs))
            rot_err, trans_err = pose_errors(truth, pose)
            assert rot_err < 1e-8
            assert trans_err < 1e-8

    def test_pure_translation_pose(self):
        truth, corrs = generate_absolute_scene(
            SceneConfig(seed=7, rotation_max_angle=0.0))
        np.testing.assert_array_equal(truth.rotation, np.eye(3))
        pose = init_absolute_linear(build_gpnp_form(corrs))
        assert np.linalg.norm(pose.rotation - np.eye(3)) < 1e-8

    def test_collinear_points_raise(self):
        # All world points on one line leave a one-parameter pose family,
        # so the stationarity system is exactly singular.
        direction = np.array([1.0, 0.2, -0.3])
        direction /= np.linalg.norm(direction)
        base = np.array([0.5, -1.0, 6.0])
        rotation = rodrigues_step([0.0, 0.0, 1.0], 0.4)
        translation = np.array([0.3, -0.2, 0.5])
        corrs = []
        for s in np.linspace(-2.0, 2.0, 20):
            point = base + s * direction
            corrs.append(PointRayCorrespondence(
                point, ObservedRay.from_direction(rotation @ point + translation,
                                                  np.zeros(3))))
        form = build_gpnp_form(corrs)
        k = np.zeros((12, 12))
        k[:9, :9] = 2.0 * form.m_rr
        k[:9, 9:] = form.m_tr.T
        k[9:, :9] = form.m_tr
        k[9:, 9:] = 2.0 * form.m_tt
        assert np.linalg.svd(k, compute_uv=False)[-1] < 1e-12
        with pytest.raises(SingularSystem):
            init_absolute_linear(form)

    @pytest.mark.parametrize("rig", ["central", "non_central"])
    @pytest.mark.parametrize("build", [build_gpnp_form, build_upnp_form])
    def test_needs_six_correspondences(self, build, rig):
        # Twelve unknowns: five correspondences leave the system singular.
        for n, seed in ((5, 0), (5, 1), (6, 0), (6, 1)):
            truth, corrs = generate_absolute_scene(
                SceneConfig(seed=seed, rig=rig, num_correspondences=n))
            form = build(corrs)
            if n == 5:
                with pytest.raises(SingularSystem):
                    init_absolute_linear(form)
            else:
                rot_err, _ = pose_errors(truth, init_absolute_linear(form))
                assert rot_err < 1e-6

    def test_result_satisfies_pose_invariants(self):
        _, corrs = generate_absolute_scene(SceneConfig(seed=11, noise_sigma_px=8.0))
        pose = init_absolute_linear(build_gpnp_form(corrs))
        # Pose construction already validates; double-check the projection.
        assert np.linalg.norm(pose.rotation @ pose.rotation.T - np.eye(3)) < 1e-9


class TestInitIdentity:
    def test_returns_identity_pose(self):
        pose = init_identity()
        np.testing.assert_array_equal(pose.rotation, np.eye(3))
        np.testing.assert_array_equal(pose.translation, np.zeros(3))

    def test_identity_seed_robustness_sweep(self):
        # Empirical robustness of the whole solver from the trivial seed on
        # easy (central, noise-free) scenes. The outer tolerance is
        # tightened so the final objective can actually fall below the
        # 1e-10 gate; the measured rate is ~0.94.
        config = AmmConfig(tol_outer=1e-12)
        hits = 0
        trials = 200
        for seed in range(trials):
            _, corrs = generate_absolute_scene(SceneConfig(seed=seed, rig="central"))
            form = build_gpnp_form(corrs)
            result = solve_amm(form, np.zeros(3), config)
            if result.final_objective < 1e-10:
                hits += 1
        assert hits / trials >= 0.80
