import numpy as np
import pytest

from conftest import (fd_rotation_gradient, fd_translation_gradient,
                      random_pose_arrays, relative_gradient_error)
from poseamm.absolute import (PointRayCorrespondence, build_gpnp_form,
                              build_upnp_form, gpnp_residual, upnp_rows)
from poseamm.bench import SceneConfig, generate_absolute_scene
from poseamm.exceptions import EmptyData, RankDeficientSystem
from poseamm.geometry import ObservedRay


def direct_gpnp_value(corrs, rotation, translation):
    total = 0.0
    for corr in corrs:
        v = corr.ray.bearing
        y = rotation @ corr.point + translation - corr.ray.offset
        residual = (np.eye(3) - np.outer(v, v)) @ y
        total += float(residual @ residual)
    return total


def stacked_system(corrs):
    """Dense depth/translation system: A [alpha; t] = stack(R p - c)."""
    n = len(corrs)
    a = np.zeros((3 * n, n + 3))
    for i, corr in enumerate(corrs):
        a[3 * i:3 * i + 3, i] = corr.ray.bearing
        a[3 * i:3 * i + 3, n:] = -np.eye(3)
    return a


def stacked_rhs(corrs, rotation, translation=0.0):
    return np.concatenate([rotation @ c.point + translation - c.ray.offset
                           for c in corrs])


def lifted(rotation, translation):
    """phi = [vec(R); t; 1], the variable the residual rows act on."""
    return np.concatenate([rotation.reshape(9, order="F"), translation, [1.0]])


def eliminated_residuals(corrs, rotation, translation):
    """eta_i = alpha_i v_i + c_i - R p_i - t, from the UPnP residual rows."""
    return (upnp_rows(corrs) @ lifted(rotation, translation)).reshape(-1, 3)


def eliminated_depths(corrs, rotation, translation):
    """alpha_i = v_i . (eta_i - c_i + R p_i + t), read back from the rows."""
    eta = eliminated_residuals(corrs, rotation, translation)
    return np.array([c.ray.bearing @ (e - c.ray.offset + rotation @ c.point
                                      + translation)
                     for c, e in zip(corrs, eta)])


def dense_depths(corrs, rotation, translation):
    """Depths of the dense least-squares solve of the stacked system."""
    sol, *_ = np.linalg.lstsq(stacked_system(corrs),
                              stacked_rhs(corrs, rotation, translation), rcond=None)
    return sol[:len(corrs)]


class TestGpnpResidual:
    def test_point_on_ray_is_zero(self, rng):
        offset = rng.normal(size=3)
        ray = ObservedRay.from_direction(rng.normal(size=3), offset)
        corr = PointRayCorrespondence(offset + 3.7 * ray.bearing, ray)
        np.testing.assert_allclose(
            gpnp_residual(corr, np.eye(3), np.zeros(3)), np.zeros(3), atol=1e-12)

    def test_projection_example(self):
        # bearing e3, zero offset, identity pose: the residual keeps only
        # the components orthogonal to e3.
        corr = PointRayCorrespondence(
            np.array([1.0, 2.0, 5.0]),
            ObservedRay(np.array([0.0, 0.0, 1.0]), np.zeros(3)))
        np.testing.assert_allclose(gpnp_residual(corr, np.eye(3), np.zeros(3)),
                                   [1.0, 2.0, 0.0], atol=1e-15)

    def test_norm_is_point_to_line_distance(self, rng):
        # Independent oracle: minimize ||R x + t - (c + a v)|| over a.
        for _ in range(50):
            corr = PointRayCorrespondence(
                rng.uniform(-5, 5, size=3),
                ObservedRay.from_direction(rng.normal(size=3), rng.normal(size=3)))
            rotation, translation = random_pose_arrays(rng)
            y = rotation @ corr.point + translation - corr.ray.offset
            alphas = np.linspace(-20, 20, 4001)
            dists = np.linalg.norm(
                y[None, :] - alphas[:, None] * corr.ray.bearing[None, :], axis=1)
            best = float(dists.min())
            got = float(np.linalg.norm(gpnp_residual(corr, rotation, translation)))
            assert got == pytest.approx(best, abs=1e-3)
            exact = float(np.linalg.norm(y - (corr.ray.bearing @ y) * corr.ray.bearing))
            assert got == pytest.approx(exact, abs=1e-12)


class TestBuildGpnpForm:
    def test_single_correspondence_blocks(self):
        corr = PointRayCorrespondence(
            np.zeros(3), ObservedRay(np.array([0.0, 0.0, 1.0]), np.zeros(3)))
        form = build_gpnp_form([corr])
        np.testing.assert_allclose(form.m_tt, np.diag([1.0, 1.0, 0.0]), atol=1e-15)
        np.testing.assert_array_equal(form.v_t, np.zeros(3))
        assert form.c == 0.0
        np.testing.assert_array_equal(form.m_rr, np.zeros((9, 9)))

    def test_zero_at_truth(self):
        truth, corrs = generate_absolute_scene(SceneConfig(seed=21))
        form = build_gpnp_form(corrs)
        scale = float(np.linalg.norm(form.m_rr)) + abs(form.c) + 1.0
        assert abs(form.value(truth.rotation, truth.translation)) < 1e-12 * scale

    def test_matches_direct_residual_sum(self, rng):
        # Primary correctness gate for this objective.
        for seed in range(100):
            _, corrs = generate_absolute_scene(
                SceneConfig(seed=seed, noise_sigma_px=4.0, num_correspondences=12))
            form = build_gpnp_form(corrs)
            rotation, translation = random_pose_arrays(rng)
            expected = direct_gpnp_value(corrs, rotation, translation)
            assert form.value(rotation, translation) == pytest.approx(
                expected, rel=1e-10)

    def test_projector_idempotent(self):
        _, corrs = generate_absolute_scene(SceneConfig(seed=3))
        for corr in corrs:
            v = corr.ray.bearing
            q = np.eye(3) - np.outer(v, v)
            np.testing.assert_allclose(q @ q, q, atol=1e-12)

    def test_closed_form_translation_on_clean_data(self):
        for seed in range(10):
            truth, corrs = generate_absolute_scene(SceneConfig(seed=seed))
            form = build_gpnp_form(corrs)
            t = form.closed_form_translation(truth.rotation)
            assert np.linalg.norm(t - truth.translation) < 1e-9

    def test_empty_raises(self):
        with pytest.raises(EmptyData):
            build_gpnp_form([])

    def test_gradients_finite_difference(self, rng):
        for seed in range(50):
            _, corrs = generate_absolute_scene(
                SceneConfig(seed=seed, noise_sigma_px=3.0, num_correspondences=10))
            form = build_gpnp_form(corrs)
            rotation, translation = random_pose_arrays(rng)
            assert relative_gradient_error(
                form.rotation_gradient(rotation, translation),
                fd_rotation_gradient(form, rotation, translation)) < 1e-5
            assert relative_gradient_error(
                form.translation_gradient(rotation, translation),
                fd_translation_gradient(form, rotation, translation)) < 1e-5


class TestUpnpFactorization:
    """The O(N) depth elimination behind the UPnP rows."""

    def test_orthogonal_bearings_succeed(self):
        corrs = [PointRayCorrespondence(np.array([5.0, 0, 0]),
                                        ObservedRay(np.eye(3)[i], 0.1 * np.eye(3)[i]))
                 for i in range(3)]
        assert upnp_rows(corrs).shape == (9, 13)

    def test_pseudo_inverse_rows(self, rng):
        # The elimination is a left inverse of the stacked system: points
        # placed at any depths on their rays give back exactly those depths
        # and a zero residual.
        for _ in range(10):
            rotation, translation = random_pose_arrays(rng)
            n = 8
            bearings = rng.normal(size=(n, 3))
            bearings /= np.linalg.norm(bearings, axis=1)[:, None]
            offsets = rng.uniform(-0.5, 0.5, size=(n, 3))
            depths = rng.uniform(1.0, 9.0, size=n)
            cam = depths[:, None] * bearings + offsets
            corrs = [PointRayCorrespondence(rotation.T @ (x - translation),
                                            ObservedRay(v, c))
                     for x, v, c in zip(cam, bearings, offsets)]
            np.testing.assert_allclose(
                eliminated_depths(corrs, rotation, translation), depths, atol=1e-9)
            residuals = eliminated_residuals(corrs, rotation, translation)
            assert np.abs(residuals).max() < 1e-9

    def test_matches_dense_least_squares(self, rng):
        for seed in range(20):
            _, corrs = generate_absolute_scene(SceneConfig(seed=seed))
            rotation, translation = random_pose_arrays(rng)
            np.testing.assert_allclose(
                eliminated_depths(corrs, rotation, translation),
                dense_depths(corrs, rotation, translation), atol=1e-9)

    def test_parallel_bearings_raise(self):
        bearing = np.array([0.0, 0.0, 1.0])
        corrs = [PointRayCorrespondence(np.array([0.0, 0.0, float(3 + i)]),
                                        ObservedRay(bearing, np.zeros(3)))
                 for i in range(5)]
        with pytest.raises(RankDeficientSystem):
            upnp_rows(corrs)

    def test_rows_annihilate_translation(self):
        # t enters each residual only as -t: the depths do not depend on it.
        _, corrs = generate_absolute_scene(SceneConfig(seed=14))
        rows = upnp_rows(corrs).reshape(-1, 3, 13)
        np.testing.assert_array_equal(rows[:, :, 9:12],
                                      np.broadcast_to(-np.eye(3), (len(corrs), 3, 3)))


class TestUpnpDepth:
    def test_recovers_true_depths(self):
        config = SceneConfig(seed=17)
        truth, corrs = generate_absolute_scene(config)
        got = eliminated_depths(corrs, truth.rotation, truth.translation)
        for i, corr in enumerate(corrs):
            cam_point = truth.rotation @ corr.point + truth.translation
            true_depth = float(np.linalg.norm(cam_point - corr.ray.offset))
            assert got[i] == pytest.approx(true_depth, abs=1e-9)

    def test_central_point_at_distance(self):
        truth, corrs = generate_absolute_scene(SceneConfig(seed=2, rig="central"))
        depth = eliminated_depths(corrs, truth.rotation, truth.translation)[0]
        cam_point = truth.rotation @ corrs[0].point + truth.translation
        assert depth == pytest.approx(float(np.linalg.norm(cam_point)), abs=1e-9)

    def test_independent_of_translation(self, rng):
        _, corrs = generate_absolute_scene(SceneConfig(seed=23, noise_sigma_px=2.0))
        rotation, _ = random_pose_arrays(rng)
        depths = np.array([eliminated_depths(corrs, rotation, rng.uniform(-5, 5, 3))
                           for _ in range(5)])
        for i in (0, 7, 19):
            values = depths[:, i]
            assert values.max() - values.min() < 1e-12 * max(1.0, abs(values[0]))

    def test_matches_dense_alpha_block(self, rng):
        # The eliminated residual is the residual at the dense
        # least-squares depths, at any pose.
        _, corrs = generate_absolute_scene(SceneConfig(seed=29, noise_sigma_px=3.0))
        for _ in range(10):
            rotation, translation = random_pose_arrays(rng)
            alpha = dense_depths(corrs, rotation, translation)
            expected = np.array([a * c.ray.bearing + c.ray.offset
                                 - rotation @ c.point - translation
                                 for a, c in zip(alpha, corrs)])
            np.testing.assert_allclose(
                eliminated_residuals(corrs, rotation, translation), expected,
                atol=1e-9)


class TestBuildUpnpForm:
    def test_zero_at_truth(self):
        truth, corrs = generate_absolute_scene(SceneConfig(seed=31))
        form = build_upnp_form(corrs)
        scale = float(np.linalg.norm(form.m_rr)) + abs(form.c) + 1.0
        assert abs(form.value(truth.rotation, truth.translation)) < 1e-12 * scale

    def test_m_tt_is_scaled_identity(self):
        _, corrs = generate_absolute_scene(SceneConfig(seed=5))
        form = build_upnp_form(corrs)
        np.testing.assert_array_equal(form.m_tt, float(len(corrs)) * np.eye(3))

    def test_residual_recomposition(self, rng):
        # Primary correctness gate: the form must equal the summed squared
        # depth-eliminated residuals with depths from the dense solve.
        for seed in range(100):
            _, corrs = generate_absolute_scene(
                SceneConfig(seed=seed, noise_sigma_px=4.0, num_correspondences=10))
            form = build_upnp_form(corrs)
            rotation, translation = random_pose_arrays(rng)
            depths = dense_depths(corrs, rotation, translation)
            expected = 0.0
            for i, corr in enumerate(corrs):
                alpha = depths[i]
                eta = (alpha * corr.ray.bearing + corr.ray.offset
                       - rotation @ corr.point - translation)
                expected += float(eta @ eta)
            assert form.value(rotation, translation) == pytest.approx(
                expected, rel=1e-9)

    def test_rank_deficiency_propagates(self):
        bearing = np.array([1.0, 0.0, 0.0])
        corrs = [PointRayCorrespondence(np.array([float(i + 2), 0.0, 0.0]),
                                        ObservedRay(bearing, np.zeros(3)))
                 for i in range(4)]
        with pytest.raises(RankDeficientSystem):
            build_upnp_form(corrs)

    def test_gradients_finite_difference(self, rng):
        for seed in range(50):
            _, corrs = generate_absolute_scene(
                SceneConfig(seed=seed, noise_sigma_px=3.0, num_correspondences=10))
            form = build_upnp_form(corrs)
            rotation, translation = random_pose_arrays(rng)
            assert relative_gradient_error(
                form.rotation_gradient(rotation, translation),
                fd_rotation_gradient(form, rotation, translation)) < 1e-5
            assert relative_gradient_error(
                form.translation_gradient(rotation, translation),
                fd_translation_gradient(form, rotation, translation)) < 1e-5
