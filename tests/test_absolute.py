import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (fd_rotation_gradient, fd_translation_gradient,
                      random_pose_arrays, relative_gradient_error)
from poseamm.absolute import PointRaySet, build_gpnp_form, build_upnp_form, upnp_rows
from poseamm.amm import solve_amm
from poseamm.bench import (RIG_CENTRAL, RIG_NON_CENTRAL, SceneConfig,
                           generate_absolute_scene)
from poseamm.exceptions import PoseSolverError
from poseamm.geometry import rodrigues_step
from poseamm.initializers import init_absolute_linear


def unit(v):
    return v / np.linalg.norm(v)


def one_row(point, bearing, offset):
    """The set of a single point-ray correspondence."""
    return PointRaySet(np.array([point], dtype=float), np.array([bearing], dtype=float),
                       np.array([offset], dtype=float))


def direct_gpnp_value(corrs, rotation, translation):
    total = 0.0
    for point, v, offset in zip(corrs.points, corrs.bearings, corrs.offsets):
        y = rotation @ point + translation - offset
        residual = (np.eye(3) - np.outer(v, v)) @ y
        total += float(residual @ residual)
    return total


def stacked_system(corrs):
    """Dense depth/translation system: A [alpha; t] = stack(R p - c)."""
    n = len(corrs)
    a = np.zeros((3 * n, n + 3))
    for i, bearing in enumerate(corrs.bearings):
        a[3 * i:3 * i + 3, i] = bearing
        a[3 * i:3 * i + 3, n:] = -np.eye(3)
    return a


def stacked_rhs(corrs, rotation, translation=0.0):
    return np.concatenate([rotation @ point + translation - offset
                           for point, offset in zip(corrs.points, corrs.offsets)])


def lifted(rotation, translation):
    """phi = [vec(R); t; 1], the variable the residual rows act on."""
    return np.concatenate([rotation.reshape(9, order="F"), translation, [1.0]])


def eliminated_residuals(corrs, rotation, translation):
    """eta_i = alpha_i v_i + c_i - R p_i - t, from the UPnP residual rows."""
    return (upnp_rows(corrs) @ lifted(rotation, translation)).reshape(-1, 3)


def eliminated_depths(corrs, rotation, translation):
    """alpha_i = v_i . (eta_i - c_i + R p_i + t), read back from the rows."""
    eta = eliminated_residuals(corrs, rotation, translation)
    return np.array([bearing @ (e - offset + rotation @ point + translation)
                     for point, bearing, offset, e
                     in zip(corrs.points, corrs.bearings, corrs.offsets, eta)])


def dense_depths(corrs, rotation, translation):
    """Depths of the dense least-squares solve of the stacked system."""
    sol, *_ = np.linalg.lstsq(stacked_system(corrs),
                              stacked_rhs(corrs, rotation, translation), rcond=None)
    return sol[:len(corrs)]


class TestGpnpResidual:
    """The gPnP form of one correspondence is its squared point-to-ray
    distance, the squared norm of (I - vv')(R x + t - c)."""

    def test_point_on_ray_is_zero(self, rng):
        offset = rng.normal(size=3)
        bearing = unit(rng.normal(size=3))
        form = build_gpnp_form(one_row(offset + 3.7 * bearing, bearing, offset))
        assert form.value(np.eye(3), np.zeros(3)) == pytest.approx(0.0, abs=1e-12)

    def test_projection_example(self):
        # bearing e3, zero offset, identity pose: the residual keeps only
        # the components orthogonal to e3, (1, 2, 0).
        form = build_gpnp_form(one_row([1.0, 2.0, 5.0], [0.0, 0.0, 1.0], np.zeros(3)))
        assert form.value(np.eye(3), np.zeros(3)) == pytest.approx(5.0, abs=1e-15)

    def test_norm_is_point_to_line_distance(self, rng):
        # Independent oracle: minimize ||R x + t - (c + a v)|| over a.
        for _ in range(50):
            point, bearing = rng.uniform(-5, 5, size=3), unit(rng.normal(size=3))
            offset = rng.normal(size=3)
            form = build_gpnp_form(one_row(point, bearing, offset))
            rotation, translation = random_pose_arrays(rng)
            y = rotation @ point + translation - offset
            alphas = np.linspace(-20, 20, 4001)
            dists = np.linalg.norm(
                y[None, :] - alphas[:, None] * bearing[None, :], axis=1)
            best = float(dists.min())
            got = form.value(rotation, translation)
            assert got == pytest.approx(best ** 2, abs=1e-3)
            exact = float(np.linalg.norm(y - (bearing @ y) * bearing))
            assert got == pytest.approx(exact ** 2, abs=1e-12)


class TestBuildGpnpForm:
    def test_single_correspondence_blocks(self):
        form = build_gpnp_form(one_row(np.zeros(3), [0.0, 0.0, 1.0], np.zeros(3)))
        np.testing.assert_allclose(form.h[9:12, 9:12], np.diag([1.0, 1.0, 0.0]),
                                   atol=1e-15)
        np.testing.assert_array_equal(form.h[12, 9:12], np.zeros(3))
        assert form.h[12, 12] == 0.0
        np.testing.assert_array_equal(form.h[:9, :9], np.zeros((9, 9)))

    def test_zero_at_truth(self):
        truth, corrs = generate_absolute_scene(SceneConfig(seed=21))
        form = build_gpnp_form(corrs)
        scale = float(np.linalg.norm(form.h[:9, :9])) + abs(form.h[12, 12]) + 1.0
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
        for v in corrs.bearings:
            q = np.eye(3) - np.outer(v, v)
            np.testing.assert_allclose(q @ q, q, atol=1e-12)

    def test_closed_form_translation_on_clean_data(self):
        for seed in range(10):
            truth, corrs = generate_absolute_scene(SceneConfig(seed=seed))
            form = build_gpnp_form(corrs)
            t = form.closed_form_translation(truth.rotation)
            assert np.linalg.norm(t - truth.translation) < 1e-9

    def test_empty_raises(self):
        with pytest.raises(PoseSolverError, match="no point-ray correspondences"):
            build_gpnp_form(PointRaySet(*np.empty((3, 0, 3))))

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
        corrs = PointRaySet(np.tile([5.0, 0, 0], (3, 1)), np.eye(3), 0.1 * np.eye(3))
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
            corrs = PointRaySet(
                np.array([rotation.T @ (x - translation) for x in cam]), bearings, offsets)
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
        corrs = PointRaySet([[0.0, 0.0, float(3 + i)] for i in range(5)],
                            np.tile(bearing, (5, 1)), np.zeros((5, 3)))
        with pytest.raises(PoseSolverError, match="lost column rank"):
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
        for i, (point, offset) in enumerate(zip(corrs.points, corrs.offsets)):
            cam_point = truth.rotation @ point + truth.translation
            true_depth = float(np.linalg.norm(cam_point - offset))
            assert got[i] == pytest.approx(true_depth, abs=1e-9)

    def test_central_point_at_distance(self):
        truth, corrs = generate_absolute_scene(SceneConfig(seed=2, rig="central"))
        depth = eliminated_depths(corrs, truth.rotation, truth.translation)[0]
        cam_point = truth.rotation @ corrs.points[0] + truth.translation
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
            expected = np.array([a * bearing + offset - rotation @ point - translation
                                 for a, point, bearing, offset
                                 in zip(alpha, corrs.points, corrs.bearings,
                                        corrs.offsets)])
            np.testing.assert_allclose(
                eliminated_residuals(corrs, rotation, translation), expected,
                atol=1e-9)


class TestBuildUpnpForm:
    def test_zero_at_truth(self):
        truth, corrs = generate_absolute_scene(SceneConfig(seed=31))
        form = build_upnp_form(corrs)
        scale = float(np.linalg.norm(form.h[:9, :9])) + abs(form.h[12, 12]) + 1.0
        assert abs(form.value(truth.rotation, truth.translation)) < 1e-12 * scale

    def test_m_tt_is_scaled_identity(self):
        _, corrs = generate_absolute_scene(SceneConfig(seed=5))
        form = build_upnp_form(corrs)
        np.testing.assert_array_equal(form.h[9:12, 9:12], float(len(corrs)) * np.eye(3))

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
            for i, (point, bearing, offset) in enumerate(
                    zip(corrs.points, corrs.bearings, corrs.offsets)):
                alpha = depths[i]
                eta = (alpha * bearing + offset - rotation @ point - translation)
                expected += float(eta @ eta)
            assert form.value(rotation, translation) == pytest.approx(
                expected, rel=1e-9)

    def test_rank_deficiency_propagates(self):
        bearing = np.array([1.0, 0.0, 0.0])
        corrs = PointRaySet([[float(i + 2), 0.0, 0.0] for i in range(4)],
                            np.tile(bearing, (4, 1)), np.zeros((4, 3)))
        with pytest.raises(PoseSolverError, match="lost column rank"):
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


def linear_seeded_solve(form):
    seed = init_absolute_linear(form)
    return solve_amm(form, seed.translation, rotation_init=seed.rotation).pose


class TestWorldSimilarity:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), angle=st.floats(0.0, np.pi),
           log_scale=st.floats(-4.0, 4.0))
    def test_solution_follows_world_similarity(self, seed, angle, log_scale):
        # Moving the world by p -> sQp + u and the rig offsets by s leaves
        # every bearing as it is, so the pose (R, t) becomes
        # (RQ', st - RQ'u). The shift u is drawn in the moved scene's units:
        # a shift far beyond the scene's extent costs precision in the folds.
        rng = np.random.default_rng(seed)
        axis = rng.normal(size=3)
        q = rodrigues_step(axis / np.linalg.norm(axis), angle)
        s = 10.0 ** log_scale
        u = s * rng.uniform(-10.0, 10.0, size=3)
        for rig in (RIG_CENTRAL, RIG_NON_CENTRAL):
            _, corrs = generate_absolute_scene(
                SceneConfig(seed=seed, rig=rig, noise_sigma_px=2.0))
            moved = PointRaySet(s * corrs.points @ q.T + u, corrs.bearings,
                                s * corrs.offsets)
            for build in (build_gpnp_form, build_upnp_form):
                base = linear_seeded_solve(build(corrs))
                pose = linear_seeded_solve(build(moved))
                rotation = base.rotation @ q.T
                translation = s * base.translation - rotation @ u
                assert np.abs(pose.rotation - rotation).max() <= 1e-12
                bound = 1e-12 * s * max(1.0, np.linalg.norm(translation) / s)
                assert np.abs(pose.translation - translation).max() <= bound
