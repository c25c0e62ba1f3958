import numpy as np
import pytest

from conftest import (assert_block_quadrics_match, fd_rotation_gradient,
                      fd_translation_gradient, random_pose_arrays,
                      relative_gradient_error)
from poseamm.absolute import build_gpnp_form, build_upnp_form
from poseamm.bench import SceneConfig, generate_absolute_scene
from poseamm.exceptions import SingularTranslationSystem
from poseamm.objectives import QuadraticPoseForm


def term_by_term_value(form, rotation, translation):
    """Independent expansion of the six-term quadratic, plain loops."""
    r = [rotation[i, j] for j in range(3) for i in range(3)]  # column major
    t = list(translation)
    total = form.c
    for i in range(9):
        total += form.v_r[i] * r[i]
        for j in range(9):
            total += r[i] * form.m_rr[i, j] * r[j]
    for a in range(3):
        total += form.v_t[a] * t[a]
        for i in range(9):
            total += t[a] * form.m_tr[a, i] * r[i]
        for b in range(3):
            total += t[a] * form.m_tt[a, b] * t[b]
    return total


def random_form(rng, scale=1.0):
    a = rng.normal(size=(9, 9))
    b = rng.normal(size=(3, 3))
    m_rr = scale * (a.T @ a) / 9.0
    m_tt = scale * (b.T @ b) / 3.0
    return QuadraticPoseForm(
        m_rr=0.5 * (m_rr + m_rr.T), v_r=rng.normal(size=9),
        m_tr=rng.normal(size=(3, 9)), m_tt=0.5 * (m_tt + m_tt.T),
        v_t=rng.normal(size=3), c=float(rng.uniform(0.0, 2.0)))


class TestQuadraticValue:
    def test_zero_form_is_zero(self, rng):
        form = QuadraticPoseForm.zero()
        r, t = random_pose_arrays(rng)
        assert form.value(r, t) == 0.0

    def test_zero_at_truth_on_clean_data(self):
        truth, corrs = generate_absolute_scene(SceneConfig(seed=4))
        form = build_gpnp_form(corrs)
        scale = float(np.linalg.norm(form.m_rr)) + abs(form.c) + 1.0
        assert abs(form.value(truth.rotation, truth.translation)) < 1e-12 * scale

    def test_matches_term_by_term_oracle(self, rng):
        for _ in range(20):
            form = random_form(rng)
            r, t = random_pose_arrays(rng)
            expected = term_by_term_value(form, r, t)
            assert form.value(r, t) == pytest.approx(expected, rel=1e-12)


class TestQuadraticGradients:
    def test_zero_form_gradients(self, rng):
        form = QuadraticPoseForm.zero()
        r, t = random_pose_arrays(rng)
        np.testing.assert_array_equal(form.rotation_gradient(r, t), np.zeros((3, 3)))
        np.testing.assert_array_equal(form.translation_gradient(r, t), np.zeros(3))

    def test_pure_quadratic_rotation_gradient(self, rng):
        form = QuadraticPoseForm(np.eye(9), np.zeros(9), np.zeros((3, 9)),
                                 np.zeros((3, 3)), np.zeros(3), 0.0)
        r, t = random_pose_arrays(rng)
        np.testing.assert_allclose(form.rotation_gradient(r, t), 2.0 * r, atol=1e-14)

    def test_identity_translation_gradient(self):
        form = QuadraticPoseForm(np.zeros((9, 9)), np.zeros(9), np.zeros((3, 9)),
                                 np.eye(3), np.zeros(3), 0.0)
        grad = form.translation_gradient(np.eye(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(grad, [2.0, 4.0, 6.0], atol=1e-15)

    def test_finite_difference_match(self, rng):
        for _ in range(100):
            form = random_form(rng)
            r, t = random_pose_arrays(rng)
            err_r = relative_gradient_error(form.rotation_gradient(r, t),
                                            fd_rotation_gradient(form, r, t))
            err_t = relative_gradient_error(form.translation_gradient(r, t),
                                            fd_translation_gradient(form, r, t))
            assert err_r < 1e-5
            assert err_t < 1e-5

    def test_flat_gradient_matches_matrix_shape(self, rng):
        form = random_form(rng)
        r, t = random_pose_arrays(rng)
        flat = form.rotation_gradient_flat(r, t)
        np.testing.assert_allclose(form.rotation_gradient(r, t),
                                   flat.reshape((3, 3), order="F"), atol=1e-15)


class TestBlockQuadrics:
    def test_random_forms(self, rng):
        for _ in range(20):
            form = random_form(rng)
            assert_block_quadrics_match(form, *random_pose_arrays(rng))

    def test_gpnp_and_upnp_forms(self, rng):
        for seed in range(10):
            _, corrs = generate_absolute_scene(
                SceneConfig(seed=seed, noise_sigma_px=3.0,
                            rig="central" if seed % 2 else "non_central"))
            for form in (build_gpnp_form(corrs), build_upnp_form(corrs)):
                assert_block_quadrics_match(form, *random_pose_arrays(rng))


class TestClosedFormTranslation:
    def test_isotropic_example(self):
        form = QuadraticPoseForm(np.zeros((9, 9)), np.zeros(9), np.zeros((3, 9)),
                                 np.eye(3), np.array([-2.0, 0.0, 0.0]), 1.0)
        np.testing.assert_allclose(form.closed_form_translation(np.eye(3)),
                                   [1.0, 0.0, 0.0], atol=1e-15)

    def test_gradient_vanishes_at_solution(self, rng):
        for _ in range(20):
            form = random_form(rng)
            r, _ = random_pose_arrays(rng)
            t_star = form.closed_form_translation(r)
            assert np.linalg.norm(form.translation_gradient(r, t_star)) < 1e-9

    def test_singular_block_raises(self):
        form = QuadraticPoseForm(np.zeros((9, 9)), np.zeros(9), np.zeros((3, 9)),
                                 np.diag([1.0, 1.0, 0.0]), np.zeros(3), 0.0)
        with pytest.raises(SingularTranslationSystem):
            form.closed_form_translation(np.eye(3))


class TestFormValidation:
    def test_rejects_asymmetric_m_rr(self, rng):
        m = rng.normal(size=(9, 9))
        m[0, 1] = m[1, 0] + 1.0
        with pytest.raises(ValueError):
            QuadraticPoseForm(m, np.zeros(9), np.zeros((3, 9)), np.eye(3),
                              np.zeros(3), 0.0)

    def test_rejects_indefinite_m_tt(self):
        with pytest.raises(ValueError):
            QuadraticPoseForm(np.zeros((9, 9)), np.zeros(9), np.zeros((3, 9)),
                              np.diag([1.0, 1.0, -1.0]), np.zeros(3), 0.0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            QuadraticPoseForm(np.zeros((3, 3)), np.zeros(9), np.zeros((3, 9)),
                              np.eye(3), np.zeros(3), 0.0)

    def test_coefficients_size_independent_of_data(self):
        _, few = generate_absolute_scene(SceneConfig(seed=1, num_correspondences=5))
        _, many = generate_absolute_scene(SceneConfig(seed=1, num_correspondences=200))
        small = build_gpnp_form(few)
        large = build_gpnp_form(many)
        assert small.m_rr.shape == large.m_rr.shape == (9, 9)
        assert small.m_tr.shape == large.m_tr.shape == (3, 9)
