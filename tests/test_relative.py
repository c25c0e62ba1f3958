import numpy as np
import pytest

from conftest import (assert_block_quadrics_match, fd_rotation_gradient,
                      fd_translation_gradient, random_pose_arrays,
                      relative_gradient_error)
from poseamm.bench import SceneConfig, generate_relative_scene
from poseamm.exceptions import EmptyData
from poseamm.geometry import PlueckerLine, skew, unvec, vec
from poseamm.relative import (GecForm, RayCorrespondence, build_gec_form,
                              gec_rows)


def block_matrix(rotation, translation):
    """The 6x6 constraint matrix [[E, R], [R, 0]] with E = skew(t) R."""
    out = np.zeros((6, 6))
    out[:3, :3] = skew(translation) @ rotation
    out[:3, 3:] = rotation
    out[3:, :3] = rotation
    return out


def direct_residual(corr, rotation, translation):
    return float(corr.line1.as_vector()
                 @ block_matrix(rotation, translation)
                 @ corr.line2.as_vector())


def random_line(rng):
    return PlueckerLine.through_point(rng.uniform(-3, 3, size=3),
                                      rng.normal(size=3))


def random_correspondence(rng):
    return RayCorrespondence(random_line(rng), random_line(rng))


class TestBuildGecVector:
    def test_single_kronecker_entry(self):
        # Unit directions along x and y with zero moments select the one
        # bilinear term E[0, 1], the fourth entry of vec(E).
        corr = RayCorrespondence(
            PlueckerLine(np.array([1.0, 0, 0]), np.zeros(3)),
            PlueckerLine(np.array([0.0, 1.0, 0]), np.zeros(3)))
        expected = np.zeros(18)
        expected[3] = 1.0
        np.testing.assert_array_equal(gec_rows([corr])[0], expected)

    def test_matches_direct_bilinear_form(self, rng):
        for _ in range(50):
            corr = random_correspondence(rng)
            rotation, translation = random_pose_arrays(rng)
            form = GecForm(np.zeros((18, 18)))
            v = form.stacked_variable(rotation, translation)
            direct = direct_residual(corr, rotation, translation)
            a = gec_rows([corr])[0]
            assert abs(a @ v - direct) < 1e-12 * max(1.0, abs(direct))

    def test_zero_residual_at_truth(self):
        truth, corrs = generate_relative_scene(SceneConfig(seed=8))
        form = GecForm(np.zeros((18, 18)))
        v = form.stacked_variable(truth.rotation, truth.translation)
        for corr in corrs:
            assert abs(gec_rows([corr])[0] @ v) < 1e-10


class TestBuildGecForm:
    def test_single_correspondence_rank_one(self, rng):
        form = build_gec_form([random_correspondence(rng)])
        assert np.linalg.matrix_rank(form.m) == 1

    def test_empty_raises(self):
        with pytest.raises(EmptyData):
            build_gec_form([])

    def test_zero_at_truth_on_clean_data(self):
        # The correspondence-wise sum of squared residuals carries the
        # "sum of squared zeros" bound; the accumulated 18x18 quadric sits
        # at the float64 evaluation floor of roughly 1e-17 relative.
        for seed in range(5):
            truth, corrs = generate_relative_scene(SceneConfig(seed=seed))
            form = build_gec_form(corrs)
            v = form.stacked_variable(truth.rotation, truth.translation)
            scale = float(np.linalg.norm(form.m)) * float(v @ v)
            summed = sum(float(gec_rows([c])[0] @ v) ** 2 for c in corrs)
            assert summed < 1e-18 * scale
            assert form.value(truth.rotation, truth.translation) < 1e-12 * scale

    def test_matches_per_correspondence_accumulation(self, rng):
        corrs = [random_correspondence(rng) for _ in range(12)]
        form = build_gec_form(corrs)
        v = rng.normal(size=18)
        expected = sum(float(gec_rows([c])[0] @ v) ** 2 for c in corrs)
        assert float(v @ form.m @ v) == pytest.approx(expected, rel=1e-12)


class TestGecValue:
    def test_zero_translation_uses_rotation_block(self, rng):
        corrs = [random_correspondence(rng) for _ in range(8)]
        form = build_gec_form(corrs)
        rotation, _ = random_pose_arrays(rng)
        r = vec(rotation)
        expected = float(r @ form.m[9:, 9:] @ r)
        assert form.value(rotation, np.zeros(3)) == pytest.approx(expected, rel=1e-12)

    def test_zero_at_truth(self):
        truth, corrs = generate_relative_scene(SceneConfig(seed=13))
        form = build_gec_form(corrs)
        scale = float(np.linalg.norm(form.m)) + 1.0
        assert form.value(truth.rotation, truth.translation) < 1e-12 * scale

    def test_matches_raw_residual_sum(self, rng):
        for seed in range(20):
            _, corrs = generate_relative_scene(
                SceneConfig(seed=seed, noise_sigma_px=3.0))
            form = build_gec_form(corrs)
            rotation, translation = random_pose_arrays(rng)
            expected = sum(direct_residual(c, rotation, translation) ** 2
                           for c in corrs)
            assert form.value(rotation, translation) == pytest.approx(
                expected, rel=1e-10)


class TestGecGradients:
    def test_zero_form_gradients(self, rng):
        form = GecForm(np.zeros((18, 18)))
        rotation, translation = random_pose_arrays(rng)
        np.testing.assert_array_equal(form.rotation_gradient(rotation, translation),
                                      np.zeros((3, 3)))
        np.testing.assert_array_equal(
            form.translation_gradient(rotation, translation), np.zeros(3))

    def test_finite_difference_match(self, rng):
        for seed in range(100):
            _, corrs = generate_relative_scene(
                SceneConfig(seed=seed, noise_sigma_px=2.0, num_correspondences=10))
            form = build_gec_form(corrs)
            rotation, translation = random_pose_arrays(rng)
            err_r = relative_gradient_error(
                form.rotation_gradient(rotation, translation),
                fd_rotation_gradient(form, rotation, translation))
            err_t = relative_gradient_error(
                form.translation_gradient(rotation, translation),
                fd_translation_gradient(form, rotation, translation))
            assert err_r < 1e-5
            assert err_t < 1e-5

    def test_zero_translation_reduction(self, rng):
        # At t = 0 the essential-block Jacobian vanishes and the gradient
        # reduces to the rotation-block rows of M v.
        corrs = [random_correspondence(rng) for _ in range(8)]
        form = build_gec_form(corrs)
        rotation, _ = random_pose_arrays(rng)
        v = form.stacked_variable(rotation, np.zeros(3))
        expected = unvec(2.0 * (form.m @ v)[9:])
        np.testing.assert_allclose(form.rotation_gradient(rotation, np.zeros(3)),
                                   expected, atol=1e-12)

    def test_identity_rotation_jacobian_blocks(self, rng):
        # At R = I the translation Jacobian blocks are skew(e1..e3).
        corrs = [random_correspondence(rng) for _ in range(8)]
        form = build_gec_form(corrs)
        translation = rng.normal(size=3)
        v = form.stacked_variable(np.eye(3), translation)
        mv = form.m @ v
        jac = np.hstack([skew(np.eye(3)[:, i]) for i in range(3)]
                        + [np.zeros((3, 9))])
        np.testing.assert_allclose(
            form.translation_gradient(np.eye(3), translation),
            2.0 * jac @ mv, atol=1e-12)


class TestGecBlockQuadrics:
    def test_match_value_and_gradients(self, rng):
        for seed in range(20):
            _, corrs = generate_relative_scene(
                SceneConfig(seed=seed, noise_sigma_px=3.0))
            form = build_gec_form(corrs)
            assert_block_quadrics_match(form, *random_pose_arrays(rng))

    def test_lift_and_translation_jacobian(self, rng):
        # v = L_t vec(R) and vec(skew(t) R) = S_R t, the two linear maps the
        # block quadrics are built from.
        rotation, translation = random_pose_arrays(rng)
        v = GecForm(np.zeros((18, 18))).stacked_variable(rotation, translation)
        lift = np.vstack([np.kron(np.eye(3), skew(translation)), np.eye(9)])
        np.testing.assert_allclose(lift @ vec(rotation), v, atol=1e-14)
        s_r = -np.vstack([skew(rotation[:, j]) for j in range(3)])
        np.testing.assert_allclose(s_r @ translation, v[:9], atol=1e-14)


class TestScaleBehaviour:
    def test_central_data_value_invariant_to_translation_scale(self):
        # All rays through a common center: the objective at the true
        # rotation cannot see the translation magnitude. The exact zero is
        # measured through the accumulated quadric, hence the scaled bound.
        for seed in range(10):
            truth, corrs = generate_relative_scene(
                SceneConfig(seed=seed, rig="central"))
            form = build_gec_form(corrs)
            v = form.stacked_variable(truth.rotation, truth.translation)
            scale = float(np.linalg.norm(form.m)) * max(1.0, float(v @ v))
            for lam in (0.5, 2.0):
                value = form.value(truth.rotation, lam * truth.translation)
                assert value < 1e-15 * scale


class TestGecFormValidation:
    def test_rejects_asymmetric(self, rng):
        m = rng.normal(size=(18, 18))
        with pytest.raises(ValueError):
            GecForm(m)

    def test_rejects_indefinite(self):
        m = -np.eye(18)
        with pytest.raises(ValueError):
            GecForm(m)
