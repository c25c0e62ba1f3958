import numpy as np
import pytest

from conftest import (assert_block_quadrics_match, fd_rotation_gradient,
                      fd_translation_gradient, random_pose_arrays,
                      relative_gradient_error)
from poseamm.bench import SceneConfig, generate_relative_scene
from poseamm.exceptions import PoseSolverError
from poseamm.geometry import skew, unvec, vec
from poseamm.objectives import GecForm
from poseamm.relative import RayPairSet, build_gec_form, gec_rows

gec_phi = GecForm(np.zeros((18, 18))).phi   # phi does not depend on H


def block_matrix(rotation, translation):
    """The 6x6 constraint matrix [[E, R], [R, 0]] with E = skew(t) R."""
    out = np.zeros((6, 6))
    out[:3, :3] = skew(translation) @ rotation
    out[:3, 3:] = rotation
    out[3:, :3] = rotation
    return out


def line_pairs(corrs):
    """The Plücker 6-vectors (l1, l2) = ((d1; m1), (d2; m2)) of each row."""
    return [(np.concatenate([d1, m1]), np.concatenate([d2, m2]))
            for d1, m1, d2, m2 in zip(corrs.d1, corrs.m1, corrs.d2, corrs.m2)]


def direct_residual(l1, l2, rotation, translation):
    return float(l1 @ block_matrix(rotation, translation) @ l2)


def random_line(rng):
    """(direction, moment) of a line through a random point, any direction."""
    point = rng.uniform(-3, 3, size=3)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return direction, np.cross(point, direction)


def random_pairs(rng, n):
    """A set of n correspondences between independent random lines."""
    rows = [random_line(rng) + random_line(rng) for _ in range(n)]
    return RayPairSet(*(np.array(column) for column in zip(*rows)))


class TestBuildGecVector:
    def test_single_kronecker_entry(self):
        # Unit directions along x and y with zero moments select the one
        # bilinear term E[0, 1], the fourth entry of vec(E).
        corr = RayPairSet([[1.0, 0, 0]], np.zeros((1, 3)), [[0.0, 1.0, 0]],
                          np.zeros((1, 3)))
        expected = np.zeros(18)
        expected[3] = 1.0
        np.testing.assert_array_equal(gec_rows(corr)[0], expected)

    def test_matches_direct_bilinear_form(self, rng):
        for _ in range(50):
            corr = random_pairs(rng, 1)
            rotation, translation = random_pose_arrays(rng)
            v = gec_phi(rotation, translation)
            direct = direct_residual(*line_pairs(corr)[0], rotation, translation)
            a = gec_rows(corr)[0]
            assert abs(a @ v - direct) < 1e-12 * max(1.0, abs(direct))

    def test_zero_residual_at_truth(self):
        truth, corrs = generate_relative_scene(SceneConfig(seed=8))
        v = gec_phi(truth.rotation, truth.translation)
        for i in range(len(corrs)):
            assert abs(gec_rows(corrs[i:i + 1])[0] @ v) < 1e-10


class TestBuildGecForm:
    def test_single_correspondence_rank_one(self, rng):
        form = build_gec_form(random_pairs(rng, 1))
        assert np.linalg.matrix_rank(form.h) == 1

    def test_empty_raises(self):
        with pytest.raises(PoseSolverError, match="no ray correspondences"):
            build_gec_form(RayPairSet(*np.empty((4, 0, 3))))

    def test_zero_at_truth_on_clean_data(self):
        # The correspondence-wise sum of squared residuals carries the
        # "sum of squared zeros" bound; the accumulated 18x18 quadric sits
        # at the float64 evaluation floor of roughly 1e-17 relative.
        for seed in range(5):
            truth, corrs = generate_relative_scene(SceneConfig(seed=seed))
            form = build_gec_form(corrs)
            v = gec_phi(truth.rotation, truth.translation)
            scale = float(np.linalg.norm(form.h)) * float(v @ v)
            summed = sum(float(gec_rows(corrs[i:i + 1])[0] @ v) ** 2
                         for i in range(len(corrs)))
            assert summed < 1e-18 * scale
            assert form.value(truth.rotation, truth.translation) < 1e-12 * scale

    def test_matches_per_correspondence_accumulation(self, rng):
        corrs = random_pairs(rng, 12)
        form = build_gec_form(corrs)
        v = rng.normal(size=18)
        expected = sum(float(gec_rows(corrs[i:i + 1])[0] @ v) ** 2
                       for i in range(len(corrs)))
        assert float(v @ form.h @ v) == pytest.approx(expected, rel=1e-12)


class TestGecValue:
    def test_zero_translation_uses_rotation_block(self, rng):
        corrs = random_pairs(rng, 8)
        form = build_gec_form(corrs)
        rotation, _ = random_pose_arrays(rng)
        r = vec(rotation)
        expected = float(r @ form.h[9:, 9:] @ r)
        assert form.value(rotation, np.zeros(3)) == pytest.approx(expected, rel=1e-12)

    def test_zero_at_truth(self):
        truth, corrs = generate_relative_scene(SceneConfig(seed=13))
        form = build_gec_form(corrs)
        scale = float(np.linalg.norm(form.h)) + 1.0
        assert form.value(truth.rotation, truth.translation) < 1e-12 * scale

    def test_matches_raw_residual_sum(self, rng):
        for seed in range(20):
            _, corrs = generate_relative_scene(
                SceneConfig(seed=seed, noise_sigma_px=3.0))
            form = build_gec_form(corrs)
            rotation, translation = random_pose_arrays(rng)
            expected = sum(direct_residual(l1, l2, rotation, translation) ** 2
                           for l1, l2 in line_pairs(corrs))
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
        # reduces to the rotation-block rows of H phi.
        corrs = random_pairs(rng, 8)
        form = build_gec_form(corrs)
        rotation, _ = random_pose_arrays(rng)
        v = gec_phi(rotation, np.zeros(3))
        expected = unvec(2.0 * (form.h @ v)[9:])
        np.testing.assert_allclose(form.rotation_gradient(rotation, np.zeros(3)),
                                   expected, atol=1e-12)

    def test_identity_rotation_jacobian_blocks(self, rng):
        # At R = I the translation Jacobian blocks are skew(e1..e3).
        corrs = random_pairs(rng, 8)
        form = build_gec_form(corrs)
        translation = rng.normal(size=3)
        v = gec_phi(np.eye(3), translation)
        mv = form.h @ v
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
        v = gec_phi(rotation, translation)
        lift = np.vstack([np.kron(np.eye(3), skew(translation)), np.eye(9)])
        np.testing.assert_allclose(lift @ vec(rotation), v, atol=1e-14)
        s_r = -np.vstack([skew(rotation[:, j]) for j in range(3)])
        np.testing.assert_allclose(s_r @ translation, v[:9], atol=1e-14)


def kron_rotation_quadric(m, translation):
    """(L_t'M L_t, 0, 0) with the lift built by np.kron, as first written."""
    lift = np.vstack([np.kron(np.eye(3), skew(translation)), np.eye(9)])
    p = lift.T @ m @ lift
    return 0.5 * (p + p.T), np.zeros(9), 0.0


def stacked_translation_quadric(m, rotation):
    """(S'M_EE S, 2 S'M_ER r, r'M_RR r) with S stacked from skew blocks."""
    s = -np.vstack([skew(rotation[:, 0]), skew(rotation[:, 1]),
                    skew(rotation[:, 2])])
    r = vec(rotation)
    a = s.T @ m[:9, :9] @ s
    return 0.5 * (a + a.T), 2.0 * (s.T @ (m[:9, 9:] @ r)), float(r @ (m[9:, 9:] @ r))


class TestGecQuadricsMatchKronFormula:
    @pytest.mark.parametrize("n", [17, 20, 500])
    @pytest.mark.parametrize("source", ["scene", "random"])
    def test_match(self, rng, n, source):
        for trial in range(5):
            if source == "scene":
                _, corrs = generate_relative_scene(SceneConfig(
                    seed=trial, num_correspondences=n, noise_sigma_px=2.0), rng)
            else:
                corrs = random_pairs(rng, n)
            form = build_gec_form(corrs)
            rotation, translation = random_pose_arrays(rng, extent=3.0)
            for got, want in ((form.rotation_quadric(translation),
                               kron_rotation_quadric(form.h, translation)),
                              (form.translation_quadric(rotation),
                               stacked_translation_quadric(form.h, rotation))):
                for part, reference in zip(got, want):
                    assert (np.linalg.norm(np.asarray(part) - reference)
                            <= 1e-12 * np.linalg.norm(reference))


class TestScaleBehaviour:
    def test_central_data_value_invariant_to_translation_scale(self):
        # All rays through a common center: the objective at the true
        # rotation cannot see the translation magnitude. The exact zero is
        # measured through the accumulated quadric, hence the scaled bound.
        for seed in range(10):
            truth, corrs = generate_relative_scene(
                SceneConfig(seed=seed, rig="central"))
            form = build_gec_form(corrs)
            v = gec_phi(truth.rotation, truth.translation)
            scale = float(np.linalg.norm(form.h)) * max(1.0, float(v @ v))
            for lam in (0.5, 2.0):
                value = form.value(truth.rotation, lam * truth.translation)
                assert value < 1e-15 * scale

