import numpy as np
import pytest

from conftest import (assert_block_quadrics_match, fd_rotation_gradient,
                      fd_translation_gradient, random_pose_arrays, random_rotation,
                      relative_gradient_error)
from poseamm.absolute import build_gpnp_form, build_upnp_form, gpnp_rows, upnp_rows
from poseamm.bench import SceneConfig, generate_absolute_scene, generate_relative_scene
from poseamm.exceptions import PoseSolverError
from poseamm.geometry import vec
from poseamm.objectives import ABSOLUTE_LIFT, GEC_LIFT, QuadricForm
from poseamm.relative import build_gec_form, gec_rows


def term_by_term_value(form, rotation, translation):
    """Independent expansion of phi'H phi, phi = [vec(R); t; 1], plain loops."""
    phi = [rotation[i, j] for j in range(3) for i in range(3)]  # column major
    phi += list(translation) + [1.0]
    return sum(phi[i] * form.h[i, j] * phi[j] for i in range(13) for j in range(13))


def absolute_form(rr=None, tt=None, t1=None, const=0.0):
    """An absolute form from its r-r, t-t, t-1 and 1-1 blocks, the rest zero."""
    h = np.zeros((13, 13))
    if rr is not None:
        h[:9, :9] = rr
    if tt is not None:
        h[9:12, 9:12] = tt
    if t1 is not None:
        h[9:12, 12] = h[12, 9:12] = t1
    h[12, 12] = const
    return QuadricForm(h, ABSOLUTE_LIFT)


def random_form(rng, scale=1.0, lift=ABSOLUTE_LIFT):
    b = rng.normal(size=(lift.size + 7, lift.size))
    return QuadricForm(scale * (b.T @ b) / lift.size, lift)


class TestQuadraticValue:
    def test_zero_form_is_zero(self, rng):
        form = QuadricForm(np.zeros((13, 13)), ABSOLUTE_LIFT)
        r, t = random_pose_arrays(rng)
        assert form.value(r, t) == 0.0

    def test_zero_at_truth_on_clean_data(self):
        truth, corrs = generate_absolute_scene(SceneConfig(seed=4))
        form = build_gpnp_form(corrs)
        scale = float(np.linalg.norm(form.h[:9, :9])) + abs(form.h[12, 12]) + 1.0
        assert abs(form.value(truth.rotation, truth.translation)) < 1e-12 * scale

    def test_matches_term_by_term_oracle(self, rng):
        for _ in range(20):
            form = random_form(rng)
            r, t = random_pose_arrays(rng)
            expected = term_by_term_value(form, r, t)
            assert form.value(r, t) == pytest.approx(expected, rel=1e-12)


class TestQuadraticGradients:
    def test_zero_form_gradients(self, rng):
        form = QuadricForm(np.zeros((13, 13)), ABSOLUTE_LIFT)
        r, t = random_pose_arrays(rng)
        np.testing.assert_array_equal(form.rotation_gradient(r, t), np.zeros((3, 3)))
        np.testing.assert_array_equal(form.translation_gradient(r, t), np.zeros(3))

    def test_pure_quadratic_rotation_gradient(self, rng):
        form = absolute_form(rr=np.eye(9))
        r, t = random_pose_arrays(rng)
        np.testing.assert_allclose(form.rotation_gradient(r, t), 2.0 * r, atol=1e-14)

    def test_identity_translation_gradient(self):
        form = absolute_form(tt=np.eye(3))
        grad = form.translation_gradient(np.eye(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(grad, [2.0, 4.0, 6.0], atol=1e-15)

    def test_finite_difference_match(self, rng):
        for trial in range(100):
            form = random_form(rng, lift=(ABSOLUTE_LIFT, GEC_LIFT)[trial % 2])
            r, t = random_pose_arrays(rng)
            err_r = relative_gradient_error(form.rotation_gradient(r, t),
                                            fd_rotation_gradient(form, r, t))
            err_t = relative_gradient_error(form.translation_gradient(r, t),
                                            fd_translation_gradient(form, r, t))
            assert err_r < 1e-5
            assert err_t < 1e-5

    def test_flat_gradient_matches_matrix_shape(self, rng):
        # phi = [vec(R); t; 1] selects r, so d(phi'H phi)/dr = 2 (H phi)[:9],
        # and the 3x3 gradient is that 9-vector in column-major order.
        form = random_form(rng)
        r, t = random_pose_arrays(rng)
        flat = 2.0 * (form.h @ ABSOLUTE_LIFT.phi(r, t))[:9]
        np.testing.assert_allclose(form.rotation_gradient(r, t),
                                   flat.reshape((3, 3), order="F"), atol=1e-14)


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

    def test_absolute_quadrics_are_slices_of_h(self, rng):
        form = random_form(rng)
        r, t = random_pose_arrays(rng)
        assert np.shares_memory(form.rotation_quadric(t)[0], form.h)
        assert np.shares_memory(form.translation_quadric(r)[0], form.h)


class TestClosedFormTranslation:
    def test_isotropic_example(self):
        # ||t - e1||^2 = t't - 2 e1't + 1
        form = absolute_form(tt=np.eye(3), t1=[-1.0, 0.0, 0.0], const=1.0)
        np.testing.assert_allclose(form.closed_form_translation(np.eye(3)),
                                   [1.0, 0.0, 0.0], atol=1e-15)

    def test_gradient_vanishes_at_solution(self, rng):
        for trial in range(20):
            form = random_form(rng, lift=(ABSOLUTE_LIFT, GEC_LIFT)[trial % 2])
            r, _ = random_pose_arrays(rng)
            t_star = form.closed_form_translation(r)
            assert np.linalg.norm(form.translation_gradient(r, t_star)) < 1e-9

    def test_singular_block_raises(self):
        form = absolute_form(tt=np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(PoseSolverError, match="translation block is singular"):
            form.closed_form_translation(np.eye(3))

    def test_gec_minimizer_on_clean_data(self):
        # At the true rotation the GEC objective vanishes at the true
        # translation, and a non-central rig pins its scale.
        for seed in range(5):
            truth, corrs = generate_relative_scene(SceneConfig(seed=seed))
            t = build_gec_form(corrs).closed_form_translation(truth.rotation)
            assert np.linalg.norm(t - truth.translation) < 1e-8


class TestReducedRotationQuadric:
    @pytest.mark.parametrize("rig", ["central", "non_central"])
    def test_is_the_objective_at_the_exact_translation(self, rng, rig):
        # r'Pr + q'r + k = F(R, t*(R)) for any R, with t*(R) the exact
        # translation minimizer, relative to F at the identity pose.
        for seed in range(10):
            _, corrs = generate_absolute_scene(
                SceneConfig(seed=seed, noise_sigma_px=2.0 * (seed % 3), rig=rig))
            for form in (build_gpnp_form(corrs), build_upnp_form(corrs)):
                p, q, k = form.reduced_rotation_quadric()
                np.testing.assert_array_equal(p, p.T)
                scale = form.value(np.eye(3), np.zeros(3))
                for _ in range(10):
                    rotation = random_rotation(rng)
                    r = vec(rotation)
                    exact = form.value(rotation, form.closed_form_translation(rotation))
                    assert abs(r @ p @ r + q @ r + k - exact) <= 1e-12 * scale

    def test_random_forms(self, rng):
        for _ in range(20):
            form = random_form(rng, scale=10.0 ** rng.uniform(-3, 3))
            p, q, k = form.reduced_rotation_quadric()
            rotation = random_rotation(rng)
            r = vec(rotation)
            exact = form.value(rotation, form.closed_form_translation(rotation))
            assert r @ p @ r + q @ r + k == pytest.approx(exact, rel=1e-10)

    def test_singular_block_raises(self):
        form = absolute_form(tt=np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(PoseSolverError,
                           match="^translation block is singular; no unique minimizer$"):
            form.reduced_rotation_quadric()

    def test_none_on_gec_forms(self, rng):
        _, corrs = generate_relative_scene(SceneConfig(seed=1))
        for form in (build_gec_form(corrs), random_form(rng, lift=GEC_LIFT)):
            assert getattr(form, "reduced_rotation_quadric", None) is None


class TestFormValidation:
    """A matrix passed in from outside; forms from rows skip the PSD check."""

    def test_rejects_asymmetric_m_rr(self):
        h = np.eye(13)
        h[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            QuadricForm(h, ABSOLUTE_LIFT)

    def test_rejects_indefinite_m_tt(self):
        h = np.zeros((13, 13))
        h[9:12, 9:12] = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="semidefinite"):
            QuadricForm(h, ABSOLUTE_LIFT)

    def test_rejects_bad_shapes(self):
        for h, lift in ((np.zeros((9, 9)), ABSOLUTE_LIFT),
                        (np.zeros((18, 18)), ABSOLUTE_LIFT),
                        (np.zeros((13, 13)), GEC_LIFT),
                        (np.zeros((18, 9)), GEC_LIFT),
                        (np.zeros(18), GEC_LIFT)):
            with pytest.raises(ValueError, match="H must be"):
                QuadricForm(h, lift)

    def test_rejects_asymmetric_gec(self, rng):
        m = rng.normal(size=(18, 18))
        with pytest.raises(ValueError, match="symmetric"):
            QuadricForm(m, GEC_LIFT)

    def test_rejects_indefinite_gec(self):
        with pytest.raises(ValueError, match="semidefinite"):
            QuadricForm(-np.eye(18), GEC_LIFT)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("lift", [ABSOLUTE_LIFT, GEC_LIFT], ids=["absolute", "gec"])
    def test_rejects_non_finite(self, bad, lift):
        h = np.eye(lift.size)
        h[3, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            QuadricForm(h, lift)
        rows = np.eye(lift.size)
        rows[0, 3] = bad
        with pytest.raises(ValueError, match="finite"), np.errstate(invalid="ignore"):
            QuadricForm.from_rows(rows, lift)

    def test_from_rows_rejects_wrong_width(self):
        with pytest.raises(ValueError, match="H must be 13x13"):
            QuadricForm.from_rows(np.ones((4, 18)), ABSOLUTE_LIFT)

    def test_accepts_rounding_level_asymmetry_and_keeps_symmetric_part(self, rng):
        b = rng.normal(size=(20, 18))
        h = b.T @ b
        h[0, 1] += 1e-13
        form = QuadricForm(h, GEC_LIFT)
        np.testing.assert_array_equal(form.h, form.h.T)
        assert form.h[0, 1] == 0.5 * (h[0, 1] + h[1, 0])
        assert not form.h.flags.writeable
        assert h.flags.writeable  # the caller's array is copied, not frozen

    def test_from_rows_makes_no_eigenvalue_call(self, rng, monkeypatch):
        _, abs_corrs = generate_absolute_scene(SceneConfig(seed=2))
        _, rel_corrs = generate_relative_scene(SceneConfig(seed=2))
        # upnp_rows checks its depth system with eigvalsh, so rows come first.
        rows = [(gpnp_rows(abs_corrs), ABSOLUTE_LIFT), (upnp_rows(abs_corrs), ABSOLUTE_LIFT),
                (gec_rows(rel_corrs), GEC_LIFT)]

        def forbidden(*args, **kwargs):
            raise AssertionError("eigvalsh called")
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        with pytest.raises(AssertionError):
            QuadricForm(np.eye(13), ABSOLUTE_LIFT)
        forms = [QuadricForm.from_rows(a, lift) for a, lift in rows]
        forms += [build_gpnp_form(abs_corrs), build_gec_form(rel_corrs)]
        for form in forms:
            assert not form.h.flags.writeable

    def test_coefficients_size_independent_of_data(self):
        _, few = generate_absolute_scene(SceneConfig(seed=1, num_correspondences=5))
        _, many = generate_absolute_scene(SceneConfig(seed=1, num_correspondences=200))
        small = build_gpnp_form(few)
        large = build_gpnp_form(many)
        assert small.h.shape == large.h.shape == (13, 13)
        for form in (small, large):
            p, q, _ = form.rotation_quadric(np.zeros(3))
            a, b, _ = form.translation_quadric(np.eye(3))
            assert (p.shape, q.shape, a.shape, b.shape) == ((9, 9), (9,), (3, 3), (3,))
