import numpy as np
import pytest

from conftest import random_rotation
from poseamm.exceptions import PoseSolverError
from poseamm.geometry import (Pose, check_rows, line_faults, project_to_so3,
                              ray_faults, rodrigues_step, row_dots, row_norms,
                              skew, unskew, unvec, vec)


class TestSkew:
    def test_definition(self):
        np.testing.assert_array_equal(
            skew([1, 2, 3]),
            [[0, -3, 2], [3, 0, -1], [-2, 1, 0]])

    def test_zero(self):
        np.testing.assert_array_equal(skew([0, 0, 0]), np.zeros((3, 3)))

    def test_cross_product_identity(self):
        e1, e2, e3 = np.eye(3)
        np.testing.assert_array_equal(skew(e1) @ e2, e3)

    def test_matches_cross_product(self, rng):
        for _ in range(50):
            v, w = rng.normal(size=3), rng.normal(size=3)
            np.testing.assert_allclose(skew(v) @ w, np.cross(v, w), atol=1e-14)

    def test_exactly_antisymmetric(self, rng):
        for _ in range(100):
            s = skew(rng.normal(size=3))
            assert np.all(s + s.T == 0.0)


class TestUnskew:
    def test_inverse_of_skew(self):
        np.testing.assert_array_equal(
            unskew([[0, -3, 2], [3, 0, -1], [-2, 1, 0]]), [1, 2, 3])

    def test_zero(self):
        np.testing.assert_array_equal(unskew(np.zeros((3, 3))), np.zeros(3))

    def test_round_trip_random(self, rng):
        for _ in range(100):
            v = rng.normal(size=3)
            np.testing.assert_allclose(unskew(skew(v)), v, atol=1e-15)

    def test_symmetric_part_discarded(self, rng):
        # skew(unskew(S)) must equal the antisymmetric part of S
        s = rng.normal(size=(3, 3))
        np.testing.assert_allclose(skew(unskew(s)), 0.5 * (s - s.T), atol=1e-15)


class TestRodriguesStep:
    def test_quarter_turn_about_z(self):
        expected = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
        np.testing.assert_allclose(rodrigues_step([0, 0, 1], np.pi / 2),
                                   expected, atol=1e-15)

    def test_zero_angle_is_identity(self, rng):
        axis = rng.normal(size=3)
        np.testing.assert_allclose(rodrigues_step(axis, 0.0), np.eye(3), atol=1e-15)

    def test_tiny_axis_is_identity(self):
        np.testing.assert_array_equal(rodrigues_step([0.0, 0.0, 0.0], 1.0), np.eye(3))
        np.testing.assert_array_equal(rodrigues_step([1e-15, 0, 0], 1.0), np.eye(3))

    def test_group_property(self):
        twice = rodrigues_step([0, 0, 1], np.pi / 3) @ rodrigues_step([0, 0, 1], np.pi / 3)
        np.testing.assert_allclose(twice, rodrigues_step([0, 0, 1], 2 * np.pi / 3),
                                   atol=1e-14)

    def test_angle_scales_with_axis_norm(self, rng):
        axis = rng.normal(size=3)
        np.testing.assert_allclose(rodrigues_step(2.0 * axis, 0.3),
                                   rodrigues_step(axis, 0.6), atol=1e-13)

    def test_random_outputs_are_rotations(self, rng):
        for _ in range(1000):
            r = rodrigues_step(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
            assert np.linalg.norm(r @ r.T - np.eye(3)) < 1e-9
            assert abs(np.linalg.det(r) - 1.0) < 1e-9


class TestProjectToSo3:
    def test_scaled_identity(self):
        np.testing.assert_allclose(project_to_so3(2.0 * np.eye(3)), np.eye(3),
                                   atol=1e-15)

    def test_fixes_rotations(self, rng):
        for _ in range(20):
            r = random_rotation(rng)
            np.testing.assert_allclose(project_to_so3(r), r, atol=1e-12)

    def test_idempotent(self, rng):
        for _ in range(20):
            b = rng.normal(size=(3, 3))
            once = project_to_so3(b)
            np.testing.assert_allclose(project_to_so3(once), once, atol=1e-12)

    def test_recovers_noisy_rotation_beats_sampling(self, rng):
        # The SVD projection must not be farther from B than any sampled
        # rotation (brute-force check of the nearest-rotation property).
        r = random_rotation(rng)
        b = r + 1e-3 * rng.normal(size=(3, 3))
        proj = project_to_so3(b)
        assert np.linalg.norm(proj - r) < 1e-2
        best = np.linalg.norm(proj - b)
        for _ in range(2000):
            candidate = random_rotation(rng)
            assert np.linalg.norm(candidate - b) >= best - 1e-12

    def test_ambiguous_projection_raises(self):
        with pytest.raises(PoseSolverError, match="nearest rotation is not unique"):
            project_to_so3(np.diag([2.0, 1.0, -1.0]))


class TestVecKron:
    def test_vec_is_column_major(self):
        m = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        np.testing.assert_array_equal(vec(m), [1, 4, 7, 2, 5, 8, 3, 6, 9])

    def test_vec_identity_entries(self):
        assert vec(np.eye(3))[0] == 1.0
        assert vec(np.eye(3))[1] == 0.0

    def test_unvec_inverts_vec(self, rng):
        m = rng.normal(size=(3, 3))
        np.testing.assert_array_equal(unvec(vec(m)), m)

    def test_kron_basis(self):
        np.testing.assert_array_equal(np.kron([1, 0], [0, 1]), [0, 1, 0, 0])

    def test_kron_unit_vectors_six_dimensional(self):
        e2 = np.zeros(6)
        e2[1] = 1.0
        e1 = np.zeros(6)
        e1[0] = 1.0
        expected = np.zeros(36)
        expected[6] = 1.0
        np.testing.assert_array_equal(np.kron(e2, e1), expected)

    def test_kron_vec_identity(self, rng):
        # (a' kron b') vec(M) == b' M a
        for _ in range(50):
            m = rng.normal(size=(3, 3))
            a, b = rng.normal(size=3), rng.normal(size=3)
            np.testing.assert_allclose(np.kron(a, b) @ vec(m), b @ m @ a,
                                       atol=1e-12)

    def test_kron_vec_rotation_identity(self, rng):
        # (x' kron I) vec(R) == R x
        for _ in range(50):
            r = rng.normal(size=(3, 3))
            x = rng.normal(size=3)
            np.testing.assert_allclose(np.kron(x, np.eye(3)) @ vec(r), r @ x,
                                       atol=1e-12)

    def test_kron_block_identity(self, rng):
        # (x' kron Q) vec(R) == Q R x, the workhorse of every form builder
        for _ in range(50):
            q = rng.normal(size=(3, 3))
            r = rng.normal(size=(3, 3))
            x = rng.normal(size=3)
            np.testing.assert_allclose(np.kron(x, q) @ vec(r), q @ r @ x,
                                       atol=1e-12)


class TestDomainTypes:
    def test_pose_accepts_valid(self, rng):
        pose = Pose(random_rotation(rng), rng.normal(size=3))
        assert pose.rotation.shape == (3, 3)

    def test_pose_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 1.01, np.zeros(3))

    def test_pose_rejects_reflection(self):
        with pytest.raises(ValueError):
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_pose_rejects_nonfinite_translation(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3), np.array([np.nan, 0.0, 0.0]))

    def test_pose_identity(self):
        pose = Pose.identity()
        np.testing.assert_array_equal(pose.rotation, np.eye(3))
        np.testing.assert_array_equal(pose.translation, np.zeros(3))


def flagged(faults):
    """(message, flagged row indices) for each ordered check."""
    return [(message, np.flatnonzero(mask).tolist()) for mask, message in faults]


class TestRowFaults:
    """The vectorized value checks that the correspondence sets run: one
    boolean mask per check over the rows, in order."""

    def test_row_dots_match_single_pair_dot(self, rng):
        a = rng.normal(size=(200, 3))
        b = rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-8, 8, size=(200, 1))
        dots = row_dots(a, b)
        norms = row_norms(a)
        for i in range(200):
            assert dots[i] == np.dot(a[i], b[i])
            assert norms[i] == np.linalg.norm(a[i])

    def test_ray_faults_flag_non_unit_bearing(self):
        bearings = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [0.6, 0.8, 0.0]])
        assert flagged(ray_faults(bearings, np.zeros((3, 3)))) == [
            ("ray entries must be finite", []),
            ("bearing must be unit length", [1])]

    def test_line_faults_flag_non_unit_direction(self):
        directions = np.array([[2.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert flagged(line_faults(directions, np.zeros((2, 3)))) == [
            ("line entries must be finite", []),
            ("direction must be unit length", [0]),
            ("moment must be orthogonal to the direction", [])]

    def test_line_faults_flag_constraint_violation(self):
        directions = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        moments = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0]])
        assert flagged(line_faults(directions, moments)) == [
            ("line entries must be finite", []),
            ("direction must be unit length", []),
            ("moment must be orthogonal to the direction", [1])]

    def test_line_of_point_and_direction_passes_line_checks(self, rng):
        # The Plücker line through p with unit direction d has moment p x d.
        points = rng.normal(size=(50, 3)) * 10.0
        directions = rng.normal(size=(50, 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        faults = line_faults(directions, np.cross(points, directions))
        assert all(rows == [] for _, rows in flagged(faults))
        check_rows(faults)

    def test_check_rows_reports_first_row_then_first_check(self):
        first = np.array([False, False, True])
        second = np.array([False, True, True])
        with pytest.raises(ValueError, match="^second$"):
            check_rows([(first, "first"), (second, "second")])
        # Row 2 fails both checks: the earlier check's message wins.
        with pytest.raises(ValueError, match="^first$"):
            check_rows([(first, "first"), (first.copy(), "second")])
        check_rows([(np.zeros(3, bool), "first")])
