"""Array-backed correspondence sets: row checks, length and slicing, and
the generators that fill them."""

import math
import sys

import numpy as np
import pytest

from poseamm import PointRaySet, RayPairSet, bench
from poseamm.absolute import build_gpnp_form
from poseamm.bench import (FAMILIES, INIT_IDENTITY, INIT_LINEAR, RIG_CENTRAL,
                           RIG_NON_CENTRAL, SceneConfig, _MIN_CAMERA_DISTANCE_RATIO,
                           generate_absolute_scene,
                           generate_relative_scene, run_sweep)
from poseamm.exceptions import PoseSolverError
from poseamm.fileio import records_to_csv
from poseamm.geometry import UNIT_TOL, Pose, rodrigues_step
from poseamm.relative import build_gec_form

# The per-point helpers of the generator that built each scene one point
# at a time, frozen verbatim: the oracles below compare the shipped
# generators with this arithmetic, not with the code under test.


def _unit(v):
    return v / np.linalg.norm(v)


def _cross(a, b) -> np.ndarray:
    """a x b of two 3-vectors, with the products and differences np.cross
    forms, at a fraction of its per-call cost."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _random_unit(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        n = float(np.linalg.norm(v))
        if n > 1e-12:
            return v / n


def random_pose(rng: np.random.Generator, config: SceneConfig) -> Pose:
    """Rotation axis uniform on the sphere, angle and translation uniform."""
    axis = _random_unit(rng)
    angle = rng.uniform(0.0, config.rotation_max_angle)
    ext = config.translation_extent
    return Pose(rodrigues_step(axis, angle), rng.uniform(-ext, ext, size=3))


def apply_pixel_noise(bearing, sigma_px: float, focal_px: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Perturb a unit bearing by Gaussian pixel noise in its tangent plane.

    Independent offsets with standard deviation ``sigma_px`` are applied
    to the two tangent coordinates scaled at distance ``focal_px``, then
    the result is renormalized; per-axis angular deviation is therefore
    sigma_px / focal_px radians. Zero sigma returns the input unchanged.
    """
    b = np.asarray(bearing, dtype=float)
    if sigma_px == 0.0:
        return b
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(b)))] = 1.0
    e1 = _unit(_cross(b, helper))
    e2 = _cross(b, e1)
    dx, dy = rng.normal(0.0, sigma_px, size=2)
    return _unit(b + (dx * e1 + dy * e2) / focal_px)


def _camera_offset(rng: np.random.Generator, config: SceneConfig) -> np.ndarray:
    if config.rig == RIG_CENTRAL:
        return np.zeros(3)
    return rng.uniform(-config.rig_extent, config.rig_extent, size=3)


def record_generate_absolute(config, rng):
    """The generator loop as it was when it built one record per row, with
    each record's fields -> (truth, (points, bearings, offsets))."""
    truth = random_pose(rng, config)
    rows = []
    for _ in range(config.num_correspondences):
        offset = _camera_offset(rng, config)
        bearing = _random_unit(rng)
        depth = rng.uniform(*config.point_depth_range)
        cam_point = offset + depth * bearing
        world_point = truth.rotation.T @ (cam_point - truth.translation)
        noisy = apply_pixel_noise(bearing, config.noise_sigma_px,
                                  config.focal_px, rng)
        rows.append((world_point, noisy, offset))
    return truth, tuple(np.array(column) for column in zip(*rows))


def record_generate_relative(config, rng):
    """The generator loop as it was when it built one record per row, with
    each record's fields -> (truth, (d1, m1, d2, m2))."""
    truth = random_pose(rng, config)
    min_distance = _MIN_CAMERA_DISTANCE_RATIO * config.point_depth_range[0]
    rows = []
    for _ in range(config.num_correspondences):
        while True:
            offset1 = _camera_offset(rng, config)
            dir1 = _random_unit(rng)
            depth = rng.uniform(*config.point_depth_range)
            point1 = offset1 + depth * dir1
            point2 = truth.rotation.T @ (point1 - truth.translation)
            offset2 = _camera_offset(rng, config)
            if np.linalg.norm(point2 - offset2) >= min_distance:
                break
        dir2 = _unit(point2 - offset2)
        dir1 = apply_pixel_noise(dir1, config.noise_sigma_px, config.focal_px, rng)
        dir2 = apply_pixel_noise(dir2, config.noise_sigma_px, config.focal_px, rng)
        rows.append((dir1, np.cross(offset1, dir1), dir2, np.cross(offset2, dir2)))
    return truth, tuple(np.array(column) for column in zip(*rows))


def absolute_arrays(n=6, seed=0):
    rng = np.random.default_rng(seed)
    bearings = rng.normal(size=(n, 3))
    bearings /= np.linalg.norm(bearings, axis=1)[:, None]
    return rng.normal(size=(n, 3)), bearings, rng.normal(size=(n, 3))


def relative_arrays(n=6, seed=0):
    rng = np.random.default_rng(seed)
    arrays = []
    for _ in range(2):
        d = rng.normal(size=(n, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        arrays += [d, np.cross(rng.normal(size=(n, 3)), d)]
    return arrays


class TestGenerators:
    @pytest.mark.parametrize("rig", ["central", "non_central"])
    @pytest.mark.parametrize("noise", [0.0, 2.0])
    @pytest.mark.parametrize("seed", [0, 5, 1234567])
    def test_absolute_matches_record_loop(self, rig, noise, seed):
        config = SceneConfig(num_correspondences=25, noise_sigma_px=noise,
                             rig=rig, seed=seed)
        truth, corrs = generate_absolute_scene(config)
        ref_truth, ref = record_generate_absolute(
            config, np.random.default_rng(seed))
        assert isinstance(corrs, PointRaySet)
        np.testing.assert_array_equal(truth.rotation, ref_truth.rotation)
        np.testing.assert_array_equal(truth.translation, ref_truth.translation)
        np.testing.assert_array_equal(corrs.points, ref[0])
        np.testing.assert_array_equal(corrs.bearings, ref[1])
        np.testing.assert_array_equal(corrs.offsets, ref[2])

    @pytest.mark.parametrize("rig", ["central", "non_central"])
    @pytest.mark.parametrize("noise", [0.0, 2.0])
    @pytest.mark.parametrize("seed", [0, 5, 1234567])
    def test_relative_matches_record_loop(self, rig, noise, seed):
        config = SceneConfig(num_correspondences=25, noise_sigma_px=noise,
                             rig=rig, seed=seed)
        truth, corrs = generate_relative_scene(config)
        ref_truth, ref = record_generate_relative(
            config, np.random.default_rng(seed))
        assert isinstance(corrs, RayPairSet)
        np.testing.assert_array_equal(truth.rotation, ref_truth.rotation)
        np.testing.assert_array_equal(truth.translation, ref_truth.translation)
        for got, want in zip((corrs.d1, corrs.m1, corrs.d2, corrs.m2), ref):
            np.testing.assert_array_equal(got, want)

    def test_trial_generator_stream_matches(self):
        # run_sweep hands each trial its own generator; the loop must draw
        # from it exactly as before.
        config = SceneConfig(seed=3, noise_sigma_px=4.0, rig=RIG_CENTRAL)
        _, corrs = generate_relative_scene(config, np.random.default_rng([3, 2, 7]))
        _, ref = record_generate_relative(config, np.random.default_rng([3, 2, 7]))
        np.testing.assert_array_equal(corrs.d2, ref[2])


def np_cross_pixel_noise(bearing, sigma_px, focal_px, rng):
    """apply_pixel_noise with its tangent basis from np.cross."""
    b = np.asarray(bearing, dtype=float)
    if sigma_px == 0.0:
        return b
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(b)))] = 1.0
    e1 = _unit(np.cross(b, helper))
    e2 = np.cross(b, e1)
    dx, dy = rng.normal(0.0, sigma_px, size=2)
    return _unit(b + (dx * e1 + dy * e2) / focal_px)


def np_cross_generate_absolute(config, rng):
    """The array-filling generator loop with np.cross."""
    truth = random_pose(rng, config)
    n = config.num_correspondences
    points, bearings, offsets = np.empty((n, 3)), np.empty((n, 3)), np.empty((n, 3))
    for i in range(n):
        offset = _camera_offset(rng, config)
        bearing = _random_unit(rng)
        depth = rng.uniform(*config.point_depth_range)
        points[i] = truth.rotation.T @ (offset + depth * bearing - truth.translation)
        bearings[i] = np_cross_pixel_noise(bearing, config.noise_sigma_px,
                                           config.focal_px, rng)
        offsets[i] = offset
    return truth, (points, bearings, offsets)


def np_cross_generate_relative(config, rng):
    """The array-filling generator loop with np.cross."""
    truth = random_pose(rng, config)
    min_distance = _MIN_CAMERA_DISTANCE_RATIO * config.point_depth_range[0]
    n = config.num_correspondences
    d1, m1, d2, m2 = (np.empty((n, 3)) for _ in range(4))
    for i in range(n):
        while True:
            offset1 = _camera_offset(rng, config)
            dir1 = _random_unit(rng)
            depth = rng.uniform(*config.point_depth_range)
            point1 = offset1 + depth * dir1
            point2 = truth.rotation.T @ (point1 - truth.translation)
            offset2 = _camera_offset(rng, config)
            if np.linalg.norm(point2 - offset2) >= min_distance:
                break
        dir2 = _unit(point2 - offset2)
        dir1 = np_cross_pixel_noise(dir1, config.noise_sigma_px, config.focal_px, rng)
        dir2 = np_cross_pixel_noise(dir2, config.noise_sigma_px, config.focal_px, rng)
        d1[i], m1[i] = dir1, np.cross(offset1, dir1)
        d2[i], m2[i] = dir2, np.cross(offset2, dir2)
    return truth, (d1, m1, d2, m2)


class TestGeneratorsMatchNpCross:
    """The generators' cross products on stacked rows leave every array
    bit-identical."""

    def test_cross_matches_np_cross(self):
        rng = np.random.default_rng(9)
        vectors = [rng.normal(size=3) * 10.0 ** rng.integers(-8, 8) for _ in range(200)]
        vectors += [np.array(v) for v in ([0.0, -0.0, 1.0], [-1.0, 0.0, 0.0],
                                          [0.0, 0.0, 0.0], [-0.0, -2.5, 0.0])]
        for a in vectors[::7]:
            rows = np.cross(np.tile(a, (len(vectors), 1)), np.array(vectors))
            for b, row in zip(vectors, rows):
                assert _cross(a, b).tobytes() == np.cross(a, b).tobytes()
                assert row.tobytes() == np.cross(a, b).tobytes()

    @pytest.mark.parametrize("rig", [RIG_CENTRAL, RIG_NON_CENTRAL])
    @pytest.mark.parametrize("noise", [0.0, 3.0])
    @pytest.mark.parametrize("n", [1, 20, 2000])
    def test_scenes_bit_identical(self, rig, noise, n):
        config = SceneConfig(num_correspondences=n, noise_sigma_px=noise, rig=rig,
                             seed=n + 7)
        for generate, reference, names in (
                (generate_absolute_scene, np_cross_generate_absolute,
                 ("points", "bearings", "offsets")),
                (generate_relative_scene, np_cross_generate_relative,
                 ("d1", "m1", "d2", "m2"))):
            truth, corrs = generate(config)
            ref_truth, ref = reference(config, np.random.default_rng(config.seed))
            assert truth.rotation.tobytes() == ref_truth.rotation.tobytes()
            assert truth.translation.tobytes() == ref_truth.translation.tobytes()
            for name, want in zip(names, ref):
                assert getattr(corrs, name).tobytes() == want.tobytes(), name


class TestRetriesAndSweeps:
    """The min-distance retry and whole sweeps draw as the per-point loop did."""

    @pytest.mark.parametrize("rig", [RIG_CENTRAL, RIG_NON_CENTRAL])
    @pytest.mark.parametrize("noise", [0.0, 2.0])
    def test_relative_retries_match_record_loop(self, rig, noise, monkeypatch):
        # Depths comparable to the translation put points near camera 2.
        attempts, frozen_offset = [], _camera_offset

        def counting_offset(rng, config):
            attempts.append(1)
            return frozen_offset(rng, config)

        monkeypatch.setattr(sys.modules[__name__], "_camera_offset", counting_offset)
        retries = 0
        for seed in range(4):
            config = SceneConfig(num_correspondences=200, noise_sigma_px=noise, rig=rig,
                                 point_depth_range=(2.0, 2.2), translation_extent=2.0,
                                 seed=seed)
            attempts.clear()
            ref_truth, ref = np_cross_generate_relative(config,
                                                        np.random.default_rng(seed))
            retries += len(attempts) // 2 - config.num_correspondences
            truth, corrs = generate_relative_scene(config)
            assert truth.rotation.tobytes() == ref_truth.rotation.tobytes()
            assert truth.translation.tobytes() == ref_truth.translation.tobytes()
            for name, want in zip(("d1", "m1", "d2", "m2"), ref):
                assert getattr(corrs, name).tobytes() == want.tobytes(), name
        assert retries >= 1

    @pytest.mark.parametrize("init", [INIT_LINEAR, INIT_IDENTITY])
    @pytest.mark.parametrize("family,problem,rig", FAMILIES)
    def test_sweep_bytes_match_record_loop(self, family, problem, rig, init, monkeypatch):
        config = SceneConfig(rig=rig, seed=1234567)

        def sweep():
            return records_to_csv(run_sweep(config, problem, [0.0, 4.0, 10.0], 8,
                                            init=init, measure_time=False))

        def frozen(oracle, set_type):
            def generate(scene_config, rng):
                truth, arrays = oracle(scene_config, rng)
                return truth, set_type(*arrays)
            return generate

        shipped = sweep()
        monkeypatch.setattr(bench, "generate_relative_scene",
                            frozen(np_cross_generate_relative, RayPairSet))
        monkeypatch.setattr(bench, "generate_absolute_scene",
                            frozen(np_cross_generate_absolute, PointRaySet))
        assert sweep() == shipped


def row_cases(cases):
    """(field, row, value, expected message) cases as pytest params with
    ids "field-row-valueK", K the case's index."""
    return [pytest.param(*case, id=f"{case[0]}-{case[1]}-value{k}")
            for k, case in enumerate(cases)]


class TestRowChecks:
    """A set rejects a faulty row with the message of its first failing
    check, and reports the first failing row."""

    @pytest.mark.parametrize("field,row,value,expected", row_cases([
        ("bearings", 2, [0.0, 0.0, 1.0 + 2e-12], "bearing must be unit length"),
        ("bearings", 4, [0.6, 0.8, 1e-5], "bearing must be unit length"),
        ("bearings", 0, [np.nan, 0.0, 1.0], "ray entries must be finite"),
        ("offsets", 3, [0.0, np.inf, 0.0], "ray entries must be finite"),
        ("points", 5, [1.0, -np.inf, 0.0], "point must be a finite 3-vector"),
        ("points", 1, [np.nan, 0.0, 0.0], "point must be a finite 3-vector"),
    ]))
    def test_absolute_rejections(self, field, row, value, expected):
        arrays = dict(zip(("points", "bearings", "offsets"), absolute_arrays()))
        arrays[field][row] = value
        with pytest.raises(ValueError) as info:
            PointRaySet(**arrays)
        assert str(info.value) == expected

    @pytest.mark.parametrize("field,row,value,expected", row_cases([
        ("d1", 2, [0.0, 0.0, 1.0 - 2e-12], "direction must be unit length"),
        ("d2", 1, [0.0, 0.0, 2.0], "direction must be unit length"),
        ("m1", 0, [np.nan, 0.0, 0.0], "line entries must be finite"),
        ("d2", 3, [np.inf, 0.0, 0.0], "line entries must be finite"),
        ("m2", 4, [1.0, 1.0, 1.0], "moment must be orthogonal to the direction"),
        ("m1", 5, [1e-3, 0.0, 0.0], "moment must be orthogonal to the direction"),
    ]))
    def test_relative_rejections(self, field, row, value, expected):
        arrays = dict(zip(("d1", "m1", "d2", "m2"), relative_arrays()))
        arrays[field][row] = value
        with pytest.raises(ValueError) as info:
            RayPairSet(**arrays)
        assert str(info.value) == expected

    def test_accepts_rows_within_tolerance(self):
        points, bearings, offsets = absolute_arrays()
        bearings[0] = [0.0, 0.0, 1.0 + 0.5e-12]
        PointRaySet(points, bearings, offsets)
        d1, m1, d2, m2 = relative_arrays()
        m1[0] += 0.5e-9 * d1[0]
        RayPairSet(d1, m1, d2, m2)

    def test_first_failing_row_decides(self):
        points, bearings, offsets = absolute_arrays()
        points[4] = np.nan                    # a later row, an earlier check
        bearings[2] = [0.0, 0.0, 2.0]
        with pytest.raises(ValueError, match="bearing must be unit length"):
            PointRaySet(points, bearings, offsets)
        d1, m1, d2, m2 = relative_arrays()
        d1[3] = [0.0, 0.0, 2.0]
        m2[1] = np.inf
        with pytest.raises(ValueError, match="line entries must be finite"):
            RayPairSet(d1, m1, d2, m2)

    @pytest.mark.parametrize("shape", [(6, 2), (6,), (6, 3, 1), (3,)])
    def test_wrong_shapes(self, shape):
        points, bearings, offsets = absolute_arrays()
        with pytest.raises(ValueError, match="point must be a finite 3-vector"):
            PointRaySet(np.zeros(shape), bearings, offsets)
        with pytest.raises(ValueError, match="bearing and offset must be 3-vectors"):
            PointRaySet(points, bearings, np.zeros(shape))
        d1, m1, d2, m2 = relative_arrays()
        with pytest.raises(ValueError, match="direction and moment must be 3-vectors"):
            RayPairSet(d1, m1, d2, np.zeros(shape))

    def test_mismatched_lengths(self):
        points, bearings, offsets = absolute_arrays()
        with pytest.raises(ValueError, match="differ in length"):
            PointRaySet(points[:5], bearings, offsets)
        d1, m1, d2, m2 = relative_arrays()
        with pytest.raises(ValueError, match="differ in length"):
            RayPairSet(d1, m1, d2[:5], m2[:5])

    def test_arrays_are_read_only_copies(self):
        points, bearings, offsets = absolute_arrays()
        corrs = PointRaySet(points, bearings, offsets)
        points[0] = 99.0
        assert corrs.points[0, 0] != 99.0
        for array in (corrs.points, corrs.bearings, corrs.offsets):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
        pairs = RayPairSet(*relative_arrays())
        for array in (pairs.d1, pairs.m1, pairs.d2, pairs.m2):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0


class TestSequenceAccess:
    @pytest.fixture(params=["absolute", "relative"])
    def scene(self, request):
        config = SceneConfig(num_correspondences=7, seed=11, noise_sigma_px=1.0)
        if request.param == "absolute":
            return generate_absolute_scene(config)[1]
        return generate_relative_scene(config)[1]

    @staticmethod
    def _arrays(corrs):
        if isinstance(corrs, PointRaySet):
            return [corrs.points, corrs.bearings, corrs.offsets]
        return [corrs.d1, corrs.m1, corrs.d2, corrs.m2]

    def test_len_index_and_negative_index(self, scene):
        assert len(scene) == 7
        for index in (0, 3, -1, 7, np.int64(2)):
            with pytest.raises(TypeError, match="indices must be slices"):
                scene[index]
        with pytest.raises(TypeError):
            scene[1.0]
        with pytest.raises(TypeError):
            list(scene)

    def test_slice_is_a_set(self, scene):
        head = scene[:4]
        assert type(head) is type(scene)
        assert len(head) == 4
        for got, array in zip(self._arrays(head), self._arrays(scene)):
            np.testing.assert_array_equal(got, array[:4])
        assert len(scene[::-2]) == 4
        assert len(scene[10:]) == 0

    @staticmethod
    def _form(corrs):
        if isinstance(corrs, PointRaySet):
            return build_gpnp_form(corrs)
        return build_gec_form(corrs)

    def test_set_of_sliced_arrays_equals_slice(self, scene):
        for index in (slice(2, 5), slice(None, None, -3), slice(-4, None),
                      slice(1, 7, 2)):
            rebuilt = type(scene)(*(array[index] for array in self._arrays(scene)))
            for got, want in zip(self._arrays(rebuilt), self._arrays(scene[index])):
                np.testing.assert_array_equal(got, want)

    def test_reversed_slice_reverses_rows_and_keeps_fold(self, scene):
        reversed_scene = scene[::-1]
        for got, array in zip(self._arrays(reversed_scene), self._arrays(scene)):
            np.testing.assert_array_equal(got, array[::-1])
        h = self._form(scene).h
        np.testing.assert_allclose(self._form(reversed_scene).h, h,
                                   rtol=0, atol=1e-13 * np.abs(h).max())

    def test_tiled_rows_fold_scales(self, scene):
        tiled = type(scene)(*(np.tile(array, (20, 1))
                              for array in self._arrays(scene)))
        assert len(tiled) == 140
        for got, array in zip(self._arrays(tiled), self._arrays(scene)):
            np.testing.assert_array_equal(got, np.tile(array, (20, 1)))
        h = self._form(scene).h
        np.testing.assert_allclose(self._form(tiled).h, 20.0 * h,
                                   rtol=0, atol=1e-12 * np.abs(h).max())

    def test_empty_set_has_row_shape_and_no_fold(self, scene):
        for empty in (scene[7:], scene[3:3],
                      type(scene)(*(np.empty((0, 3)) for _ in self._arrays(scene)))):
            assert len(empty) == 0
            assert all(array.shape == (0, 3) for array in self._arrays(empty))
            with pytest.raises(PoseSolverError, match="no (point-ray|ray) corr"):
                self._form(empty)


def test_unit_tolerance_matches_oracle_near_boundary():
    # Bearings a few ulps either side of the unit tolerance: a one-row set
    # accepts exactly the rows whose norm is within UNIT_TOL of 1.
    rng = np.random.default_rng(9)
    base = rng.normal(size=(200, 3))
    base /= np.linalg.norm(base, axis=1)[:, None]
    scale = 1.0 + rng.uniform(0.9e-12, 1.1e-12, size=200)
    bearings = base * scale[:, None]
    accepted = 0
    for row in range(200):
        oracle_ok = abs(np.linalg.norm(bearings[row]) - 1.0) <= UNIT_TOL
        try:
            PointRaySet(np.zeros((1, 3)), bearings[row:row + 1], np.zeros((1, 3)))
            set_ok = True
        except ValueError:
            set_ok = False
        assert oracle_ok == set_ok, (row, math.fsum(bearings[row] ** 2))
        accepted += set_ok
    assert 0 < accepted < 200
