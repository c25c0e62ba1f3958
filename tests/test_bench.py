import copy
import dataclasses
import math

import numpy as np
import pytest

from conftest import pixel_noise_per_call
from poseamm import bench
from poseamm.absolute import build_gpnp_form, build_upnp_form
from poseamm.bench import (SceneConfig, TrialRecord, generate_absolute_scene,
                           generate_relative_scene, mean_records, pose_errors,
                           run_sweep)
from poseamm.exceptions import PoseSolverError
from poseamm.geometry import Pose, rodrigues_step, skew
from poseamm.relative import build_gec_form


class TestSceneGeneration:
    def test_absolute_zero_noise_consistency(self):
        truth, corrs = generate_absolute_scene(SceneConfig(seed=1))
        for point, bearing, offset in zip(corrs.points, corrs.bearings, corrs.offsets):
            y = truth.rotation @ point + truth.translation - offset
            residual = y - bearing * (bearing @ y)
            assert np.linalg.norm(residual) < 1e-12

    def test_relative_zero_noise_consistency(self):
        truth, corrs = generate_relative_scene(SceneConfig(seed=2))
        essential = skew(truth.translation) @ truth.rotation
        block = np.zeros((6, 6))
        block[:3, :3] = essential
        block[:3, 3:] = truth.rotation
        block[3:, :3] = truth.rotation
        for d1, m1, d2, m2 in zip(corrs.d1, corrs.m1, corrs.d2, corrs.m2):
            value = np.concatenate([d1, m1]) @ block @ np.concatenate([d2, m2])
            assert abs(value) < 1e-12

    def test_all_objectives_vanish_at_truth(self):
        truth, abs_corrs = generate_absolute_scene(SceneConfig(seed=3))
        for form in (build_gpnp_form(abs_corrs), build_upnp_form(abs_corrs)):
            scale = float(np.linalg.norm(form.h[:9, :9])) + abs(form.h[12, 12]) + 1.0
            assert abs(form.value(truth.rotation, truth.translation)) < 1e-12 * scale
        truth2, rel_corrs = generate_relative_scene(SceneConfig(seed=3))
        gec = build_gec_form(rel_corrs)
        scale = float(np.linalg.norm(gec.h)) + 1.0
        assert gec.value(truth2.rotation, truth2.translation) < 1e-12 * scale

    def test_deterministic_given_seed(self):
        config = SceneConfig(seed=77, noise_sigma_px=3.0)
        truth_a, corrs_a = generate_absolute_scene(config)
        truth_b, corrs_b = generate_absolute_scene(config)
        np.testing.assert_array_equal(truth_a.rotation, truth_b.rotation)
        np.testing.assert_array_equal(corrs_a.points, corrs_b.points)
        np.testing.assert_array_equal(corrs_a.bearings, corrs_b.bearings)

    def test_relative_deterministic_given_seed(self):
        config = SceneConfig(seed=78, noise_sigma_px=3.0)
        truth_a, corrs_a = generate_relative_scene(config)
        truth_b, corrs_b = generate_relative_scene(config)
        np.testing.assert_array_equal(truth_a.translation, truth_b.translation)
        np.testing.assert_array_equal(corrs_a.d1, corrs_b.d1)
        np.testing.assert_array_equal(corrs_a.m2, corrs_b.m2)

    def test_central_rig_offsets_are_zero(self):
        _, corrs = generate_absolute_scene(SceneConfig(seed=4, rig="central"))
        np.testing.assert_array_equal(corrs.offsets, np.zeros((len(corrs), 3)))

    def test_relative_scene_much_smaller_than_a_unit_returns(self):
        # The camera-distance floor scales with the point depths, so scenes
        # a thousand times smaller than the default are still generated.
        config = SceneConfig(point_depth_range=(4e-3, 8e-3), rig_extent=5e-4,
                             translation_extent=2e-3, seed=3)
        _, corrs = generate_relative_scene(config)
        assert len(corrs) == config.num_correspondences

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SceneConfig(num_correspondences=0)
        with pytest.raises(ValueError):
            SceneConfig(rig="planar")
        with pytest.raises(ValueError):
            SceneConfig(point_depth_range=(5.0, 4.0))

    @pytest.mark.parametrize("name,value", [
        ("noise_sigma_px", float("nan")), ("noise_sigma_px", float("inf")),
        ("focal_px", float("inf")), ("focal_px", float("nan")),
        ("rig_extent", float("inf")), ("rig_extent", float("nan")),
        ("point_depth_range", (4.0, float("inf"))),
        ("point_depth_range", (float("nan"), 8.0)),
        ("point_depth_range", (-float("inf"), 8.0)),
        ("rotation_max_angle", float("nan")),
        ("translation_extent", float("inf")), ("translation_extent", float("nan")),
    ])
    def test_config_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SceneConfig(**{name: value})

    @pytest.mark.parametrize("name,value,message", [
        ("num_correspondences", 2.5, "must be an integer"),
        ("num_correspondences", True, "must be an integer"),
        ("num_correspondences", np.True_, "must be an integer"),
        ("num_correspondences", "20", "must be an integer"),
        ("seed", 1.5, "must be an integer"), ("seed", False, "must be an integer"),
        ("seed", None, "must be an integer"),
        ("point_depth_range", 5.0, "must be a pair"),
        ("point_depth_range", (4.0,), "must be a pair"),
        ("point_depth_range", (4.0, 6.0, 8.0), "must be a pair"),
        ("point_depth_range", "48", "must be a pair"),
    ])
    def test_config_rejects_what_a_sweep_cannot_use(self, name, value, message):
        with pytest.raises(ValueError, match=f"{name} {message}"):
            SceneConfig(**{name: value})

    def test_config_takes_numpy_integers(self):
        config = SceneConfig(num_correspondences=np.int64(17), seed=np.uint32(5))
        records = run_sweep(config, "relative", [0.0], trials=1, measure_time=False)
        assert records == run_sweep(SceneConfig(num_correspondences=17, seed=5),
                                    "relative", [0.0], trials=1, measure_time=False)


class TestPixelNoise:
    def test_output_unit_norm(self, rng):
        bearings = rng.normal(size=(200, 3))
        bearings /= np.linalg.norm(bearings, axis=1)[:, None]
        out = bench._pixel_noise_rows(bearings, rng.normal(0.0, 5.0, size=(200, 2)),
                                      800.0)
        assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() < 1e-12

    def test_monte_carlo_angular_deviation(self, rng):
        # Per-axis angular std must match sigma / focal within 5%.
        sigma, focal = 2.0, 800.0
        bearing = np.array([0.2, -0.3, 0.93])
        bearing /= np.linalg.norm(bearing)
        helper = np.zeros(3)
        helper[int(np.argmin(np.abs(bearing)))] = 1.0
        e1 = np.cross(bearing, helper)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(bearing, e1)
        # One draw of all offsets consumes the stream exactly like 100 000
        # per-bearing calls, which the first 100 rows confirm.
        per_call = copy.deepcopy(rng)
        draws = rng.normal(0.0, sigma, size=(100_000, 2))
        samples = bench._pixel_noise_rows(np.tile(bearing, (100_000, 1)), draws, focal)
        np.testing.assert_array_equal(
            np.stack([pixel_noise_per_call(bearing, sigma, focal, per_call)
                      for _ in range(100)]), samples[:100])
        expected = sigma / focal
        assert np.std(samples @ e1) == pytest.approx(expected, rel=0.05)
        assert np.std(samples @ e2) == pytest.approx(expected, rel=0.05)


class TestPoseErrors:
    def test_identical_poses(self, rng):
        pose = Pose(rodrigues_step(rng.normal(size=3), 0.3), rng.normal(size=3))
        assert pose_errors(pose, pose) == (0.0, 0.0)

    def test_half_turn_rotation_error(self, rng):
        rotation = rodrigues_step(rng.normal(size=3), 0.7)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        flipped = rotation @ rodrigues_step(axis, np.pi)
        rot_err, _ = pose_errors(Pose(rotation, np.zeros(3)),
                                 Pose(flipped, np.zeros(3)))
        assert rot_err == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_matches_manual_recomputation(self, rng):
        a = Pose(rodrigues_step(rng.normal(size=3), 0.5), rng.normal(size=3))
        b = Pose(rodrigues_step(rng.normal(size=3), 1.1), rng.normal(size=3))
        rot_err, trans_err = pose_errors(a, b)
        manual_rot = math.sqrt(float(np.sum((a.rotation - b.rotation) ** 2)))
        manual_trans = math.sqrt(float(np.sum((a.translation - b.translation) ** 2)))
        assert rot_err == pytest.approx(manual_rot, rel=1e-15)
        assert trans_err == pytest.approx(manual_trans, rel=1e-15)


class TestRunSweep:
    def test_row_count_and_zero_noise_accuracy(self):
        config = SceneConfig(seed=5)
        records = run_sweep(config, "absolute", [0.0], trials=10,
                            measure_time=False)
        assert len(records) == 10 * 2  # two absolute solvers
        for record in records:
            assert record.converged
            assert record.rot_err_frobenius < 1e-6
            assert record.trans_err_norm < 1e-5

    def test_noise_inflates_mean_error(self):
        config = SceneConfig(seed=6)
        records = run_sweep(config, "absolute", [0.0, 10.0], trials=25,
                            solvers=("amm-gpnp",), measure_time=False)
        by_level = {}
        for record in records:
            by_level.setdefault(record.noise_sigma, []).append(
                record.rot_err_frobenius)
        assert np.mean(by_level[10.0]) >= np.mean(by_level[0.0])

    def test_relative_sweep_runs(self):
        records = run_sweep(SceneConfig(seed=7), "relative", [0.0], trials=5,
                            measure_time=False)
        assert len(records) == 5
        assert all(r.solver_name == "amm-gec" for r in records)
        assert all(r.rot_err_frobenius < 1e-6 for r in records)

    def test_solver_problem_mismatch(self):
        with pytest.raises(ValueError):
            run_sweep(SceneConfig(seed=1), "relative", [0.0], trials=1,
                      solvers=("amm-gpnp",))

    def test_failures_recorded_not_raised(self):
        # 10 correspondences cannot feed the 17-point initializer, so every
        # relative trial fails and is recorded as a non-converged row.
        config = SceneConfig(seed=8, num_correspondences=10)
        records = run_sweep(config, "relative", [0.0], trials=3,
                            measure_time=False)
        assert len(records) == 3
        for record in records:
            assert not record.converged
            assert math.isinf(record.rot_err_frobenius)

    def test_singular_translation_block_recorded_as_failure(self):
        # One correspondence leaves the depth along its ray free: the
        # identity-seeded gPnP solve raises, and the sweep records it.
        config = SceneConfig(seed=1, num_correspondences=1)
        _, corrs = generate_absolute_scene(config)
        with pytest.raises(PoseSolverError, match="translation block is singular"):
            bench.solve_amm(build_gpnp_form(corrs), np.zeros(3))
        records = run_sweep(config, "absolute", [0.0], trials=2,
                            solvers=("amm-gpnp",), init="identity",
                            measure_time=False)
        assert len(records) == 2
        assert all(math.isinf(r.final_objective) and not r.converged
                   for r in records)

    def test_failed_solve_voids_its_own_record_only(self, monkeypatch):
        # A solve that raises is recorded as failed; the other solver of
        # the same trial and the other trials still run.
        solve = bench.solve_amm
        calls = []

        def patched(objective, *args, **kwargs):
            calls.append(objective)
            if len(calls) % 2 == 1:   # the first solver of every trial
                raise PoseSolverError("patched failure")
            return solve(objective, *args, **kwargs)

        monkeypatch.setattr(bench, "solve_amm", patched)
        records = run_sweep(SceneConfig(seed=5), "absolute", [0.0], trials=3,
                            measure_time=False)
        assert len(records) == 6
        for failed, solved in zip(records[0::2], records[1::2]):
            assert failed.solver_name == "amm-gpnp"
            assert not failed.converged
            assert math.isinf(failed.rot_err_frobenius)
            assert math.isinf(failed.trans_err_norm)
            assert math.isinf(failed.final_objective)
            assert solved.converged
            assert solved.rot_err_frobenius < 1e-6

    def test_timing_toggle(self):
        config = SceneConfig(seed=10)
        timed = run_sweep(config, "absolute", [0.0], trials=2,
                          solvers=("amm-gpnp",))
        untimed = run_sweep(config, "absolute", [0.0], trials=2,
                            solvers=("amm-gpnp",), measure_time=False)
        assert all(r.wall_time_ns > 0 for r in timed)
        assert all(r.wall_time_ns == 0 for r in untimed)
        strip = lambda recs: [dataclasses.replace(r, wall_time_ns=0) for r in recs]
        assert strip(timed) == strip(untimed)

    def test_central_relative_rig_rejected(self):
        # Both cameras central: the GEC rows never couple vec(R), so the
        # translation scale is unobservable and identity-seeded solves
        # would return t = 0 with objective 0. They become failed records.
        config = SceneConfig(seed=12, rig="central")
        _, corrs = generate_relative_scene(config)
        with pytest.raises(PoseSolverError, match="translation scale is unobservable"):
            bench.build_objective(bench.SOLVER_GEC, corrs)
        records = run_sweep(config, "relative", [0.0, 2.0], trials=2,
                            init="identity", measure_time=False)
        assert len(records) == 4
        for record in records:
            assert not record.converged
            assert math.isinf(record.final_objective)
            assert math.isinf(record.trans_err_norm)

    def test_identity_init_sweep(self):
        records = run_sweep(SceneConfig(seed=11, rig="central"), "absolute",
                            [0.0], trials=3, solvers=("amm-gpnp",),
                            init="identity", measure_time=False)
        assert len(records) == 3


class TestTrialRecord:
    def test_errors_nonnegative_fields(self):
        record = TrialRecord(0.0, 0, "amm-gpnp", 1e-9, 1e-8, 100, 3, 1e-12, True)
        assert record.rot_err_frobenius >= 0.0
        assert record.trans_err_norm >= 0.0


class TestMeanRecords:
    def test_group_means(self):
        rows = [TrialRecord(0.0, 0, "amm-gpnp", 1.0, 2.0, 10, 2, 0.5, True),
                TrialRecord(0.0, 1, "amm-gpnp", 3.0, 4.0, 30, 4, 1.5, True),
                TrialRecord(2.0, 0, "amm-gpnp", 5.0, 6.0, 50, 6, 2.5, False)]
        means = mean_records(rows)
        assert len(means) == 2
        first = means[0]
        assert first.trial_index == -1
        assert first.noise_sigma == 0.0
        assert first.rot_err_frobenius == pytest.approx(2.0)
        assert first.trans_err_norm == pytest.approx(3.0)
        assert first.wall_time_ns == 20
        assert first.converged
        assert not means[1].converged
