import itertools
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BlockQuadricsOnly, random_rotation
from poseamm import amm
from poseamm.absolute import build_gpnp_form, build_upnp_form
from poseamm.amm import (AmmConfig, rotation_subsolve, solve_amm,
                         translation_subsolve)
from poseamm.bench import (RIG_CENTRAL, RIG_NON_CENTRAL, SceneConfig,
                           generate_absolute_scene, generate_relative_scene,
                           pose_errors)
from poseamm.exceptions import PoseSolverError
from poseamm.geometry import rodrigues_step, vec
from poseamm.initializers import (init_absolute_linear, init_identity,
                                  init_relative_17pt)
from poseamm.objectives import ABSOLUTE_LIFT, GEC_LIFT, PoseObjective, QuadricForm
from poseamm.relative import build_gec_form


class FrobeniusObjective(PoseObjective):
    """||R - R*||_F^2 + ||t - t*||^2: quadratic with a known minimizer."""

    def __init__(self, r_star, t_star):
        self.r_star = np.asarray(r_star, dtype=float)
        self.t_star = np.asarray(t_star, dtype=float)

    def value(self, rotation, translation):
        return (float(np.sum((rotation - self.r_star) ** 2))
                + float(np.sum((np.asarray(translation) - self.t_star) ** 2)))

    def rotation_gradient(self, rotation, translation):
        return 2.0 * (np.asarray(rotation) - self.r_star)

    def translation_gradient(self, rotation, translation):
        return 2.0 * (np.asarray(translation) - self.t_star)


class ConstantObjective(PoseObjective):
    def value(self, rotation, translation):
        return 1.0

    def rotation_gradient(self, rotation, translation):
        return np.zeros((3, 3))

    def translation_gradient(self, rotation, translation):
        return np.zeros(3)


class NanObjective(ConstantObjective):
    def value(self, rotation, translation):
        return float("nan")


class ContractOnly(PoseObjective):
    """Forward the three contract methods only, hiding any block quadrics,
    so the solver takes its generic path."""

    def __init__(self, inner):
        self.inner = inner

    def value(self, rotation, translation):
        return self.inner.value(rotation, translation)

    def rotation_gradient(self, rotation, translation):
        return self.inner.rotation_gradient(rotation, translation)

    def translation_gradient(self, rotation, translation):
        return self.inner.translation_gradient(rotation, translation)


class IterateRecorder(ContractOnly):
    """Record every rotation the subsolver evaluates a gradient at."""

    def __init__(self, inner):
        super().__init__(inner)
        self.rotations = []

    def rotation_gradient(self, rotation, translation):
        self.rotations.append(np.array(rotation))
        return self.inner.rotation_gradient(rotation, translation)


class CallCounter:
    """Count the contract calls and forward every other attribute, the
    block quadrics included."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = {"value": 0, "rotation_gradient": 0,
                      "translation_gradient": 0}

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def value(self, rotation, translation):
        self.calls["value"] += 1
        return self.inner.value(rotation, translation)

    def rotation_gradient(self, rotation, translation):
        self.calls["rotation_gradient"] += 1
        return self.inner.rotation_gradient(rotation, translation)

    def translation_gradient(self, rotation, translation):
        self.calls["translation_gradient"] += 1
        return self.inner.translation_gradient(rotation, translation)


class MisleadingQuadric(FrobeniusObjective):
    """A rotation quadric that pulls toward r_decoy, not r_star: the block
    solve lowers it while the full objective rises."""

    def __init__(self, r_star, t_star, r_decoy):
        super().__init__(r_star, t_star)
        self.r_decoy = np.asarray(r_decoy, dtype=float)

    def rotation_quadric(self, translation):
        t_term = float(np.sum((np.asarray(translation) - self.t_star) ** 2))
        return np.eye(9), -2.0 * vec(self.r_decoy), 3.0 + t_term


def _stationarity(objective, rotation, translation):
    """Norm of the Riemannian gradient: the so(3) axis of M - M' for
    M = grad_R R', stacked with the translation gradient."""
    m = np.asarray(objective.rotation_gradient(rotation, translation)) @ rotation.T
    axis = [m[1, 2] - m[2, 1], m[2, 0] - m[0, 2], m[0, 1] - m[1, 0]]
    return float(np.linalg.norm(np.concatenate(
        [axis, objective.translation_gradient(rotation, translation)])))


def _criterion_4_grid():
    """(form, seed pose) of every solve on the acceptance criterion-4 grid."""
    seed = 1234567
    for problem, rig in (("relative", RIG_NON_CENTRAL), ("absolute", RIG_CENTRAL),
                         ("absolute", RIG_NON_CENTRAL)):
        for sigma in (0.0, 2.0, 4.0, 6.0, 8.0, 10.0):
            for trial in range(3):
                config = SceneConfig(seed=seed, rig=rig, noise_sigma_px=sigma)
                rng = np.random.default_rng([seed, int(sigma), trial])
                if problem == "relative":
                    _, corrs = generate_relative_scene(config, rng)
                    yield build_gec_form(corrs), init_relative_17pt(corrs)
                else:
                    _, corrs = generate_absolute_scene(config, rng)
                    for form in (build_gpnp_form(corrs), build_upnp_form(corrs)):
                        yield form, init_absolute_linear(form)


class TestRotationSubsolve:
    def test_stationary_start_is_returned_unchanged(self, rng):
        r_star = random_rotation(rng)
        objective = FrobeniusObjective(r_star, np.zeros(3))
        out = rotation_subsolve(objective, r_star, np.zeros(3))
        np.testing.assert_array_equal(out, r_star)

    def test_converges_to_known_minimizer(self, rng):
        for _ in range(10):
            r_star = random_rotation(rng)
            objective = FrobeniusObjective(r_star, np.zeros(3))
            out = rotation_subsolve(objective, np.eye(3), np.zeros(3))
            assert np.linalg.norm(out - r_star) < 1e-6

    def test_never_increases(self, rng):
        r_star = random_rotation(rng)
        objective = FrobeniusObjective(r_star, np.zeros(3))
        start = random_rotation(rng)
        out = rotation_subsolve(objective, start, np.zeros(3))
        assert objective.value(out, np.zeros(3)) <= objective.value(start, np.zeros(3))

    def test_iterates_stay_on_manifold(self, rng):
        # 1000 solves; every gradient call sees a valid rotation iterate.
        for _ in range(1000):
            recorder = IterateRecorder(FrobeniusObjective(random_rotation(rng),
                                                          np.zeros(3)))
            rotation_subsolve(recorder, random_rotation(rng), np.zeros(3))
            for iterate in recorder.rotations:
                assert np.linalg.norm(iterate @ iterate.T - np.eye(3)) < 1e-9
                assert np.linalg.det(iterate) > 0.0


class TestTranslationSubsolve:
    def test_zero_gradient_returns_init(self, rng):
        t_star = rng.normal(size=3)
        objective = FrobeniusObjective(np.eye(3), t_star)
        np.testing.assert_array_equal(
            translation_subsolve(objective, t_star, np.eye(3)), t_star)

    def test_isotropic_quadratic_exact(self, rng):
        # One seeding step plus one Barzilai-Borwein step lands on the
        # minimizer of an isotropic quadratic.
        t_star = rng.normal(size=3)
        objective = FrobeniusObjective(np.eye(3), t_star)
        out = translation_subsolve(objective, rng.normal(size=3), np.eye(3))
        assert np.linalg.norm(out - t_star) < 1e-8

    def test_agrees_with_closed_form(self, rng):
        # The descent, on the generic path, against the exact minimizer.
        # Tight stall tolerance so the comparison measures the algorithms,
        # not the stopping rule.
        config = AmmConfig(tol_translation=1e-13)
        for seed in range(100):
            _, corrs = generate_absolute_scene(SceneConfig(seed=seed))
            form = build_gpnp_form(corrs) if seed % 2 == 0 else build_upnp_form(corrs)
            rotation = random_rotation(rng)
            descent = translation_subsolve(ContractOnly(form), np.zeros(3), rotation,
                                           config)
            exact = form.closed_form_translation(rotation)
            assert np.linalg.norm(descent - exact) < 1e-6

    def test_exact_on_translation_quadric(self, rng):
        # From any start the block's stationarity 2At + b vanishes to
        # rounding, and no contract method is called.
        forms = []
        for trial in range(40):
            lift = (ABSOLUTE_LIFT, GEC_LIFT)[trial % 2]
            rows = rng.normal(size=(lift.size + 7, lift.size))
            forms.append(QuadricForm(10.0 ** rng.uniform(-3, 3) * (rows.T @ rows), lift))
        for seed in range(4):
            config = SceneConfig(seed=seed, noise_sigma_px=4.0, rig=RIG_NON_CENTRAL)
            _, corrs = generate_absolute_scene(config)
            _, rays = generate_relative_scene(config)
            forms += [build_gpnp_form(corrs), build_upnp_form(corrs), build_gec_form(rays)]
        for form in map(CallCounter, forms):
            rotation = random_rotation(rng)
            a, b, _ = form.translation_quadric(rotation)
            for start in (np.zeros(3), rng.normal(size=3) * 1e3):
                t = translation_subsolve(form, start, rotation)
                scale = np.abs(a).sum() * np.abs(t).max() + np.abs(b).max()
                assert np.linalg.norm(2.0 * (a @ t) + b) <= 1e-12 * scale
            assert form.calls == {"value": 0, "rotation_gradient": 0,
                                  "translation_gradient": 0}

    def test_singular_block_raises(self):
        # One correspondence's point-to-ray block: no depth along the ray.
        h = np.zeros((13, 13))
        h[9:12, 9:12] = np.diag([1.0, 1.0, 0.0])
        form = QuadricForm(h, ABSOLUTE_LIFT)
        with pytest.raises(PoseSolverError, match="translation block is singular"):
            translation_subsolve(form, np.zeros(3), np.eye(3))
        with pytest.raises(PoseSolverError, match="translation block is singular"):
            solve_amm(form, np.zeros(3))


class TestSolveAmm:
    def test_recovers_truth_from_true_translation(self):
        # Identity rotation seed, exact translation seed: the alternation's
        # own float64 floor leaves a few 1e-8 of pose error on the hardest
        # seeds, so the 1e-8 bound is asserted on the median.
        config = AmmConfig(tol_outer=1e-12, tol_rotation=1e-9)
        errors = []
        for seed in range(10):
            truth, corrs = generate_absolute_scene(SceneConfig(seed=seed))
            form = build_gpnp_form(corrs)
            result = solve_amm(form, truth.translation, config)
            rot_err, trans_err = pose_errors(truth, result.pose)
            errors.append(max(rot_err, trans_err))
            scale = float(np.linalg.norm(form.h[:9, :9])) + abs(form.h[12, 12]) + 1.0
            assert abs(result.final_objective) < 1e-12 * scale
            assert result.converged
        assert np.median(errors) < 1e-8
        assert max(errors) < 1e-7

    def test_recovers_truth_from_linear_init(self):
        from poseamm.initializers import init_absolute_linear
        for seed in range(5):
            truth, corrs = generate_absolute_scene(SceneConfig(seed=seed))
            form = build_gpnp_form(corrs)
            pose0 = init_absolute_linear(form)
            result = solve_amm(form, pose0.translation,
                               rotation_init=pose0.rotation)
            rot_err, trans_err = pose_errors(truth, result.pose)
            assert rot_err < 1e-6
            assert trans_err < 1e-6

    def test_constant_objective_stops_immediately(self):
        result = solve_amm(ConstantObjective(), np.zeros(3))
        assert result.outer_iterations == 1
        assert result.converged

    def test_non_finite_objective_raises(self):
        with pytest.raises(PoseSolverError, match="not finite at the initial guess"):
            solve_amm(NanObjective(), np.zeros(3))

    def test_trace_monotone_on_noisy_data(self):
        for seed in range(10):
            _, corrs = generate_absolute_scene(
                SceneConfig(seed=seed, noise_sigma_px=6.0))
            form = build_gpnp_form(corrs)
            result = solve_amm(form, np.zeros(3))
            trace = result.objective_trace
            for prev, cur in zip(trace, trace[1:]):
                assert cur <= prev + 1e-12

    def test_deterministic(self):
        _, corrs = generate_absolute_scene(SceneConfig(seed=2, noise_sigma_px=4.0))
        form = build_gpnp_form(corrs)
        first = solve_amm(form, np.zeros(3))
        second = solve_amm(form, np.zeros(3))
        assert first.objective_trace == second.objective_trace
        np.testing.assert_array_equal(first.pose.rotation, second.pose.rotation)
        np.testing.assert_array_equal(first.pose.translation,
                                      second.pose.translation)

    def test_iteration_cap_reports_not_converged(self, rng):
        r_star = random_rotation(rng)
        objective = FrobeniusObjective(r_star, rng.normal(size=3))
        config = AmmConfig(max_outer_iters=1, tol_outer=1e-15)
        result = solve_amm(objective, np.zeros(3), config)
        assert result.outer_iterations == 1
        assert not result.converged

    def test_final_objective_at_returned_pose(self):
        for seed in range(5):
            _, corrs = generate_absolute_scene(
                SceneConfig(seed=seed, noise_sigma_px=3.0))
            form = build_upnp_form(corrs)
            result = solve_amm(form, np.zeros(3))
            assert result.final_objective == form.value(
                result.pose.rotation, result.pose.translation)

    def test_rising_outer_iterate_is_rejected(self, rng):
        r_star = random_rotation(rng)
        t_star = rng.normal(size=3)
        objective = MisleadingQuadric(r_star, t_star, random_rotation(rng))
        result = solve_amm(objective, t_star, rotation_init=r_star)
        assert result.converged
        assert result.outer_iterations == 1
        assert result.objective_trace == ()
        np.testing.assert_allclose(result.pose.rotation, r_star, atol=1e-12)
        np.testing.assert_array_equal(result.pose.translation, t_star)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AmmConfig(tol_outer=0.0)
        with pytest.raises(ValueError):
            AmmConfig(max_outer_iters=0)
        with pytest.raises(ValueError):
            AmmConfig(tol_rotation=-1.0)


class TestConfigFiniteness:
    @pytest.mark.parametrize("name", ["tol_outer", "tol_rotation", "tol_translation"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            AmmConfig(**{name: value})

    @pytest.mark.parametrize("value", [float("inf"), 2.5, "3"])
    def test_rejects_non_integer_iteration_cap(self, value):
        with pytest.raises(ValueError, match="max_outer_iters must be an integer"):
            AmmConfig(max_outer_iters=value)


class TestBlockQuadricPath:
    def test_minimum_matches_tight_reference_on_criterion_4_grid(self):
        # The alternation on block quadrics (Newton rotation steps, exact
        # translation block; absolute forms behind BlockQuadricsOnly) and
        # the generic path (the form behind ContractOnly: steepest descent
        # and translation descent) take different steps, so each path's
        # minimum is judged against a reference solve on the same path from
        # the same seed, run to a tight outer tolerance. Objectives are
        # compared relative to the objective at the identity pose, the
        # problem's own scale, and the stationarity of the returned pose
        # relative to the gradient there. TestReducedPath checks the
        # default solve of absolute forms, which does not alternate.
        tight = AmmConfig(tol_outer=1e-15, max_outer_iters=2000)
        solves = 0
        for form, pose0 in _criterion_4_grid():
            scale = form.value(np.eye(3), np.zeros(3))
            gradient_scale = _stationarity(form, np.eye(3), np.zeros(3))
            for objective in (BlockQuadricsOnly(form), ContractOnly(form)):
                reference = solve_amm(objective, pose0.translation, tight,
                                      rotation_init=pose0.rotation)
                result = solve_amm(objective, pose0.translation,
                                   rotation_init=pose0.rotation)
                gap = abs(result.final_objective - reference.final_objective)
                assert gap <= 1e-6 * scale
                stationarity = _stationarity(form, result.pose.rotation,
                                             result.pose.translation)
                assert stationarity <= 5e-3 * gradient_scale
            solves += 1
        assert solves == 90

    def test_forwarding_proxy_keeps_the_quadric_path(self):
        # Quadrics are looked up with getattr, so a proxy that forwards
        # attributes solves exactly like the form, and the contract methods
        # are called only for the outer values.
        _, corrs = generate_relative_scene(SceneConfig(seed=4, noise_sigma_px=2.0))
        form = build_gec_form(corrs)
        pose0 = init_relative_17pt(corrs)
        counter = CallCounter(form)
        direct = solve_amm(form, pose0.translation, rotation_init=pose0.rotation)
        proxied = solve_amm(counter, pose0.translation, rotation_init=pose0.rotation)
        assert proxied.objective_trace == direct.objective_trace
        np.testing.assert_array_equal(proxied.pose.rotation, direct.pose.rotation)
        assert counter.calls == {"value": direct.outer_iterations + 2,
                                 "rotation_gradient": 0,
                                 "translation_gradient": 0}

    def test_iterates_stay_on_manifold(self, monkeypatch):
        rotations = []
        block = amm._rotation_block

        def recording_block(objective, t):
            gradient, curvature, line = block(objective, t)

            def recorded(x):
                rotations.append(np.array(x))
                return gradient(x)
            return recorded, curvature, line

        monkeypatch.setattr(amm, "_rotation_block", recording_block)
        for form, pose0 in _criterion_4_grid():
            # The default solve and the alternation, which takes more steps
            # on absolute forms.
            for objective in (form, BlockQuadricsOnly(form)):
                solve_amm(objective, pose0.translation, rotation_init=pose0.rotation)
        assert len(rotations) > 1000
        for iterate in rotations:
            assert np.linalg.norm(iterate @ iterate.T - np.eye(3)) < 1e-9
            assert np.linalg.det(iterate) > 0.0

    def test_no_trace_rises_at_scene_scale_1e3(self):
        scale = 1e3
        solves = 0
        for seed in range(5):
            for rig in (RIG_CENTRAL, RIG_NON_CENTRAL):
                config = SceneConfig(seed=seed, rig=rig, noise_sigma_px=4.0 * (seed % 2),
                                     point_depth_range=(4.0 * scale, 8.0 * scale),
                                     rig_extent=0.5 * scale,
                                     translation_extent=2.0 * scale)
                _, corrs = generate_absolute_scene(config)
                cases = [(form, pose0) for form in (build_gpnp_form(corrs),
                                                    build_upnp_form(corrs))
                         for pose0 in (init_identity(), init_absolute_linear(form))]
                if rig == RIG_NON_CENTRAL:
                    _, rays = generate_relative_scene(config)
                    gec = build_gec_form(rays)
                    cases += [(gec, init_identity()), (gec, init_relative_17pt(rays))]
                for form, pose0 in cases:
                    result = solve_amm(form, pose0.translation,
                                       rotation_init=pose0.rotation)
                    trace = result.objective_trace
                    assert all(cur <= prev for prev, cur in zip(trace, trace[1:]))
                    solves += 1
        assert solves == 50


class MisleadingReducedQuadric(FrobeniusObjective):
    """A reduced rotation quadric that pulls toward r_decoy, not r_star."""

    def __init__(self, r_star, t_star, r_decoy):
        super().__init__(r_star, t_star)
        self.r_decoy = np.asarray(r_decoy, dtype=float)

    def reduced_rotation_quadric(self):
        return np.eye(9), -2.0 * vec(self.r_decoy), 3.0


def _absolute_grid():
    """(form, linear seed pose) of the absolute solves of the criterion-4 grid."""
    return [(form, pose0) for form, pose0 in _criterion_4_grid()
            if form.lift is ABSOLUTE_LIFT]


class TestReducedPath:
    def test_one_solve_reaches_the_tight_alternation(self):
        # From the identity and from the linear seed the reduced solve
        # returns the same rotation, and an objective no higher than the
        # alternation reaches at a tight outer tolerance, relative to the
        # objective at the identity pose.
        tight = AmmConfig(tol_outer=1e-15, max_outer_iters=2000)
        solves = 0
        for form, pose0 in _absolute_grid():
            scale = form.value(np.eye(3), np.zeros(3))
            reference = solve_amm(BlockQuadricsOnly(form), pose0.translation, tight,
                                  rotation_init=pose0.rotation)
            linear = solve_amm(form, pose0.translation, rotation_init=pose0.rotation)
            identity = solve_amm(form, np.zeros(3))
            assert np.linalg.norm(linear.pose.rotation
                                  - identity.pose.rotation) <= 1e-9
            for result in (linear, identity):
                assert result.outer_iterations == 1 and result.converged
                assert (result.final_objective
                        <= reference.final_objective + 1e-12 * scale)
            solves += 1
        assert solves == 72

    def test_one_subsolve_per_block_through_the_module(self, monkeypatch):
        # Both block solves are looked up on the module, once each, and a
        # proxy that forwards attributes keeps the reduced path: the
        # contract methods are called only for the start, outer and final
        # values.
        calls = []
        for name in ("rotation_subsolve", "translation_subsolve"):
            original = getattr(amm, name)

            def recorded(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)
            monkeypatch.setattr(amm, name, recorded)
        for form, pose0 in _absolute_grid()[:6]:
            direct = solve_amm(form, pose0.translation, rotation_init=pose0.rotation)
            counter = CallCounter(form)
            proxied = solve_amm(counter, pose0.translation, rotation_init=pose0.rotation)
            assert proxied.objective_trace == direct.objective_trace
            np.testing.assert_array_equal(proxied.pose.rotation, direct.pose.rotation)
            assert counter.calls == {"value": 3, "rotation_gradient": 0,
                                     "translation_gradient": 0}
        assert calls == ["rotation_subsolve", "translation_subsolve"] * 12

    def test_outer_settings_do_not_act(self):
        loose = AmmConfig(tol_outer=1.0, max_outer_iters=1)
        tight = AmmConfig(tol_outer=1e-15, max_outer_iters=2000)
        for form, pose0 in _absolute_grid()[::9]:
            results = [solve_amm(form, pose0.translation, config,
                                 rotation_init=pose0.rotation)
                       for config in (AmmConfig(), loose, tight)]
            for result in results[1:]:
                assert result.objective_trace == results[0].objective_trace
                np.testing.assert_array_equal(result.pose.rotation,
                                              results[0].pose.rotation)

    def test_rise_keeps_the_start(self, rng):
        r_star = random_rotation(rng)
        t_star = rng.normal(size=3)
        objective = MisleadingReducedQuadric(r_star, t_star, random_rotation(rng))
        result = solve_amm(objective, t_star, rotation_init=r_star)
        assert result.converged
        assert result.outer_iterations == 1
        assert result.objective_trace == ()
        np.testing.assert_allclose(result.pose.rotation, r_star, atol=1e-12)
        np.testing.assert_array_equal(result.pose.translation, t_star)

    def test_gec_forms_alternate(self):
        # GEC forms have no reduced quadric: the default solve is the
        # alternation, bit for bit.
        outer = []
        for form, pose0 in _criterion_4_grid():
            if form.lift is not GEC_LIFT:
                continue
            direct = solve_amm(form, pose0.translation, rotation_init=pose0.rotation)
            alternation = solve_amm(BlockQuadricsOnly(form), pose0.translation,
                                    rotation_init=pose0.rotation)
            assert direct.objective_trace == alternation.objective_trace
            assert direct.outer_iterations == alternation.outer_iterations
            np.testing.assert_array_equal(direct.pose.rotation,
                                          alternation.pose.rotation)
            np.testing.assert_array_equal(direct.pose.translation,
                                          alternation.pose.translation)
            outer.append(direct.outer_iterations)
        assert len(outer) == 18
        assert sum(outer) > 3 * len(outer)


def _grid_solves(forcing, wrap):
    """Solve the criterion-4 grid with ``amm._FORCING`` set to ``forcing``,
    each form passed through ``wrap`` (``BlockQuadricsOnly`` for the
    alternation on block quadrics, ``ContractOnly`` for the generic path).

    -> (results, rotation steps per solve, tolerance of every rotation
    subsolve, rotation steps per subsolve). A step is a gradient
    evaluation of the rotation block.
    """
    steps, tols, subsolve_steps = [], [], []
    block, subsolve = amm._rotation_block, amm.rotation_subsolve

    def counting_block(objective, t):
        gradient, curvature, line = block(objective, t)
        subsolve_steps.append(0)

        def counted(x):
            steps[-1] += 1
            subsolve_steps[-1] += 1
            return gradient(x)
        return counted, curvature, line

    def recording_subsolve(objective, rotation_init, translation_fixed, tol):
        tols.append(tol)
        return subsolve(objective, rotation_init, translation_fixed, tol)

    results = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(amm, "_FORCING", forcing)
        patch.setattr(amm, "_rotation_block", counting_block)
        patch.setattr(amm, "rotation_subsolve", recording_subsolve)
        for form, pose0 in _criterion_4_grid():
            steps.append(0)
            results.append(solve_amm(wrap(form), pose0.translation,
                                     rotation_init=pose0.rotation))
    return results, steps, tols, subsolve_steps


@pytest.fixture(scope="module")
def forcing_runs():
    # The schedule acts on the alternation, so absolute forms are solved
    # behind BlockQuadricsOnly on the quadric path.
    return {"forced": _grid_solves(amm._FORCING, BlockQuadricsOnly),
            "unforced": _grid_solves(0.0, BlockQuadricsOnly),
            "generic forced": _grid_solves(amm._FORCING, ContractOnly),
            "generic unforced": _grid_solves(0.0, ContractOnly)}


def _forcing_step_ratio(forcing_runs, path):
    forced = sum(forcing_runs[path + "forced"][1])
    unforced = sum(forcing_runs[path + "unforced"][1])
    solves = len(forcing_runs[path + "forced"][1])
    print(f"\n{path}rotation steps on the criterion-4 grid ({solves} solves): "
          f"forced {forced} ({forced / solves:.1f} per solve), "
          f"unforced {unforced} ({unforced / solves:.1f} per solve)")
    assert solves == 90
    return forced / unforced


class TestForcingSchedule:
    def test_forcing_saves_rotation_steps(self, forcing_runs):
        # Steepest descent, the generic path.
        assert _forcing_step_ratio(forcing_runs, "generic ") <= 0.7

    def test_forcing_saves_newton_steps(self, forcing_runs):
        # Newton steps converge fast even to tight tolerances, so forcing
        # saves only about a twelfth of the rotation steps of the quadric
        # path here (14.7 -> 13.4 per solve, ratio 0.92), and on the
        # acceptance protocol 8% of them on linear seeds and 19% on
        # identity seeds, with no measurable change in trials per second.
        assert _forcing_step_ratio(forcing_runs, "") <= 0.95

    def test_newton_steps_keep_subsolves_short(self, forcing_runs):
        # Newton steps on the rotation quadric take a median of 2 (mean
        # 2.1) gradient evaluations per rotation subsolve here; steepest
        # descent alone takes 5 (mean 6.8).
        per_subsolve = forcing_runs["forced"][3]
        assert statistics.median(per_subsolve) <= 3

    def test_every_solve_converges(self, forcing_runs):
        for results, _, _, _ in forcing_runs.values():
            assert all(result.converged for result in results)

    def test_poses_agree_with_unforced(self, forcing_runs):
        for forced, unforced in zip(forcing_runs["forced"][0],
                                    forcing_runs["unforced"][0]):
            assert np.linalg.norm(forced.pose.rotation - unforced.pose.rotation) <= 1e-3
            assert np.linalg.norm(forced.pose.translation
                                  - unforced.pose.translation) <= 1e-2

    def test_tolerance_never_below_configured(self, forcing_runs):
        floor = AmmConfig().tol_rotation
        tols = forcing_runs["forced"][2]
        assert min(tols) >= floor
        assert max(tols) > floor                      # the schedule did act
        assert all(tol == floor for tol in forcing_runs["unforced"][2])

    def test_configured_tolerance_is_first_and_floor(self):
        # A loose configured tolerance binds once the rotation moves less
        # than tol_rotation / _FORCING per outer iteration.
        seen = []
        subsolve = amm.rotation_subsolve

        def recording(objective, rotation_init, translation_fixed, tol):
            seen.append(tol)
            return subsolve(objective, rotation_init, translation_fixed, tol)

        config = AmmConfig(tol_rotation=1e-5)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(amm, "rotation_subsolve", recording)
            for form, _ in itertools.islice(_criterion_4_grid(), 0, 90, 9):
                start = len(seen)
                solve_amm(BlockQuadricsOnly(form), np.zeros(3), config)
                assert seen[start] == 1e-5
        assert min(seen) == 1e-5
        assert max(seen) > 1e-5
        assert seen.count(1e-5) > 10


# ---------------------------------------------------------------------------
# Newton steps on the rotation quadric


def _block_forms():
    """(name, form, translation, block minimizer) at the true translation of
    a noisy non-central scene, for each shipped lift."""
    config = SceneConfig(seed=3, noise_sigma_px=2.0, rig=RIG_NON_CENTRAL)
    truth, corrs = generate_absolute_scene(config)
    truth_rel, rays = generate_relative_scene(config)
    out = []
    for name, form, pose in (("gpnp", build_gpnp_form(corrs), truth),
                             ("upnp", build_upnp_form(corrs), truth),
                             ("gec", build_gec_form(rays), truth_rel)):
        minimizer = rotation_subsolve(form, pose.rotation, pose.translation, 1e-14)
        out.append((name, form, pose.translation, minimizer))
    return out


BLOCK_FORMS = _block_forms()


def _unit_axis(m):
    a = np.array([m[1, 2] - m[2, 1], m[2, 0] - m[0, 2], m[0, 1] - m[1, 0]])
    return a / np.linalg.norm(a)


def _solve_logging_steps(objective, start, t):
    """rotation_subsolve, logging per line search (steepest, x) where
    ``steepest`` tells whether its axis is the unit gradient axis: a
    steepest-descent step, where a Newton step has the axis Hn^-1 a."""
    log = []
    block = amm._rotation_block

    def logging_block(objective, t):
        gradient, curvature, line = block(objective, t)

        def logged_line(x):
            search = line(x)
            axis = _unit_axis(gradient(x) @ x.T)

            def logged_search(step_axis, gu, gw):
                steepest = np.allclose(step_axis, axis, rtol=0.0, atol=1e-12)
                log.append((steepest, np.array(x)))
                return search(step_axis, gu, gw)
            return logged_search
        return gradient, curvature, logged_line

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(amm, "_rotation_block", logging_block)
        out = rotation_subsolve(objective, start, t)
    return out, log


class TestNewtonSteps:
    def test_curvature_only_on_quadrics(self):
        _, form, t, _ = BLOCK_FORMS[0]
        assert amm._rotation_block(form, t)[1] is not None
        assert amm._rotation_block(ContractOnly(form), t)[1] is None

    @pytest.mark.parametrize("index", range(len(BLOCK_FORMS)))
    def test_indefinite_hessian_falls_back_without_rising(self, index):
        # About pi away from the block minimizer the Riemannian Hessian is
        # indefinite: no Newton step exists, steepest descent steps in,
        # and the block objective never rises.
        name, form, t, minimizer = BLOCK_FORMS[index]
        p, q, k = form.rotation_quadric(t)

        def block_value(x):
            return float(vec(x) @ p @ vec(x) + q @ vec(x) + k)

        gradient, curvature, _ = amm._rotation_block(form, t)
        for axis in ([1.0, 0.3, -0.2], [0.2, -1.0, 0.5], [-0.4, 0.1, 1.0]):
            axis = np.asarray(axis) / np.linalg.norm(axis)
            start = minimizer @ rodrigues_step(axis, 0.97 * np.pi)
            m = gradient(start) @ start.T
            hessian = (np.array(curvature(start)) + 0.5 * (m + m.T)
                       - np.trace(m) * np.eye(3))
            if np.linalg.eigvalsh(hessian)[0] >= 0.0:
                continue
            out, log = _solve_logging_steps(form, start, t)
            assert log[0][0], name                    # the first step is steepest
            assert not all(steepest for steepest, _ in log), name
            # The solver accepts a step on its closed-form change; evaluated
            # directly, the quadric rounds differently near the minimum.
            values = [block_value(x) for _, x in log] + [block_value(out)]
            slack = 1e-12 * values[0]
            assert all(cur <= prev + slack
                       for prev, cur in zip(values, values[1:])), name
            assert values[-1] < values[0]
            break
        else:
            pytest.fail(f"{name}: no start with an indefinite Hessian")

    @settings(max_examples=30, deadline=None)
    @given(index=st.integers(0, len(BLOCK_FORMS) - 1), k=st.integers(-20, 20),
           seed=st.integers(0, 2 ** 16))
    def test_rotation_is_invariant_to_objective_scale(self, index, k, seed):
        # Scaling the objective by c = 2^k scales the gradient, the Hessian
        # and the change along a step alike, so Newton steps, which
        # compare only their ratios, do not change; the steepest-descent
        # fallback's mu schedule would.
        name, form, t, minimizer = BLOCK_FORMS[index]
        rng = np.random.default_rng(seed)
        axis = rng.normal(size=3)
        start = minimizer @ rodrigues_step(axis / np.linalg.norm(axis), 0.05)
        scaled = QuadricForm(2.0 ** k * form.h, form.lift)
        base, base_log = _solve_logging_steps(form, start, t)
        out, log = _solve_logging_steps(scaled, start, t)
        assert not any(steepest for steepest, _ in base_log), name
        assert not any(steepest for steepest, _ in log), name
        np.testing.assert_allclose(out, base, rtol=0.0, atol=1e-12)
