"""Acceptance gates for the whole package.

Each criterion prints one PASS/FAIL line (run ``pytest tests/test_acceptance.py
-v -s`` to see them); the assertions enforce the same bounds under plain
``pytest``. The noise-trend sweeps are shared between criteria 6 and 8 via a
module-level cache; criterion 8 re-runs them from scratch to compare bytes.
"""

import functools
import time

import numpy as np

from conftest import (fd_rotation_gradient, fd_translation_gradient,
                      random_pose_arrays, relative_gradient_error)
from poseamm import fileio
from poseamm.absolute import build_gpnp_form, build_upnp_form
from poseamm.amm import AmmConfig, solve_amm, translation_subsolve
from poseamm.bench import (RIG_CENTRAL, RIG_NON_CENTRAL, SceneConfig,
                           generate_absolute_scene, generate_relative_scene,
                           run_sweep)
from poseamm.geometry import skew
from poseamm.initializers import init_absolute_linear, init_relative_17pt
from poseamm.objectives import PoseObjective
from poseamm.relative import build_gec_form

SEED = 1234567
LEVELS = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
TRIALS = 200

FAMILIES = {
    "relative-noncentral": ("relative", RIG_NON_CENTRAL, ("amm-gec",)),
    "absolute-central": ("absolute", RIG_CENTRAL, ("amm-gpnp", "amm-upnp")),
    "absolute-noncentral": ("absolute", RIG_NON_CENTRAL, ("amm-gpnp", "amm-upnp")),
}


def _report(tag, ok, detail):
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def _family_sweep(family, levels, trials, measure_time):
    problem, rig, solvers = FAMILIES[family]
    config = SceneConfig(seed=SEED, rig=rig)
    return run_sweep(config, problem, levels, trials, solvers=solvers,
                     measure_time=measure_time)


@functools.lru_cache(maxsize=1)
def _trend_sweeps():
    start = time.perf_counter()
    sweeps = {family: _family_sweep(family, LEVELS, TRIALS, False)
              for family in FAMILIES}
    return sweeps, time.perf_counter() - start


def _scene_objective(kind, seed, sigma=3.0, points=20):
    if kind == "gec":
        _, corrs = generate_relative_scene(
            SceneConfig(seed=seed, noise_sigma_px=sigma,
                        num_correspondences=points))
        return corrs, build_gec_form(corrs)
    _, corrs = generate_absolute_scene(
        SceneConfig(seed=seed, noise_sigma_px=sigma, num_correspondences=points))
    builder = build_gpnp_form if kind == "gpnp" else build_upnp_form
    return corrs, builder(corrs)


def test_criterion_1_zero_noise_exact_recovery():
    worst = []
    for family in FAMILIES:
        records = _family_sweep(family, [0.0], TRIALS, True)
        by_solver = {}
        for record in records:
            by_solver.setdefault(record.solver_name, []).append(record)
        for solver, rows in by_solver.items():
            hits = sum(1 for r in rows
                       if r.rot_err_frobenius < 1e-6 and r.trans_err_norm < 1e-5)
            rate = hits / len(rows)
            median_ms = float(np.median([r.wall_time_ns for r in rows])) / 1e6
            worst.append((f"{family}/{solver}", rate, median_ms))
    ok = all(rate >= 0.99 and median_ms < 50.0 for _, rate, median_ms in worst)
    detail = "; ".join(f"{name} rate={rate:.3f} median={median_ms:.2f}ms"
                       for name, rate, median_ms in worst)
    _report("criterion 1 zero-noise recovery", ok, detail)


def test_criterion_2_gradient_correctness():
    worst = {}
    for offset, kind in enumerate(("gec", "gpnp", "upnp")):
        rng = np.random.default_rng(SEED + offset)
        err = 0.0
        for seed in range(100):
            _, objective = _scene_objective(kind, seed, sigma=3.0, points=12)
            rotation, translation = random_pose_arrays(rng)
            err = max(err, relative_gradient_error(
                objective.rotation_gradient(rotation, translation),
                fd_rotation_gradient(objective, rotation, translation)))
            err = max(err, relative_gradient_error(
                objective.translation_gradient(rotation, translation),
                fd_translation_gradient(objective, rotation, translation)))
        worst[kind] = err
    ok = all(err < 1e-5 for err in worst.values())
    detail = ", ".join(f"{k} worst rel err {v:.2e}" for k, v in worst.items())
    _report("criterion 2 gradient correctness", ok, detail)


def _stacked_system(corrs):
    n = len(corrs)
    a = np.zeros((3 * n, n + 3))
    for i, bearing in enumerate(corrs.bearings):
        a[3 * i:3 * i + 3, i] = bearing
        a[3 * i:3 * i + 3, n:] = -np.eye(3)
    return a


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    worst = {"gec": 0.0, "gpnp": 0.0, "upnp": 0.0}
    for seed in range(100):
        rotation, translation = random_pose_arrays(rng)

        corrs, gec = _scene_objective("gec", seed)
        block = np.zeros((6, 6))
        block[:3, :3] = skew(translation) @ rotation
        block[:3, 3:] = rotation
        block[3:, :3] = rotation
        direct = sum(float(np.concatenate([d1, m1]) @ block
                           @ np.concatenate([d2, m2])) ** 2
                     for d1, m1, d2, m2 in zip(corrs.d1, corrs.m1, corrs.d2, corrs.m2))
        got = gec.value(rotation, translation)
        worst["gec"] = max(worst["gec"], abs(got - direct) / max(direct, 1e-30))

        corrs, gpnp = _scene_objective("gpnp", seed)
        direct = 0.0
        for point, v, offset in zip(corrs.points, corrs.bearings, corrs.offsets):
            y = rotation @ point + translation - offset
            r = y - v * (v @ y)
            direct += float(r @ r)
        got = gpnp.value(rotation, translation)
        worst["gpnp"] = max(worst["gpnp"], abs(got - direct) / max(direct, 1e-30))

        corrs, upnp = _scene_objective("upnp", seed)
        rhs = np.concatenate([rotation @ point - offset
                              for point, offset in zip(corrs.points, corrs.offsets)])
        dense, *_ = np.linalg.lstsq(_stacked_system(corrs), rhs, rcond=None)
        direct = 0.0
        for i, (point, bearing, offset) in enumerate(
                zip(corrs.points, corrs.bearings, corrs.offsets)):
            eta = (float(dense[i]) * bearing + offset
                   - rotation @ point - translation)
            direct += float(eta @ eta)
        got = upnp.value(rotation, translation)
        worst["upnp"] = max(worst["upnp"], abs(got - direct) / max(direct, 1e-30))
    ok = all(err < 1e-9 for err in worst.values())
    detail = ", ".join(f"{k} worst rel diff {v:.2e}" for k, v in worst.items())
    _report("criterion 3 oracle equivalence", ok, detail)


class _Recorder(PoseObjective):
    def __init__(self, inner):
        self.inner = inner
        self.rotations = []

    def value(self, rotation, translation):
        return self.inner.value(rotation, translation)

    def rotation_gradient(self, rotation, translation):
        self.rotations.append(np.array(rotation))
        return self.inner.rotation_gradient(rotation, translation)

    def translation_gradient(self, rotation, translation):
        return self.inner.translation_gradient(rotation, translation)


def test_criterion_4_amm_structural_invariants():
    # Instrumented benchmark trials across the full noise grid; run_sweep
    # additionally enforces trace monotonicity on every trial of the other
    # criteria's sweeps.
    checked_traces = 0
    checked_iterates = 0
    for family, (problem, rig, solvers) in FAMILIES.items():
        for sigma in LEVELS:
            for trial in range(3):
                config = SceneConfig(seed=SEED, rig=rig, noise_sigma_px=sigma)
                rng = np.random.default_rng([SEED, int(sigma), trial])
                if problem == "relative":
                    _, corrs = generate_relative_scene(config, rng)
                    objectives = {"amm-gec": build_gec_form(corrs)}
                    inits = {"amm-gec": init_relative_17pt(corrs)}
                else:
                    _, corrs = generate_absolute_scene(config, rng)
                    objectives = {"amm-gpnp": build_gpnp_form(corrs),
                                  "amm-upnp": build_upnp_form(corrs)}
                    inits = {name: init_absolute_linear(obj)
                             for name, obj in objectives.items()}
                for name in solvers:
                    recorder = _Recorder(objectives[name])
                    pose0 = inits[name]
                    result = solve_amm(recorder, pose0.translation,
                                       rotation_init=pose0.rotation)
                    trace = result.objective_trace
                    for prev, cur in zip(trace, trace[1:]):
                        assert cur <= prev + 1e-12, f"{family}/{name}: trace rose"
                    checked_traces += 1
                    for iterate in recorder.rotations:
                        gram_err = np.linalg.norm(
                            iterate @ iterate.T - np.eye(3))
                        assert gram_err < 1e-9, f"{family}/{name}: off manifold"
                        assert np.linalg.det(iterate) > 0.0
                        checked_iterates += 1
    _report("criterion 4 structural invariants", True,
            f"{checked_traces} traces nonincreasing, "
            f"{checked_iterates} rotation iterates on SO(3)")


def test_criterion_5_evaluation_cost_independent_of_n():
    ratios = {}
    for kind, builder in (("gpnp", build_gpnp_form), ("upnp", build_upnp_form)):
        forms = {}
        for n in (20, 2000):
            truth, corrs = generate_absolute_scene(
                SceneConfig(seed=SEED, num_correspondences=n))
            forms[n] = (builder(corrs), truth.rotation, truth.translation)
        # Interleave the measurements so machine drift hits both sizes alike.
        samples = {20: [], 2000: []}
        for form, rotation, translation in forms.values():
            form.value(rotation, translation)  # warm-up
        for _ in range(10_000):
            for n, (form, rotation, translation) in forms.items():
                tic = time.perf_counter_ns()
                form.value(rotation, translation)
                form.rotation_gradient(rotation, translation)
                form.translation_gradient(rotation, translation)
                samples[n].append(time.perf_counter_ns() - tic)
        med_small = float(np.median(samples[20]))
        med_large = float(np.median(samples[2000]))
        ratios[kind] = max(med_large / med_small, med_small / med_large)
    ok = all(ratio < 2.0 for ratio in ratios.values())
    detail = ", ".join(f"{k} median ratio {v:.2f}" for k, v in ratios.items())
    _report("criterion 5 evaluation cost O(1)", ok, detail)


def _trend_violations(means):
    """Adjacent-level inversions as (index, relative drop) pairs."""
    out = []
    for i in range(len(means) - 1):
        if means[i + 1] < means[i]:
            drop = (means[i] - means[i + 1]) / means[i] if means[i] > 0 else 0.0
            out.append((i, drop))
    return out


def test_criterion_6_noise_trend():
    sweeps, elapsed = _trend_sweeps()
    failures = []
    summaries = []
    for family, records in sweeps.items():
        by_solver = {}
        for record in records:
            by_solver.setdefault(record.solver_name, {}).setdefault(
                record.noise_sigma, []).append(record)
        for solver, by_level in by_solver.items():
            for metric in ("rot_err_frobenius", "trans_err_norm"):
                means = [float(np.mean([getattr(r, metric)
                                        for r in by_level[sigma]]))
                         for sigma in LEVELS]
                violations = _trend_violations(means)
                tolerable = (len(violations) == 0
                             or (len(violations) == 1 and violations[0][1] <= 0.10))
                if not tolerable:
                    failures.append(f"{family}/{solver}/{metric}: "
                                    f"means={['%.3g' % m for m in means]}")
                summaries.append(f"{family}/{solver}/{metric[:3]} "
                                 f"{means[0]:.2g}->{means[-1]:.2g}")
    ok = not failures and elapsed < 300.0
    detail = (f"sweep {elapsed:.0f}s; " + "; ".join(failures)
              if failures else f"sweep {elapsed:.0f}s, all curves non-decreasing")
    _report("criterion 6 noise trend", ok, detail)


def test_criterion_7_translation_solver_agreement():
    rng = np.random.default_rng(SEED + 7)
    config = AmmConfig(tol_translation=1e-13)
    worst = 0.0
    for seed in range(100):
        _, form = _scene_objective("gpnp" if seed % 2 == 0 else "upnp", seed,
                                   sigma=2.0)
        rotation, _ = random_pose_arrays(rng)
        descent = translation_subsolve(form, np.zeros(3), rotation, config)
        exact = form.closed_form_translation(rotation)
        worst = max(worst, float(np.linalg.norm(descent - exact)))
    ok = worst < 1e-6
    _report("criterion 7 translation agreement", ok, f"worst diff {worst:.2e}")


def test_criterion_8_sweep_determinism():
    sweeps, _ = _trend_sweeps()
    first = "".join(fileio.records_to_csv(sweeps[f]) for f in FAMILIES)
    repeat = {family: _family_sweep(family, LEVELS, TRIALS, False)
              for family in FAMILIES}
    second = "".join(fileio.records_to_csv(repeat[f]) for f in FAMILIES)
    ok = first == second
    _report("criterion 8 determinism", ok,
            f"{len(first)} CSV bytes reproduced" if ok else "CSV bytes differ")
