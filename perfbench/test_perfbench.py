"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from poseamm import bench, geometry  # noqa: E402

import checks  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402


def _tiny(name):
    if name == "wide-scene":
        return workloads.WideWorkload(seed=5, points=40)
    return workloads.SweepWorkload(name, seed=5, levels=(0.0, 2.0))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", [w["name"] for w in spec.WORKLOADS])
def test_every_metric_is_emitted(name, trace, tmp_path):
    result, info, tracer = workloads.run(_tiny(name), 0.05, trace, tmp_path, 0.0, 0.0)
    assert result["correct"], info["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = spec.PER_LAYER if trace else spec.END_TO_END
    assert {m["name"] for m in wanted} <= set(result["metrics"])
    assert (tracer is not None) == trace
    if trace:
        assert result["metrics"]["amm.solve_amm_us"] > 0
    else:
        assert all(result["metrics"][m["name"]] > 0 for m in spec.END_TO_END)


def _solved_scene():
    config = bench.SceneConfig(noise_sigma_px=2.0, seed=11)
    truth, corrs = bench.generate_absolute_scene(config)
    form = bench.build_objective(bench.SOLVER_GPNP, corrs)
    seed_pose = bench.initial_pose(bench.SOLVER_GPNP, bench.INIT_LINEAR, corrs, form)
    result = bench.solve_amm(form, seed_pose.translation,
                             rotation_init=seed_pose.rotation)
    return truth, form, result


def test_checker_accepts_the_solver_pose():
    truth, form, result = _solved_scene()
    found = checks.assess(truth, form, result.pose.rotation,
                          result.pose.translation, result.final_objective,
                          result.converged, checks.level_bounds(2.0))
    assert found.within and not found.problems


def test_checker_rejects_a_wrong_pose():
    truth, form, result = _solved_scene()
    wrong = geometry.rodrigues_step(np.array([0.0, 0.0, 1.0]), 0.3) @ result.pose.rotation
    found = checks.assess(truth, form, wrong, result.pose.translation,
                          float(form.value(wrong, result.pose.translation)),
                          True, checks.level_bounds(2.0))
    assert not found.within
    assert any("not stationary" in p for p in found.problems)


def test_miss_gate_follows_the_calibrated_rate(monkeypatch):
    monkeypatch.setitem(checks.MISSES, "acceptance-sweep",
                        {"relative-noncentral/noisy": [99, 10000]})
    allowed = checks.allowed_misses("acceptance-sweep",
                                    "relative-noncentral/noisy", 1000)
    assert 10 < allowed < 30          # 10 misses expected at a 1% rate
    assert checks.allowed_misses("acceptance-sweep", "absolute-central/noisy",
                                 1000) == 0
    assert checks.allowed_misses("wide-scene", bench.SOLVER_GPNP, 1000) == 0
    tally = workloads.Tally()
    tally.cells = {"relative-noncentral/noisy": [allowed, 1000],
                   "relative-noncentral/zero": [0, 200]}
    tally.check_misses("acceptance-sweep")
    assert not tally.problems
    tally.cells["relative-noncentral/noisy"][0] += 1
    assert tally.check_misses("acceptance-sweep")["relative-noncentral/noisy"] == [
        allowed + 1, 1000, allowed]
    assert len(tally.problems) == 1


def test_wide_scene_rejects_a_wrong_printed_pose(tmp_path):
    workload = workloads.WideWorkload(seed=5, points=40)
    probe = workloads.instrument.Probe()
    probe.install()
    try:
        workload.setup(probe, tmp_path)
        probe.truth = workload.truths["absolute"]
        code, text = workload._solve(workload.paths["absolute"], bench.SOLVER_GPNP)
        captured = probe.solves[:]
    finally:
        probe.uninstall()
    lines = text.splitlines()
    lines[0] = "rotation: " + " ".join(["1", "0", "0", "0", "0", "-1", "0", "1", "0"])
    tally = workloads.Tally()
    workload._check(bench.SOLVER_GPNP, "absolute", code, "\n".join(lines) + "\n",
                    captured, workloads.Phase(), tally)
    assert tally.within == 0
    assert any("printed pose differs" in p for p in tally.problems)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "acceptance-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_manifest_matches_the_definitions():
    assert (ROOT / "BENCHMARK.json").read_text(encoding="utf-8") == spec.render()
