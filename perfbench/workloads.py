"""The benchmark workloads: set-up, measured phases, checks and metrics.

``acceptance-sweep`` and ``identity-seed`` drive ``bench.run_sweep`` and
``fileio.records_to_csv`` in rounds. Round r sweeps every family over the
noise grid with one trial per level, at scene seed ``seed + r *
ROUND_SEED_STRIDE``, so round 0 of the default seed is the first trial of
the acceptance protocol. ``wide-scene`` writes two N=2000 correspondence
files during set-up and then solves them through ``cli.main`` in rounds of
one solve per solver.

A phase runs whole rounds until its measured time reaches the requested
seconds. Checks run between rounds with the clock stopped, and keep only
scalars, so memory does not grow with throughput. Before the first round
and after each round the ``yardstick`` measures the host slowdown, also
with the clock stopped; the reported times of a round, and of a set-up,
are the measured ones divided by the mean of the slowdowns right before
and right after it, and the raw times go to the run information.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import resource
import statistics
import time
from pathlib import Path

import numpy as np
from poseamm import bench, cli, fileio
from poseamm.amm import AmmConfig

import checks
import instrument
import yardstick

NOISE_LEVELS = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
SWEEP_POINTS = 20
TRIALS_PER_ROUND = 1
ROUND_SEED_STRIDE = 1_000_003
FAMILIES = (
    ("relative-noncentral", bench.PROBLEM_RELATIVE, bench.RIG_NON_CENTRAL),
    ("absolute-central", bench.PROBLEM_ABSOLUTE, bench.RIG_CENTRAL),
    ("absolute-noncentral", bench.PROBLEM_ABSOLUTE, bench.RIG_NON_CENTRAL),
)
SWEEP_INIT = {"acceptance-sweep": bench.INIT_LINEAR,
              "identity-seed": bench.INIT_IDENTITY}

WIDE_POINTS = 2000
WIDE_NOISE_PX = 2.0
WARMUP_POINTS = 20
WIDE_SOLVES = ((bench.SOLVER_GPNP, fileio.KIND_ABSOLUTE),
               (bench.SOLVER_UPNP, fileio.KIND_ABSOLUTE),
               (bench.SOLVER_GEC, fileio.KIND_RELATIVE))

SETUP_REPEATS = 5
WARMUP_AMM = AmmConfig(max_outer_iters=2)


class BenchmarkError(Exception):
    """The workload could not run as specified."""


@dataclasses.dataclass
class Phase:
    """Measured time and per-op outcomes of one phase.

    ``host_seconds`` and ``op_host_ns`` are the measured times divided by
    the host slowdown of their round. ``slowdowns`` holds the slowdown
    measured before the first round, then one after each round.
    """

    seconds: float = 0.0
    host_seconds: float = 0.0
    op_ns: list = dataclasses.field(default_factory=list)
    op_host_ns: list = dataclasses.field(default_factory=list)
    slowdowns: list = dataclasses.field(default_factory=list)
    outer_iterations: list = dataclasses.field(default_factory=list)
    converged: list = dataclasses.field(default_factory=list)
    rounds: int = 0
    digest: str = ""

    @property
    def ops_per_s(self) -> float:
        return len(self.op_ns) / self.seconds

    @property
    def ops_per_host_s(self) -> float:
        return len(self.op_ns) / self.host_seconds

    def end_round(self, seconds: float, first_op: int) -> None:
        """Account a round measured at ``seconds`` whose ops start at ``first_op``."""
        self.slowdowns.append(yardstick.measure())
        slowdown = (self.slowdowns[-2] + self.slowdowns[-1]) / 2
        self.seconds += seconds
        self.host_seconds += seconds / slowdown
        self.op_host_ns.extend(ns / slowdown for ns in self.op_ns[first_op:])
        self.rounds += 1


class Tally:
    """Check outcomes over every measured op of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.within = 0
        self.rot_err = []
        self.trans_err = []
        self.fit = []
        self.cells = {}      # cell -> [solves outside the bounds, solves]
        self.problems = []

    def problem(self, text: str) -> None:
        self.problems.append(text)

    def add(self, found: checks.Assessment, label: str, cell: str) -> None:
        self.rot_err.append(found.rot_err)
        self.trans_err.append(found.trans_err)
        if found.fit is not None:
            self.fit.append(found.fit)
        self.within += found.within
        counts = self.cells.setdefault(cell, [0, 0])
        counts[0] += not found.within
        counts[1] += 1
        for text in found.problems:
            self.problem(f"{label}: {text}")

    def check_misses(self, workload: str) -> dict:
        """Fail every cell that missed the error bounds more often than
        ``checks.allowed_misses`` allows. -> {cell: [missed, solves, allowed]}"""
        misses = {}
        for cell, (missed, solves) in sorted(self.cells.items()):
            allowed = checks.allowed_misses(workload, cell, solves)
            misses[cell] = [missed, solves, allowed]
            if missed > allowed:
                self.problem(f"{cell}: {missed} of {solves} solves outside the "
                             f"error bounds, more than the {allowed} allowed")
        return misses


def round_seed(seed: int, round_index: int) -> int:
    return seed + round_index * ROUND_SEED_STRIDE


def _time_zeroed_csv(records) -> str:
    return fileio.records_to_csv(
        [dataclasses.replace(r, wall_time_ns=0) for r in records])


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------- sweeps

class SweepWorkload:
    """``run_sweep`` + ``records_to_csv`` over all families, in rounds."""

    def __init__(self, name: str, seed: int, levels=NOISE_LEVELS,
                 points: int = SWEEP_POINTS):
        self.name = name
        self.seed = seed
        self.init = SWEEP_INIT[name]
        self.levels = tuple(levels)
        self.points = points
        self.round0_csv = {}

    def setup(self, probe, workdir: Path) -> None:
        """Warm-up: one trial per family at the first two noise levels.

        Solves are capped at two outer iterations, so the warm-up costs
        about the same whatever the seed.
        """
        for _, problem, rig in FAMILIES:
            config = bench.SceneConfig(num_correspondences=self.points, rig=rig,
                                       seed=self.seed)
            bench.run_sweep(config, problem, self.levels[:2], 1, init=self.init,
                            amm_config=WARMUP_AMM)
        probe.solves.clear()

    def _sweep(self, round_index: int, problem: str, rig: str, **kwargs):
        config = bench.SceneConfig(num_correspondences=self.points, rig=rig,
                                   seed=round_seed(self.seed, round_index))
        return bench.run_sweep(config, problem, self.levels, TRIALS_PER_ROUND,
                               init=self.init, **kwargs)

    def run_phase(self, probe, seconds: float, tally: Tally, label: str) -> Phase:
        phase = Phase(slowdowns=[yardstick.measure()])
        while phase.seconds < seconds:
            start = time.perf_counter()
            swept = []
            for family, problem, rig in FAMILIES:
                records = probe.call("bench.run_sweep", self._sweep,
                                     phase.rounds, problem, rig)
                text = probe.call("fileio.records_to_csv", fileio.records_to_csv,
                                  records)
                swept.append((family, records, text, probe.solves[:]))
                probe.solves.clear()
            elapsed = time.perf_counter() - start
            first_op = len(phase.op_ns)
            for family, records, text, solves in swept:
                self._check(family, records, text, solves, phase, tally)
            if phase.rounds == 0:
                zeroed = "".join(_time_zeroed_csv(records)
                                 for _, records, _, _ in swept)
                self.round0_csv[label] = zeroed
                phase.digest = _sha256(zeroed)
            phase.end_round(elapsed, first_op)
        return phase

    def _check(self, family, records, text, solves, phase: Phase, tally: Tally):
        if text.count("\n") != len(records) + 1:
            tally.problem(f"{family}: CSV has the wrong number of lines")
        solved = iter(solves)
        for record in records:
            tally.attempted += 1
            phase.op_ns.append(record.wall_time_ns)
            label = (f"{family}/{record.solver_name} noise {record.noise_sigma:g} "
                     f"round {phase.rounds}")
            if math.isinf(record.final_objective):
                tally.failed += 1
                tally.problem(f"{label}: solver failed")
                continue
            truth, form, result = next(solved, (None, None, None))
            if result is None:
                tally.problem(f"{label}: no captured solve for the record")
                continue
            if ((record.final_objective, record.outer_iterations, record.converged)
                    != (result.final_objective, result.outer_iterations,
                        result.converged)):
                tally.problem(f"{label}: record and solve disagree")
            phase.outer_iterations.append(result.outer_iterations)
            phase.converged.append(result.converged)
            tally.add(checks.assess(
                truth, form, result.pose.rotation, result.pose.translation,
                result.final_objective, result.converged,
                checks.level_bounds(record.noise_sigma),
                (record.rot_err_frobenius, record.trans_err_norm)), label,
                checks.cell_name(family, record.noise_sigma))
        if next(solved, None) is not None:
            tally.problem(f"{family}: more solves than records")

    def final_checks(self, tally: Tally) -> None:
        """Round 0 again with ``measure_time=False``: same CSV bytes."""
        texts = [fileio.records_to_csv(self._sweep(0, problem, rig,
                                                   measure_time=False))
                 for _, problem, rig in FAMILIES]
        for label, text in self.round0_csv.items():
            if text != "".join(texts):
                tally.problem(f"round 0 CSV of the {label} phase differs from "
                              "an untimed re-run")
        for text in texts:
            if fileio.records_to_csv(fileio.read_sweep_csv(io.StringIO(text))) != text:
                tally.problem("sweep CSV does not survive a read/write round trip")


# ---------------------------------------------------------------- wide scene

class WideWorkload:
    """``poseamm solve`` through ``cli.main`` on N=2000 files."""

    name = "wide-scene"

    def __init__(self, seed: int, points: int = WIDE_POINTS):
        self.seed = seed
        self.points = points
        self.truths = {}
        self.paths = {}
        self.first_output = {}

    def setup(self, probe, workdir: Path) -> None:
        """Generate and write both scenes, then warm up on 20-point files."""
        config = bench.SceneConfig(num_correspondences=self.points,
                                   noise_sigma_px=WIDE_NOISE_PX, seed=self.seed)
        scenes = {fileio.KIND_ABSOLUTE: bench.generate_absolute_scene(config),
                  fileio.KIND_RELATIVE: bench.generate_relative_scene(config)}
        warm = {}
        for kind, (truth, corrs) in scenes.items():
            self.truths[kind] = truth
            self.paths[kind] = workdir / f"{kind}.txt"
            warm[kind] = workdir / f"{kind}-warmup.txt"
            fileio.write_correspondence_file(self.paths[kind], kind, corrs)
            fileio.write_correspondence_file(warm[kind], kind, corrs[:WARMUP_POINTS])
        for solver, kind in WIDE_SOLVES:
            code, _ = self._solve(warm[kind], solver)
            if code != 0:
                raise BenchmarkError(f"warm-up solve {solver} exited {code}")
        probe.solves.clear()

    @staticmethod
    def _solve(path: Path, solver: str):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["solve", "--input", str(path), "--solver", solver])
        return code, out.getvalue()

    def run_phase(self, probe, seconds: float, tally: Tally, label: str) -> Phase:
        phase = Phase(slowdowns=[yardstick.measure()])
        while phase.seconds < seconds:
            done = []
            first_op = len(phase.op_ns)
            elapsed = 0
            for solver, kind in WIDE_SOLVES:
                probe.new_op()
                probe.truth = self.truths[kind]
                count = len(probe.solves)
                start = time.perf_counter_ns()
                try:
                    code, text = probe.call("cli.main", self._solve,
                                            self.paths[kind], solver)
                except (Exception, SystemExit) as exc:   # a crash is a failed op
                    code, text = repr(exc), ""
                op_ns = time.perf_counter_ns() - start
                elapsed += op_ns
                phase.op_ns.append(op_ns)
                captured = probe.solves[count:]
                done.append((solver, kind, code, text, captured))
            probe.solves.clear()
            for solver, kind, code, text, captured in done:
                self._check(solver, kind, code, text, captured, phase, tally)
            if phase.rounds == 0:
                phase.digest = _sha256("".join(t for _, _, _, t, _ in done))
            phase.end_round(elapsed / 1e9, first_op)
        return phase

    def _check(self, solver, kind, code, text, captured, phase, tally):
        tally.attempted += 1
        label = f"{solver} N={self.points}"
        if code != 0 or len(captured) != 1:
            tally.failed += 1
            tally.problem(f"{label}: solve exited {code} after {len(captured)} "
                          "solver runs")
            return
        if self.first_output.setdefault(solver, text) != text:
            tally.problem(f"{label}: output differs from the first solve")
        truth, form, result = captured[0]
        try:
            rotation, translation, objective, iterations, converged = (
                checks.parse_solve_output(text))
        except ValueError as exc:
            tally.problem(f"{label}: {exc}")
            return
        if not (np.array_equal(rotation, result.pose.rotation)
                and np.array_equal(translation, result.pose.translation)
                and (objective, iterations, converged)
                == (result.final_objective, result.outer_iterations,
                    result.converged)):
            tally.problem(f"{label}: printed pose differs from the solver's")
        phase.outer_iterations.append(result.outer_iterations)
        phase.converged.append(result.converged)
        tally.add(checks.assess(truth, form, rotation, translation, objective,
                                converged,
                                (checks.WIDE_ROT_ERR, checks.WIDE_TRANS_ERR)),
                  label, solver)

    def final_checks(self, tally: Tally) -> None:
        pass


def make_workload(name: str, seed: int):
    if name == "wide-scene":
        return WideWorkload(seed)
    return SweepWorkload(name, seed)


# ---------------------------------------------------------------- one run

def _percentile(values, q: float):
    """Linear-interpolated percentile; None when nothing was measured."""
    if not values:
        return None
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, seconds: float, trace: bool, workdir: Path, import_s: float,
        import_raw_s: float):
    """Set up, measure and check one workload. -> (result, info, tracer).

    ``import_s`` and ``import_raw_s`` are the host-normalized and the raw
    time a fresh interpreter takes to import the library; both are part of
    the set-up time.

    Untraced: set up ``SETUP_REPEATS`` times, then one measured phase of
    ``seconds``. Traced: the set-up is traced, then an untraced and a
    traced phase of ``seconds / 2`` each measure the tracing overhead.
    """
    probe = instrument.Probe()
    tracer = instrument.Tracer() if trace else None
    tally = Tally()
    setup_s = []
    setup_slowdowns = [yardstick.measure()]
    probe.install(tracer)
    try:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup(probe, workdir)
            setup_s.append(time.perf_counter() - start)
            setup_slowdowns.append(yardstick.measure())
        if trace:
            probe.uninstall()
            probe.install(None)
        untraced = workload.run_phase(probe, seconds / 2 if trace else seconds,
                                      tally, "untraced")
        traced = None
        if trace:
            probe.uninstall()
            tracer.set_phase("traced")
            probe.install(tracer)
            traced = workload.run_phase(probe, seconds / 2, tally, "traced")
    finally:
        probe.uninstall()
    workload.final_checks(tally)
    if traced is not None and traced.digest != untraced.digest:
        tally.problem("traced and untraced round 0 outputs differ")

    misses = tally.check_misses(workload.name)
    setup_raw_s = import_raw_s + statistics.median(setup_s)
    if trace:
        metrics = instrument.layer_metrics(
            tracer, int(traced.seconds * 1e9), traced.outer_iterations,
            traced.converged)
        metrics["trace.untraced_trials_per_s"] = untraced.ops_per_host_s
        metrics["trace.traced_trials_per_s"] = traced.ops_per_host_s
        metrics["trace.overhead_frac"] = (
            1.0 - traced.ops_per_host_s / untraced.ops_per_host_s)
    else:
        metrics = {
            "trials_per_s": untraced.ops_per_host_s,
            "op_ms_p50": _percentile(untraced.op_host_ns, 50) / 1e6,
            "op_ms_p90": _percentile(untraced.op_host_ns, 90) / 1e6,
            "setup_s": import_s + statistics.median(
                2 * s / (before + after) for s, before, after
                in zip(setup_s, setup_slowdowns, setup_slowdowns[1:])),
            "peak_rss_mb": peak_rss_mb(),
            "fit_vs_truth_p50": _percentile(tally.fit, 50),
            "within_bound_frac": tally.within / tally.attempted,
        }
    reported = {
        "host_slowdown_p50": (statistics.median(untraced.slowdowns), "ratio"),
        "trials_per_s_raw": (untraced.ops_per_s, "1/s"),
        "op_ms_p50_raw": (_percentile(untraced.op_ns, 50) / 1e6, "ms"),
        "op_ms_p90_raw": (_percentile(untraced.op_ns, 90) / 1e6, "ms"),
        "setup_s_raw": (setup_raw_s, "s"),
        "import_s": (import_s, "s"),
        "import_s_raw": (import_raw_s, "s"),
        "op_samples": (len(untraced.op_ns), "count"),
        "rounds": (untraced.rounds, "count"),
        "rot_err_p50": (_percentile(tally.rot_err, 50), "frobenius"),
        "trans_err_p50": (_percentile(tally.trans_err, 50), "scene_units"),
        "failed_frac": (tally.failed / tally.attempted, "ratio"),
    }
    info = {
        "digest": untraced.digest,
        "reported": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
        "setup_repeats_s": setup_s,
        "misses": misses,
        "problems": tally.problems[:20],
        "problem_count": len(tally.problems),
    }
    if traced is not None:
        info["traced_rounds"] = traced.rounds
        info["spans"] = len(tracer.spans)
    result = {"correct": not tally.problems, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return result, info, tracer
