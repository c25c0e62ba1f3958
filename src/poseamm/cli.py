"""Command line interface: benchmark sweeps and single-instance solves.

The CLI is a thin shell over the library; every behavior here is
reachable through run_sweep, the form builders and solve_amm.

Exit codes: 0 success; 1 when a solve fails (a PoseSolverError, printed
as ``error: <message>``) or every trial of a sweep failed; 2 for usage
errors and faulty correspondence files (a ParseError, printed with the
file name).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from . import bench, fileio
from .amm import AmmConfig, solve_amm
from .bench import SceneConfig
from .exceptions import ParseError, PoseSolverError

_FAMILIES = {name: (problem, rig) for name, problem, rig in bench.FAMILIES}

_SOLVER_CHOICES = (bench.SOLVER_GEC, bench.SOLVER_GPNP, bench.SOLVER_UPNP)

_MAX_NOISE_LEVELS = 10_000
# A sweep keeps every record in memory (about 2 kB each, one per solver),
# and a trial's scene and residual rows grow with its correspondences.
_MAX_TRIAL_LEVELS = 100_000
_MAX_POINTS = 100_000


def _parse_noise_grid(spec: str):
    """Inclusive "min:step:max" grid, e.g. 0:2:10 -> [0, 2, 4, 6, 8, 10].

    Fields must be finite, min nonnegative, and the grid at most
    ``_MAX_NOISE_LEVELS`` levels long.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"noise grid must be min:step:max, got {spec!r}")
    lo, step, hi = (float(p) for p in parts)
    if not all(map(math.isfinite, (lo, step, hi))):
        raise ValueError(f"noise grid fields must be finite, got {spec!r}")
    if lo < 0:
        raise ValueError("noise grid min must be >= 0")
    if hi < lo:
        raise ValueError("noise grid max must be >= min")
    if step <= 0:
        if lo == hi:
            return [lo]
        raise ValueError("noise grid step must be positive")
    if (hi - lo) / step >= _MAX_NOISE_LEVELS:
        raise ValueError(f"noise grid has more than {_MAX_NOISE_LEVELS} levels")
    levels = []
    x = lo
    while x <= hi + 1e-12:
        levels.append(round(x, 12))
        x += step
    return levels


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poseamm",
        description="Camera pose estimation by alternating minimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    bench_p = sub.add_parser("bench", help="run a synthetic noise sweep")
    bench_p.add_argument("family", choices=sorted(_FAMILIES),
                         help="problem family to benchmark")
    bench_p.add_argument("--trials", type=int, default=200)
    bench_p.add_argument("--noise", default="0:1:10", metavar="MIN:STEP:MAX",
                         help="inclusive pixel-noise grid (default 0:1:10)")
    bench_p.add_argument("--points", type=int, default=20,
                         help="correspondences per trial (default 20)")
    bench_p.add_argument("--seed", type=int, default=0)
    bench_p.add_argument("--solver", action="append", choices=_SOLVER_CHOICES,
                         help="repeatable; defaults to every solver of the family")
    bench_p.add_argument("--init", choices=(bench.INIT_LINEAR, bench.INIT_IDENTITY),
                         default=bench.INIT_LINEAR)
    bench_p.add_argument("--tol", type=float, default=None,
                         help="outer objective-change tolerance; acts on "
                              "amm-gec only, absolute solves do not alternate")
    bench_p.add_argument("--max-iters", type=int, default=None,
                         help="outer iteration cap; acts on amm-gec only")
    bench_p.add_argument("--summary", action="store_true",
                         help="append per-level mean rows (trial column = -1)")
    bench_p.add_argument("--time", action="store_true",
                         help="record wall-clock times; output is then not "
                              "byte-reproducible across runs")
    bench_p.add_argument("--out", default=None, help="CSV path (default stdout)")

    solve_p = sub.add_parser("solve", help="solve one instance from a file")
    solve_p.add_argument("--input", required=True,
                         help="correspondence file (see fileio docs)")
    solve_p.add_argument("--solver", required=True, choices=_SOLVER_CHOICES)
    solve_p.add_argument("--t0", default=None, metavar="X,Y,Z",
                         help="translation guess; skips the linear initializer")
    solve_p.add_argument("--tol", type=float, default=None,
                         help="outer objective-change tolerance; acts on "
                              "amm-gec only, absolute solves do not alternate")
    solve_p.add_argument("--max-iters", type=int, default=None,
                         help="outer iteration cap; acts on amm-gec only")
    return parser


def _amm_config(args) -> AmmConfig:
    config = AmmConfig()
    updates = {}
    if args.tol is not None:
        updates["tol_outer"] = args.tol
    if args.max_iters is not None:
        updates["max_outer_iters"] = args.max_iters
    return replace(config, **updates) if updates else config


def _cmd_bench(args) -> int:
    try:
        levels = _parse_noise_grid(args.noise)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problem, rig = _FAMILIES[args.family]
    solvers = args.solver
    if solvers is not None:
        allowed = (bench.RELATIVE_SOLVERS if problem == bench.PROBLEM_RELATIVE
                   else bench.ABSOLUTE_SOLVERS)
        bad = [s for s in solvers if s not in allowed]
        if bad:
            print(f"error: solver {bad[0]!r} does not apply to {args.family}",
                  file=sys.stderr)
            return 2
    if args.trials < 1 or args.points < 1 or args.seed < 0:
        print("error: trials and points must be >= 1 and seed >= 0",
              file=sys.stderr)
        return 2
    if args.trials * len(levels) > _MAX_TRIAL_LEVELS:
        print(f"error: trials x noise levels must be at most {_MAX_TRIAL_LEVELS}",
              file=sys.stderr)
        return 2
    if args.points > _MAX_POINTS:
        print(f"error: points must be at most {_MAX_POINTS}", file=sys.stderr)
        return 2
    try:
        amm_config = _amm_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = SceneConfig(num_correspondences=args.points, rig=rig, seed=args.seed)
    records = bench.run_sweep(config, problem, levels, args.trials,
                              solvers=solvers, init=args.init,
                              amm_config=amm_config, measure_time=args.time)
    failed = sum(1 for r in records if math.isinf(r.final_objective))
    total = len(records)
    if args.summary:
        records = records + bench.mean_records(records)
    text = fileio.records_to_csv(records)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.write(text)
    if failed == total:
        print("error: every trial failed", file=sys.stderr)
        return 1
    return 0


def _parse_t0(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--t0 must be three comma-separated numbers, got {text!r}")
    t0 = np.array([float(p) for p in parts])
    if not np.isfinite(t0).all():
        raise ValueError(f"--t0 must be finite, got {text!r}")
    return t0


def _cmd_solve(args) -> int:
    try:
        kind, corrs = fileio.parse_correspondence_file(args.input)
    except ParseError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    needed = fileio.KIND_RELATIVE if args.solver == bench.SOLVER_GEC else fileio.KIND_ABSOLUTE
    if kind != needed:
        print(f"error: solver {args.solver} needs a {needed} file, got {kind}",
              file=sys.stderr)
        return 2
    try:
        t0 = _parse_t0(args.t0) if args.t0 is not None else None
        amm_config = _amm_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        objective = bench.build_objective(args.solver, corrs)
        if t0 is None:
            pose0 = bench.initial_pose(args.solver, bench.INIT_LINEAR, corrs,
                                        objective)
            t0, r0 = pose0.translation, pose0.rotation
        else:
            r0 = None
        result = solve_amm(objective, t0, amm_config, rotation_init=r0)
    except PoseSolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    fmt = "%.17g"
    rotation_row_major = result.pose.rotation.reshape(9)
    print("rotation:", " ".join(fmt % x for x in rotation_row_major))
    print("translation:", " ".join(fmt % x for x in result.pose.translation))
    print("objective:", fmt % result.final_objective)
    print("iterations:", result.outer_iterations)
    print("converged:", "1" if result.converged else "0")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench":
        return _cmd_bench(args)
    return _cmd_solve(args)


if __name__ == "__main__":
    sys.exit(main())
