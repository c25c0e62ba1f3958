"""Count the work of the rotation block on the acceptance-protocol sweeps.

    PYTHONPATH=src python3 tools/rotation_counts.py --init linear

Runs ``bench.run_sweep`` serially for the three families of the
acceptance protocol (relative non-central, absolute central, absolute
non-central; N=20, noise 0:2:10, seed 1234567, 200 trials per level by
default) with ``amm._rotation_block`` wrapped, and prints one JSON object
of counts:

* ``gradients_per_solve``: rotation gradient evaluations, one per step
  the rotation loop starts;
* ``trials_per_solve``: evaluations of the change of the objective along
  a step (a closed-form polynomial on the block quadrics, a value
  difference otherwise);
* ``subsolves_per_solve`` and ``gradients_per_subsolve_median``;
* ``first_step_trials``: mean trials of the first step of a subsolve;
* ``outer_iterations_per_solve``: mean outer iterations of the solves
  that returned.

The wrapper only counts, so the solves are the sweep's own. The
counts are per family and over all solves. An absolute solve, which runs
one rotation subsolve on its reduced quadric, counts as one subsolve and
one outer iteration.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from poseamm import amm, bench

NOISE_LEVELS = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)


def counting_block(block, subsolves):
    """Wrap ``_rotation_block`` to append, per block, its trials per step."""
    def wrapped(objective, t):
        gradient, curvature, line = block(objective, t)
        steps = []
        subsolves.append(steps)

        def counted_gradient(x):
            steps.append(0)
            return gradient(x)

        def counted_line(x):
            search = line(x)

            def counted_search(axis, gu, gw):
                delta, point = search(axis, gu, gw)

                def counted_delta(s, c):
                    steps[-1] += 1
                    return delta(s, c)
                return counted_delta, point
            return counted_search
        return counted_gradient, curvature, counted_line
    return wrapped


def summarize(per_solve):
    """Counts of a list of solves, each a list of subsolves' step lists and
    its outer iterations (None for a solve that raised)."""
    subsolves = [steps for solve, _ in per_solve for steps in solve]
    solves = len(per_solve)
    return {
        "solves": solves,
        "gradients_per_solve": sum(map(len, subsolves)) / solves,
        "trials_per_solve": sum(map(sum, subsolves)) / solves,
        "subsolves_per_solve": len(subsolves) / solves,
        "gradients_per_subsolve_median": statistics.median(map(len, subsolves)),
        "first_step_trials": statistics.fmean(steps[0] for steps in subsolves
                                              if steps),
        "outer_iterations_per_solve": statistics.fmean(
            outer for _, outer in per_solve if outer is not None),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--init", choices=(bench.INIT_LINEAR, bench.INIT_IDENTITY),
                        default=bench.INIT_LINEAR)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1234567)
    args = parser.parse_args(argv)

    subsolves = []
    block, solve = amm._rotation_block, bench.solve_amm
    report = {"init": args.init, "trials": args.trials, "seed": args.seed,
              "families": {}}
    everything = []
    amm._rotation_block = counting_block(block, subsolves)
    try:
        for name, problem, rig in bench.FAMILIES:
            per_solve = []

            def counted_solve(*solve_args, **kwargs):
                start, outer = len(subsolves), None
                try:
                    result = solve(*solve_args, **kwargs)
                    outer = result.outer_iterations
                    return result
                finally:
                    per_solve.append((subsolves[start:], outer))
            bench.solve_amm = counted_solve
            bench.run_sweep(bench.SceneConfig(seed=args.seed, rig=rig), problem,
                            NOISE_LEVELS, args.trials, init=args.init,
                            measure_time=False)
            report["families"][name] = summarize(per_solve)
            everything += per_solve
    finally:
        amm._rotation_block, bench.solve_amm = block, solve
    report["all"] = summarize(everything)
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
