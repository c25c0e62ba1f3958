"""Count sweep solves outside the error bounds, per family and noise class.

    python3 perfbench/calibrate.py acceptance-sweep > misses.json

Runs ``ROUNDS`` untimed rounds of a sweep workload from ``SEED`` and
prints, for each family and for zero-noise and noisy levels, the number of
solves outside the per-level bounds of ``checks.py`` and the number of
solves. ``checks.MISSES`` holds this output for both sweeps; a benchmark
run fails when a cell misses more often than that rate allows.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from run import THREAD_VARS

SWEEPS = ("acceptance-sweep", "identity-seed")
ROUNDS = 1000
SEED = 42


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=SWEEPS)
    name = parser.parse_args(argv).workload
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("POSEAMM_THREADS", None)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import checks
    import workloads

    workload = workloads.SweepWorkload(name, SEED)
    cells = {}
    for round_index in range(ROUNDS):
        for family, problem, rig in workloads.FAMILIES:
            for record in workload._sweep(round_index, problem, rig,
                                          measure_time=False):
                bounds = checks.level_bounds(record.noise_sigma)
                cell = cells.setdefault(
                    checks.cell_name(family, record.noise_sigma), [0, 0])
                cell[0] += not (record.rot_err_frobenius <= bounds[0]
                                and record.trans_err_norm <= bounds[1])
                cell[1] += 1
        if round_index % 100 == 99:
            print(f"{round_index + 1} rounds: {cells}", file=sys.stderr)
    print(json.dumps(cells, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
