"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload acceptance-sweep --seed 1234567 \\
        --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/`` of
the same checkout. BLAS and OpenMP pools are pinned to one thread before
numpy is imported, and POSEAMM_THREADS is removed so sweeps run serially.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it is a JSON object of run information (versions, digests,
sample counts, problems found). A traced run also writes its spans to
``.perfbench/traces/<workload>-seed<seed>.csv``. The exit code is 0 when
every check passed, 1 when a check failed and 2 when the run could not
start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
IMPORT_REPEATS = 7
_IMPORT_PROBE = ("import time, numpy, yardstick; before = yardstick.measure(); "
                 "start = time.perf_counter(); import poseamm.cli; "
                 "took = time.perf_counter() - start; "
                 "print(took, (before + yardstick.measure()) / 2)")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=None,
                        help=f"input seed (default {spec.DEFAULT_SEED}; held out: "
                             f"{spec.HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_library():
    """Import poseamm from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "poseamm" / "__init__.py").is_file():
        raise ImportError(f"no poseamm package under {src}")
    sys.path.insert(0, str(src))
    import poseamm
    if Path(poseamm.__file__).resolve().parent != (src / "poseamm").resolve():
        raise ImportError(f"poseamm was imported from {poseamm.__file__}")


def _import_seconds():
    """Time a fresh interpreter takes to import poseamm.

    -> (median host-normalized time, least raw time) over several fresh
    interpreters. numpy is imported first and not timed: no change to the
    library moves it. Each interpreter measures the host slowdown right
    before and right after the import and divides the import time by
    their mean, so the time is normalized by the speed of the host at that
    moment, in that process.
    """
    path = os.pathsep.join(p for p in (str(ROOT / "src"), str(HERE),
                                       os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    raw, normalized = [], []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        took, slowdown = (float(x) for x in done.stdout.split())
        raw.append(took)
        normalized.append(took / slowdown)
    return statistics.median(normalized), min(raw)


def _environment(numpy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("POSEAMM_THREADS", None)

    try:
        _import_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy
    import workloads
    import_s, import_raw_s = _import_seconds()

    seed = spec.DEFAULT_SEED if args.seed is None else args.seed
    seconds = spec.RUN_SECONDS if args.seconds is None else args.seconds
    workload = workloads.make_workload(args.workload, seed)
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=scratch))
    try:
        result, info, tracer = workloads.run(workload, seconds, bool(args.trace),
                                             workdir, import_s, import_raw_s)
    except workloads.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec.PER_LAYER if args.trace else spec.END_TO_END
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 2
    result["metrics"] = {m["name"]: {"value": result["metrics"][m["name"]],
                                     "unit": m["unit"]} for m in wanted}
    if tracer is not None:
        traces = scratch / "traces"
        traces.mkdir(exist_ok=True)
        path = traces / f"{args.workload}-seed{seed}.csv"
        tracer.write(path)
        info["trace_file"] = str(path.relative_to(ROOT))
    info = {"workload": args.workload, "seed": seed, "seconds": seconds,
            "trace": args.trace, "environment": _environment(numpy), **info}
    for problem in info["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
