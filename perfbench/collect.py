"""Run every workload over several seeds and summarize the results.

    python3 perfbench/collect.py --out perfbench/results/BENCH_<date>.json

Every workload runs ``RUNS`` times, at seeds counting up from the default
seed, for ``spec.RUN_SECONDS`` each. Each run is its own ``run.py``
process, one after another, so every workload runs single-threaded in a
process of its own. For each workload and end-to-end metric the summary
gives the median, the quartiles (as ``statistics.quantiles(values, n=4)``
computes them) and the spread: the distance between the quartiles over the
median, next to the metric's bound. The raw times and host slowdowns of
the information line are kept in every run entry and summarized the same
way, so the normalized spreads can be compared with the raw ones. The
first seed of each workload is also run traced; its per-layer metrics are
summarized as they came, and its round-0 digest must equal the untraced
run's on the same seed. Exits 1 if any run failed a check or a digest
differed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: float, trace: int):
    """-> (info, result, wall seconds, exit code) of one run.py process."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1]), wall, done.returncode


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None, help="summary JSON path")
    args = parser.parse_args(argv)

    seconds = spec.RUN_SECONDS
    seeds = [spec.DEFAULT_SEED + i for i in range(RUNS)]
    ok = True
    summary = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in (w["name"] for w in spec.WORKLOADS):
        runs = []
        for seed in seeds:
            info, result, wall, code = run_once(name, seed, seconds, 0)
            ok &= code == 0 and result["correct"]
            runs.append({"seed": seed, "wall_s": wall, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"], "digest": info["digest"],
                         "metrics": {k: v["value"]
                                     for k, v in result["metrics"].items()},
                         "reported": {k: v["value"]
                                      for k, v in info["reported"].items()},
                         "misses": info["misses"]})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"wall={wall:.1f}s", file=sys.stderr)
        entry = {"environment": info["environment"], "runs": runs, "metrics": {},
                 "reported": {}}
        for metric in spec.END_TO_END:
            stats = spread([r["metrics"][metric["name"]] for r in runs])
            stats.update(unit=metric["unit"], bound=metric["bound"])
            entry["metrics"][metric["name"]] = stats
            print(f"  {metric['name']:<18} median {stats['median']:<12.6g} "
                  f"spread {stats['spread']:.4f} (bound {metric['bound']})",
                  file=sys.stderr)
        for key, value in info["reported"].items():
            stats = spread([r["reported"][key] for r in runs])
            stats.update(unit=value["unit"])
            entry["reported"][key] = stats
            if key.endswith("_raw") or key == "host_slowdown_p50":
                print(f"  {key:<18} median {stats['median']:<12.6g} "
                      f"spread {stats['spread']:.4f}", file=sys.stderr)
        info, result, wall, code = run_once(name, seeds[0], seconds, 1)
        ok &= code == 0 and result["correct"]
        same = info["digest"] == runs[0]["digest"]
        ok &= same
        entry["traced"] = {"seed": seeds[0], "wall_s": wall,
                           "correct": result["correct"],
                           "digest_matches_untraced": same,
                           "metrics": {k: v["value"] for k, v
                                       in result["metrics"].items()}}
        print(f"  traced: correct={result['correct']} digest match={same} "
              f"overhead={result['metrics']['trace.overhead_frac']['value']:.3f}",
              file=sys.stderr)
        summary["workloads"][name] = entry
    text = json.dumps(summary, indent=1)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
