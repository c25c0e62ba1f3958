"""Alternating pairs of benchmark runs: a parent revision against the working tree.

    python3 tools/bench_pairs.py --parent HEAD --workload acceptance-sweep \\
        --seed 1234567 --pairs 10 --out bench-results/BENCH_<date>-pairs.json

Run from the repository root. The parent revision is exported with
``git archive`` and the working tree (tracked files and untracked files
that are not ignored) is copied, each into a temporary directory, so both
sides run ``perfbench/run.py`` from files of their own. Odd pairs run the
parent first and even pairs the change first, so a drift of the host's
speed falls on both sides alike.

``--out`` gets the pairs-file layout of ``bench-results/``: ``command``,
``order``, ``parent``, ``pairs`` (runs per "workload seed") and ``runs``
(one entry per run). An existing file for the same parent is extended, so
one file can hold several workloads and seeds. For every end-to-end metric
of ``BENCHMARK.json`` the median and quartiles of each side and the number
of pairs the change won are printed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = ("python3 perfbench/run.py --workload WORKLOAD --seed SEED "
           "(run.py defaults: --seconds 30 --trace 0), run from a copy of each "
           "commit's files")
ORDER = ("per workload and seed, odd pairs run the parent first, even pairs "
         "the change first")


def export_revision(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` into ``dest`` with ``git archive``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_working_tree(dest: Path) -> None:
    """Copy the tracked and the untracked, not ignored files into ``dest``."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, check=True,
                            capture_output=True).stdout.decode()
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_side(tree: Path, workload: str, seed: int):
    """-> (info, result) JSON lines of one ``perfbench/run.py`` process."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{' '.join(command)} in {tree} exited "
                           f"{done.returncode}:\n{done.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def run_record(workload, seed, pair, side, info, result) -> dict:
    """One ``runs`` entry: the run's checks, metrics and reported values."""
    return {"workload": workload, "seed": seed, "pair": pair, "side": side,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "reported": {k: v["value"] for k, v in info["reported"].items()},
            "digest": info["digest"]}


def summarize(runs, end_to_end) -> dict:
    """Per "workload seed" and metric: each side's median and quartiles and
    the pairs the change won.

    ``end_to_end`` is the ``end_to_end`` list of ``BENCHMARK.json``; a pair
    is won when the change's value is better than the parent's in the
    metric's ``better`` direction. Quartiles are those of
    ``statistics.quantiles(values, n=4)``, as ``perfbench/collect.py``
    reports them; a side with a single run reports its value for all three.
    """
    groups = {}
    for run in runs:
        key = f"{run['workload']} {run['seed']}"
        groups.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = run
    summary = {}
    for key, pairs in groups.items():
        complete = [p for _, p in sorted(pairs.items())
                    if "parent" in p and "change" in p]
        entry = {"pairs": len(complete)}
        for metric in end_to_end:
            name = metric["name"]
            sides = {side: [p[side]["metrics"][name] for p in complete]
                     for side in ("parent", "change")}
            higher = metric["better"] == "higher"
            won = sum((c > p) if higher else (c < p)
                      for p, c in zip(sides["parent"], sides["change"]))
            entry[name] = {side: _quartiles(values) for side, values in sides.items()}
            entry[name]["won"] = won
        entry["correct"] = all(p[s]["correct"] for p in complete for s in p)
        entry["failed"] = sum(p[s]["failed"] for p in complete for s in p)
        summary[key] = entry
    return summary


def _quartiles(values) -> dict:
    if len(values) < 2:
        value = values[0] if values else None
        return {"median": value, "q1": value, "q3": value}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def print_summary(summary) -> None:
    for key, entry in summary.items():
        print(f"{key}: {entry['pairs']} pairs, all correct: {entry['correct']}, "
              f"failed ops: {entry['failed']}")
        for name, stats in entry.items():
            if not isinstance(stats, dict):
                continue
            parent, change = stats["parent"], stats["change"]
            print(f"  {name:<18} parent {parent['median']:.6g} "
                  f"[{parent['q1']:.6g}, {parent['q3']:.6g}] -> change "
                  f"{change['median']:.6g} [{change['q1']:.6g}, {change['q3']:.6g}], "
                  f"won {stats['won']}/{entry['pairs']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", required=True, help="pairs JSON to write or extend")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    out = Path(args.out)
    data = {"command": COMMAND, "order": ORDER, "parent": parent, "pairs": {},
            "runs": []}
    if out.exists():
        data = json.loads(out.read_text())
        if data["parent"] != parent:
            parser.error(f"{out} holds pairs against {data['parent']}, not {parent}")
    key = f"{args.workload} {args.seed}"
    done = data["pairs"].get(key, 0)
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for tree in trees.values():
            tree.mkdir()
        export_revision(args.parent, trees["parent"])
        copy_working_tree(trees["change"])
        for pair in range(done + 1, done + args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                info, result = run_side(trees[side], args.workload, args.seed)
                data["runs"].append(run_record(args.workload, args.seed, pair,
                                               side, info, result))
                print(f"{key} pair {pair} {side}: trials_per_s "
                      f"{result['metrics']['trials_per_s']['value']:.4g}, "
                      f"correct {result['correct']}", file=sys.stderr)
            data["pairs"][key] = pair
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print_summary({k: v for k, v in summarize(data["runs"], end_to_end).items()
                   if k == key})
    return 0


if __name__ == "__main__":
    sys.exit(main())
