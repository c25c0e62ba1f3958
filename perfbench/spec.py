"""Metric and workload definitions, and the BENCHMARK.json they produce.

Run ``python3 perfbench/spec.py`` from the repository root to rewrite
BENCHMARK.json from these definitions.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

# The default seed is the acceptance protocol's. The held-out seed is not
# used while writing a change, so a perf claim can be re-checked on it.
DEFAULT_SEED = 1234567
HELD_OUT_SEED = 7654321

WORKLOADS = [
    {"name": "acceptance-sweep",
     "why": "the ROADMAP protocol users run: N=20 sweeps of all three families, "
            "linear seeds; solve and objective calls dominate each trial"},
    {"name": "identity-seed",
     "why": "the same grid seeded at the identity: bypasses the initializers and "
            "takes long descents, about twice the outer iterations"},
    {"name": "wide-scene",
     "why": "one N=2000 poseamm solve per solver through cli.main: parsing, folds "
            "and the 17-point SVD dominate, the solve is under 2% of an op"},
]

END_TO_END = [
    {"name": "trials_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "op_ms_p90", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "fit_vs_truth_p50", "unit": "ratio", "better": "lower", "bound": 0.05},
    {"name": "within_bound_frac", "unit": "ratio", "better": "higher", "bound": 0.05},
]

# Library modules the spans are named after, in report order. ``geometry``
# is only reached from inside the others and is part of their self time.
LAYERS = ("bench", "absolute", "relative", "initializers", "objectives",
          "amm", "fileio", "cli")
SOLVER_TAGS = ("gpnp", "upnp", "gec")


def _per_layer():
    us = [
        "bench.generate_scene_us",
        "absolute.build_gpnp_form_us", "absolute.build_upnp_form_us",
        "relative.build_gec_form_us",
        "initializers.init_absolute_linear_us",
        "initializers.init_relative_17pt_us",
    ]
    for method in ("value", "rotation_gradient", "translation_gradient"):
        us += [f"objectives.{method}_us.{tag}" for tag in SOLVER_TAGS]
    us += ["amm.solve_amm_us", "amm.rotation_subsolve_us",
           "amm.translation_subsolve_us", "amm.self_us_per_solve",
           "fileio.parse_correspondence_file_us", "fileio.records_to_csv_us",
           "cli.solve_self_us"]
    metrics = [{"name": n, "unit": "us", "better": "lower"} for n in us]
    metrics += [{"name": f"objectives.eval_share.{tag}", "unit": "ratio",
                 "better": "lower"} for tag in SOLVER_TAGS]
    metrics += [{"name": n, "unit": "count", "better": "lower"} for n in (
        "amm.outer_iters_mean", "amm.rotation_steps_per_solve",
        "amm.translation_steps_per_solve", "amm.values_per_solve",
        "amm.values_per_rotation_step")]
    metrics.append({"name": "amm.converged_frac", "unit": "ratio",
                    "better": "higher"})
    metrics += [{"name": f"{layer}.self_share", "unit": "ratio", "better": "lower"}
                for layer in LAYERS]
    metrics += [{"name": f"{layer}.errors", "unit": "count", "better": "lower"}
                for layer in LAYERS]
    metrics += [
        {"name": "trace.untraced_trials_per_s", "unit": "1/s", "better": "higher"},
        {"name": "trace.traced_trials_per_s", "unit": "1/s", "better": "higher"},
        {"name": "trace.overhead_frac", "unit": "ratio", "better": "lower"},
    ]
    return metrics


PER_LAYER = _per_layer()


def manifest() -> dict:
    return {"command": COMMAND, "paths": PATHS, "run_seconds": RUN_SECONDS,
            "workloads": WORKLOADS, "end_to_end": END_TO_END,
            "per_layer": PER_LAYER}


def render() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    target.write_text(render(), encoding="utf-8")
    print(f"wrote {target}")
