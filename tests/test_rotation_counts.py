import importlib.util
import json
from pathlib import Path

from poseamm import amm, bench

ROOT = Path(__file__).resolve().parent.parent


def test_counts_on_the_acceptance_protocol(capsys):
    spec = importlib.util.spec_from_file_location("rotation_counts",
                                                  ROOT / "tools" / "rotation_counts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    block, solve = amm._rotation_block, bench.solve_amm
    assert module.main(["--trials", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert amm._rotation_block is block and bench.solve_amm is solve
    assert sorted(report["families"]) == sorted(name for name, _, _ in bench.FAMILIES)
    counts = report["all"]
    assert counts["solves"] == 5 * 6 * 5              # gPnP and UPnP per absolute scene
    # Steepest descent alone made about 36 rotation gradient evaluations
    # and 146 line trials per linear-seeded solve, and 11 trials in the
    # first step of a subsolve.
    assert counts["gradients_per_solve"] <= 15
    assert counts["trials_per_solve"] <= 20
    assert counts["first_step_trials"] <= 2
    # One rotation subsolve per outer iteration, and no solve here raises.
    for family in report["families"].values():
        assert family["outer_iterations_per_solve"] == family["subsolves_per_solve"]
    assert counts["outer_iterations_per_solve"] <= 10
    # An absolute solve is one counted subsolve, on its reduced quadric.
    for name, problem, _ in bench.FAMILIES:
        if problem == bench.PROBLEM_ABSOLUTE:
            assert report["families"][name]["subsolves_per_solve"] == 1.0
            assert report["families"][name]["gradients_per_solve"] >= 1.0
