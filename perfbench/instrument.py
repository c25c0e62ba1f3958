"""Hooks the benchmark installs on the library from outside.

Nothing under ``src/`` knows about the benchmark. ``Probe.install`` swaps
module attributes that the library looks up at call time (``bench`` calls
its builders, initializers and ``solve_amm`` through module globals,
``solve_amm`` calls the two subsolves through ``amm`` globals, ``cli``
reaches ``fileio`` and ``bench`` through module attributes) and
``Probe.uninstall`` puts the originals back.

A probe always captures what the correctness checks need: the ground
truth of each generated scene and, for each solve, the raw objective and
the ``AmmResult``. With a ``Tracer`` attached it also records one span per
layer call (name, start, end, parent, op id) and wraps every built form in
``CountingObjective``, which times and counts ``value`` and both gradients
and charges their time to the innermost open span. Spans stay in memory
until ``Tracer.write`` is called at the end of a run.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

from poseamm import amm, bench, cli, fileio
from poseamm.objectives import PoseObjective

import spec

_now = time.perf_counter_ns

SOLVER_TAGS = dict(zip((bench.SOLVER_GPNP, bench.SOLVER_UPNP, bench.SOLVER_GEC),
                       spec.SOLVER_TAGS))
OBJECTIVE_METHODS = ("value", "rotation_gradient", "translation_gradient")

# Span fields, stored as lists for speed. PARENT is the parent's ID, -1 for
# a root span; CHILD_NS sums child span durations, OBJ_NS the objective
# calls made directly inside the span, OBJ_TOTAL_NS those made anywhere
# below it.
(ID, NAME, START, END, PARENT, OP, PHASE, TAG,
 CHILD_NS, OBJ_NS, OBJ_TOTAL_NS) = range(11)


class Tracer:
    """In-memory spans plus objective call timings and counts."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.phase = "setup"
        self.op = 0
        self.errors = dict.fromkeys(spec.LAYERS, 0)
        self.call_ns = defaultdict(lambda: array("q"))   # (tag, method) -> ns
        self.calls_in = defaultdict(int)                  # (span name, method) -> n

    def set_phase(self, phase: str) -> None:
        """Start a new phase; objective call statistics restart with it."""
        self.phase = phase
        self.call_ns.clear()
        self.calls_in.clear()

    def new_op(self) -> None:
        self.op += 1

    def open(self, name: str, tag: str = "") -> list:
        parent = self._stack[-1][ID] if self._stack else -1
        span = [len(self.spans), name, _now(), 0, parent, self.op, self.phase,
                tag, 0, 0, 0]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = _now()
        self._stack.pop()
        span[OBJ_TOTAL_NS] += span[OBJ_NS]
        if self._stack:
            parent = self._stack[-1]
            parent[CHILD_NS] += span[END] - span[START]
            parent[OBJ_TOTAL_NS] += span[OBJ_TOTAL_NS]

    def call(self, name: str, fn, *args, tag: str = "", **kwargs):
        span = self.open(name, tag)
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[name.split(".", 1)[0]] += 1
            raise
        finally:
            self.close(span)

    def objective_call(self, tag: str, method: str, elapsed_ns: int) -> None:
        self.call_ns[(tag, method)].append(elapsed_ns)
        if self._stack:
            top = self._stack[-1]
            top[OBJ_NS] += elapsed_ns
            self.calls_in[(top[NAME], method)] += 1
        else:
            self.calls_in[("", method)] += 1

    def write(self, path) -> None:
        """One CSV row per span; parent is the parent's id, -1 for a root."""
        with open(path, "w", encoding="utf-8") as stream:
            stream.write("id,name,start_ns,end_ns,parent,op,phase,tag,"
                         "objective_ns,self_ns\n")
            for s in self.spans:
                stream.write(f"{s[ID]},{s[NAME]},{s[START]},{s[END]},{s[PARENT]},"
                             f"{s[OP]},{s[PHASE]},{s[TAG]},{s[OBJ_NS]},"
                             f"{self_ns(s)}\n")


def self_ns(span: list) -> int:
    """Duration minus child spans and the objective calls made directly in it."""
    return span[END] - span[START] - span[CHILD_NS] - span[OBJ_NS]


class CountingObjective(PoseObjective):
    """Times and counts the three solver-facing calls of a built form.

    Every other attribute (the quadratic blocks ``init_absolute_linear``
    reads, ``closed_form_translation``) is forwarded to the wrapped form
    untimed.
    """

    def __init__(self, form, tag: str, tracer: Tracer):
        self.wrapped = form
        self._tag = tag
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self.wrapped, name)

    def _timed(self, method: str, rotation, translation):
        start = _now()
        try:
            return getattr(self.wrapped, method)(rotation, translation)
        except Exception:
            self._tracer.errors["objectives"] += 1
            raise
        finally:
            self._tracer.objective_call(self._tag, method, _now() - start)

    def value(self, rotation, translation):
        return self._timed("value", rotation, translation)

    def rotation_gradient(self, rotation, translation):
        return self._timed("rotation_gradient", rotation, translation)

    def translation_gradient(self, rotation, translation):
        return self._timed("translation_gradient", rotation, translation)


class Probe:
    """Capture hooks, plus spans and counting objectives when traced."""

    def __init__(self):
        self.tracer = None
        self.truth = None          # ground truth of the scene being solved
        self.solves = []           # (truth, raw objective, AmmResult)
        self._saved = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run a benchmark-side call into the library, as a span if traced."""
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)

    def new_op(self) -> None:
        if self.tracer is not None:
            self.tracer.new_op()

    def install(self, tracer: Tracer = None) -> None:
        if self._saved:
            raise RuntimeError("probe is already installed")
        self.tracer = tracer
        patches = [
            (bench, "generate_absolute_scene", self._scene(bench.generate_absolute_scene)),
            (bench, "generate_relative_scene", self._scene(bench.generate_relative_scene)),
            (bench, "build_objective", self._build_objective(bench.build_objective)),
            (bench, "solve_amm", self._solve(bench.solve_amm)),
            (cli, "solve_amm", self._solve(cli.solve_amm)),
        ]
        if tracer is not None:
            spans = [
                (bench, "build_gpnp_form", "absolute.build_gpnp_form"),
                (bench, "build_upnp_form", "absolute.build_upnp_form"),
                (bench, "build_gec_form", "relative.build_gec_form"),
                (bench, "init_absolute_linear", "initializers.init_absolute_linear"),
                (bench, "init_relative_17pt", "initializers.init_relative_17pt"),
                (bench, "init_identity", "initializers.init_identity"),
                (amm, "rotation_subsolve", "amm.rotation_subsolve"),
                (amm, "translation_subsolve", "amm.translation_subsolve"),
                (fileio, "parse_correspondence_file", "fileio.parse_correspondence_file"),
            ]
            patches += [(module, attr, self._span(name, getattr(module, attr)))
                        for module, attr, name in spans]
        for module, attr, wrapper in patches:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        self.tracer = None

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.tracer.call(name, fn, *args, **kwargs)
        return wrapper

    def _scene(self, fn):
        def wrapper(*args, **kwargs):
            if self.tracer is None:
                truth, corrs = fn(*args, **kwargs)
            else:
                self.tracer.new_op()
                truth, corrs = self.tracer.call("bench.generate_scene", fn,
                                                *args, **kwargs)
            self.truth = truth
            return truth, corrs
        return wrapper

    def _build_objective(self, fn):
        def wrapper(solver, corrs):
            form = fn(solver, corrs)
            if self.tracer is None:
                return form
            return CountingObjective(form, SOLVER_TAGS[solver], self.tracer)
        return wrapper

    def _solve(self, fn):
        def wrapper(objective, *args, **kwargs):
            if self.tracer is None:
                result = fn(objective, *args, **kwargs)
            else:
                result = self.tracer.call("amm.solve_amm", fn, objective, *args,
                                          tag=objective._tag, **kwargs)
            raw = getattr(objective, "wrapped", objective)
            self.solves.append((self.truth, raw, result))
            return result
        return wrapper


def _median(values) -> float:
    """Median, 0.0 for a layer that made no calls."""
    values = sorted(values)
    n = len(values)
    if n == 0:
        return 0.0
    mid = n // 2
    return float(values[mid]) if n % 2 else 0.5 * (values[mid - 1] + values[mid])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


_AMM_SPANS = ("amm.solve_amm", "amm.rotation_subsolve", "amm.translation_subsolve")
_TIMED_SPANS = ("absolute.build_gpnp_form", "absolute.build_upnp_form",
                "relative.build_gec_form", "initializers.init_absolute_linear",
                "initializers.init_relative_17pt") + _AMM_SPANS + (
                "fileio.parse_correspondence_file", "fileio.records_to_csv")


def layer_metrics(tracer: Tracer, wall_ns: int, outer_iterations,
                  converged) -> dict:
    """Per-layer numbers of the traced phase.

    Times are per-call medians in microseconds, except that scene
    generation also counts the set-up phase, where ``wide-scene`` makes its
    scenes. A layer that a workload never calls reports 0. ``self_share``
    is each layer's self time over the traced phase's measured wall time.
    """
    traced = [s for s in tracer.spans if s[PHASE] == "traced"]
    by_name = defaultdict(list)
    for s in traced:
        by_name[s[NAME]].append(s)
    m = {"bench.generate_scene_us": _median(
        s[END] - s[START] for s in tracer.spans
        if s[NAME] == "bench.generate_scene") / 1e3}
    for name in _TIMED_SPANS:
        m[name + "_us"] = _median(s[END] - s[START] for s in by_name[name]) / 1e3

    solves = by_name["amm.solve_amm"]
    for tag in SOLVER_TAGS.values():
        for method in OBJECTIVE_METHODS:
            m[f"objectives.{method}_us.{tag}"] = _median(
                tracer.call_ns.get((tag, method), ())) / 1e3
        mine = [s for s in solves if s[TAG] == tag]
        m[f"objectives.eval_share.{tag}"] = _ratio(
            sum(s[OBJ_TOTAL_NS] for s in mine),
            sum(s[END] - s[START] for s in mine))

    calls = tracer.calls_in
    n = len(solves)
    rotation_steps = calls[("amm.rotation_subsolve", "rotation_gradient")]
    m["amm.self_us_per_solve"] = _median(
        s[END] - s[START] - s[OBJ_TOTAL_NS] for s in solves) / 1e3
    m["amm.outer_iters_mean"] = _ratio(sum(outer_iterations), len(outer_iterations))
    m["amm.rotation_steps_per_solve"] = _ratio(rotation_steps, n)
    m["amm.translation_steps_per_solve"] = _ratio(
        calls[("amm.translation_subsolve", "translation_gradient")], n)
    m["amm.values_per_solve"] = _ratio(
        sum(calls[(name, "value")] for name in _AMM_SPANS), n)
    m["amm.values_per_rotation_step"] = _ratio(
        calls[("amm.rotation_subsolve", "value")], rotation_steps)
    m["amm.converged_frac"] = _ratio(sum(converged), len(converged))
    m["cli.solve_self_us"] = _median(self_ns(s) for s in by_name["cli.main"]) / 1e3

    self_by_layer = dict.fromkeys(spec.LAYERS, 0)
    for s in traced:
        self_by_layer[s[NAME].split(".", 1)[0]] += self_ns(s)
    self_by_layer["objectives"] += sum(sum(v) for v in tracer.call_ns.values())
    for layer in spec.LAYERS:
        m[f"{layer}.self_share"] = _ratio(self_by_layer[layer], wall_ns)
        m[f"{layer}.errors"] = tracer.errors[layer]
    return m
