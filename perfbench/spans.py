"""Spans and counts around calls into privopt's public functions.

The wrappers live here, not in the program: ``Tracer.install()`` replaces each
target function with a recording wrapper at every place privopt looks it up
(the defining module, every module that imported it by name, and the class for
methods), and ``Tracer.restore()`` puts the originals back. Spans (name, start, end,
parent) are kept in memory and written out when the pass ends; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time

import numpy as np

# (module, qualified name, span name, group). A group counts a span as
# "outermost" when no enclosing span belongs to the same group, so nested calls
# (run_fs -> run_dgd, draw_nb_shares -> generator) are not counted twice.
SPAN_TARGETS = (
    ("privopt.configs", "RunConfig.from_file", "configs.from_file", "configs.build"),
    ("privopt.configs", "RunConfig.build_topology", "configs.build_topology", "configs.build"),
    ("privopt.configs", "RunConfig.build_problem", "configs.build_problem", "configs.build"),
    ("privopt.configs", "RunConfig.build_schedule", "configs.build_schedule", "configs.build"),
    ("privopt.configs", "RunConfig.build_weights", "configs.build_weights", "configs.build"),
    ("privopt.configs", "execute", "configs.execute", "configs.execute"),
    ("privopt.graphs", "Topology.neighbors", "graphs.neighbors", "graphs"),
    ("privopt.graphs", "metropolis_weights", "graphs.metropolis_weights", "graphs"),
    ("privopt.graphs", "spanning_tree_split", "graphs.spanning_tree_split", "graphs"),
    ("privopt.noise", "RandomStreams.generator", "noise.generator", "noise"),
    ("privopt.noise", "draw_nb_shares", "noise.draw_nb_shares", "noise"),
    ("privopt.noise", "nb_perturbation", "noise.nb_perturbation", "noise"),
    ("privopt.noise", "draw_lb_perturbation", "noise.draw_lb_perturbation", "noise"),
    ("privopt.noise", "draw_noise_functions", "noise.draw_noise_functions", "noise"),
    ("privopt.noise", "obfuscate", "noise.obfuscate", "noise"),
    ("privopt.noise", "noise_gradient_bounds", "noise.noise_gradient_bounds", "noise"),
    ("privopt.objectives", "PolynomialObjective.gradient", "objectives.gradient", "objectives.gradient"),
    ("privopt.objectives", "QuadraticObjective.gradient", "objectives.gradient", "objectives.gradient"),
    ("privopt.objectives", "LogisticObjective.gradient", "objectives.gradient", "objectives.gradient"),
    ("privopt.objectives", "GlobalProblem.agent_gradients", "objectives.agent_gradients", "objectives.gradient"),
    ("privopt.objectives", "GlobalProblem.total_gradient", "objectives.total_gradient", "objectives.gradient"),
    ("privopt.objectives", "Box.project", "objectives.project", "objectives.project"),
    ("privopt.objectives", "GlobalProblem.from_spec", "objectives.from_spec", "objectives.build"),
    ("privopt.objectives", "GlobalProblem.constants", "objectives.constants", "objectives.constants"),
    ("privopt.objectives", "estimate_constants", "objectives.estimate_constants", "objectives.constants"),
    ("privopt.objectives", "solve_centralized", "objectives.solve_centralized", "objectives.oracle"),
    ("privopt.polynomials", "SeparablePolynomial.gradient", "polynomials.gradient", "polynomials"),
    ("privopt.engine", "run_dgd", "engine.run_dgd", "engine.run"),
    ("privopt.engine", "run_rss_nb", "engine.run_rss_nb", "engine.run"),
    ("privopt.engine", "run_rss_lb", "engine.run_rss_lb", "engine.run"),
    ("privopt.engine", "run_fs", "engine.run_fs", "engine.run"),
    ("privopt.engine", "ExecutionTrace.to_json_dict", "engine.to_json_dict", "engine.io"),
    ("privopt.engine", "ExecutionTrace.load", "engine.load", "engine.io"),
    ("privopt.analysis", "compute_metrics", "analysis.compute_metrics", "analysis"),
    ("privopt.analysis", "effective_bounds", "analysis.effective_bounds", "analysis"),
    ("privopt.analysis", "bound_params", "analysis.bound_params", "analysis"),
    ("privopt.analysis", "audit_invariants", "analysis.audit_invariants", "analysis"),
    ("privopt.analysis", "check_lemma1", "analysis.check_lemma1", "analysis"),
    ("privopt.analysis", "check_lemma2", "analysis.check_lemma2", "analysis"),
    ("privopt.analysis", "check_consensus", "analysis.check_consensus", "analysis"),
    ("privopt.privacy", "extract_view", "privacy.extract_view", "privacy"),
    ("privopt.privacy", "complete_alternative_objectives", "privacy.complete_alternative_objectives", "privacy"),
    ("privopt.privacy", "construct_alternative", "privacy.construct_alternative", "privacy"),
    ("privopt.privacy", "verify_indistinguishable", "privacy.verify_indistinguishable", "privacy"),
    ("privopt.privacy", "replay_digest", "privacy.replay_digest", "privacy"),
    ("privopt.privacy", "necessity_demo", "privacy.necessity_demo", "privacy"),
    ("privopt.cli", "main", "cli.main", "cli"),
)

# Called so often, and so cheaply, that they are counted without a span.
COUNT_TARGETS = (
    ("privopt.privacy", "to_exact", "privacy.exact_ops"),
    ("privopt.privacy", "exact_pad", "privacy.exact_ops"),
    ("privopt.privacy", "exact_add", "privacy.exact_ops"),
    ("privopt.privacy", "exact_sub", "privacy.exact_ops"),
)

# Names that other privopt modules import by name; install() must reach them.
REQUIRED_LOOKUP_SITES = (
    "privopt.engine.draw_nb_shares", "privopt.engine.nb_perturbation",
    "privopt.engine.draw_lb_perturbation",
    "privopt.configs.run_dgd", "privopt.configs.run_rss_nb",
    "privopt.configs.run_rss_lb", "privopt.configs.run_fs",
    "privopt.cli.execute", "privopt.cli.solve_centralized",
    "privopt.cli.compute_metrics", "privopt.cli.effective_bounds",
    "privopt.cli.audit_invariants", "privopt.cli.check_lemma1",
    "privopt.cli.check_lemma2", "privopt.cli.check_consensus",
    "privopt.cli.extract_view", "privopt.cli.construct_alternative",
    "privopt.cli.verify_indistinguishable", "privopt.cli.necessity_demo",
    "privopt.cli.complete_alternative_objectives",
    "privopt.analysis.solve_centralized", "privopt.privacy.run_dgd",
    "privopt.privacy.spanning_tree_split",
)

ALGORITHMS = ("dgd", "rss_nb", "rss_lb", "fs")


def _resolve(path: str):
    module, _, attr = path.rpartition(".")
    return getattr(sys.modules[module], attr)


def _privopt_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "privopt" or name.startswith("privopt."))]


def _trace_nbytes(trace) -> int:
    arrays = (trace.weights, trace.init, trace.round_index, trace.steps, trace.states,
              trace.messages, trace.perturbations, trace.fused, trace.fused_true,
              trace.fused_noise, trace.final_states, trace.shares, trace.weights_series)
    return sum(a.nbytes for a in arrays if a is not None)


def _constants_key(obj, box) -> str:
    doc = {"objective": obj.to_spec(), "box": box.to_spec()}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _view_key(view) -> str:
    h = hashlib.sha256(json.dumps(view.recipe, sort_keys=True).encode())
    h.update(json.dumps(view.topology.to_spec()).encode())
    for j in sorted(view.obfuscated):
        h.update(np.ascontiguousarray(view.obfuscated[j], dtype="<f8").tobytes())
    return h.hexdigest()


class Tracer:
    """In-memory span recorder. ``active`` gates recording, so the checks the
    benchmark makes between commands leave no spans or counts."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._group_ids: dict[str, int] = {}
        self._group_depth: list[int] = []
        # rows of (name_id, outermost_in_group, start, end, parent_row)
        self.spans: list = []
        self._stack: list[int] = []
        self._stack_names: list[int] = []
        self.counts: dict[str, int] = {}
        self.engine_runs: list[dict] = []    # outermost engine runs
        self.constants_keys: list[str] = []  # one per estimate_constants call
        self.replay_keys: list[str] = []     # one per replay_digest call
        self.active = True
        self._patches: list = []             # (owner, attr, original) in install order

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name: str, group: str):
        nid = self._name_id(name)
        gid = self._group_ids.setdefault(group, len(self._group_ids))
        if gid == len(self._group_depth):
            self._group_depth.append(0)
        on_enter, on_exit = self._hooks(name)
        spans, stack, stack_names = self.spans, self._stack, self._stack_names
        depth, clock, tracer = self._group_depth, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if on_enter is not None:
                on_enter(args, kwargs)
            row = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = depth[gid] == 0
            stack.append(row)
            stack_names.append(nid)
            depth[gid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[gid] -= 1
                stack.pop()
                stack_names.pop()
                spans[row] = (nid, outermost, start, end, parent)
            if on_exit is not None and outermost:
                on_exit(result, end - start)
            return result

        wrapper.perfbench_wrapper = True
        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts, tracer = self.counts, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.perfbench_wrapper = True
        return wrapper

    def _hooks(self, name: str):
        """Extras recorded outside the timed interval: (on_enter, on_exit)."""
        if name.startswith("engine.run_"):
            algorithm = name[len("engine.run_"):]
            execute_id = self._name_id("configs.execute")

            def on_exit(trace, seconds):
                self.engine_runs.append({
                    "algorithm": algorithm, "rounds": int(trace.max_iter),
                    "nbytes": _trace_nbytes(trace), "seconds": seconds,
                    "from_run_command": execute_id in self._stack_names})
            return None, on_exit
        if name == "objectives.estimate_constants":
            return (lambda args, kwargs: self.constants_keys.append(_constants_key(*args[:2]))), None
        if name == "privacy.replay_digest":
            return (lambda args, kwargs: self.replay_keys.append(
                _view_key(args[0] if args else kwargs["view"]))), None
        return None, None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, qualname, span_name, group in SPAN_TARGETS:
            self._install_one(module_name, qualname,
                              lambda fn, s=span_name, g=group: self._span_wrapper(fn, s, g))
        for module_name, qualname, count_name in COUNT_TARGETS:
            self._install_one(module_name, qualname,
                              lambda fn, c=count_name: self._count_wrapper(fn, c))

    def _install_one(self, module_name: str, qualname: str, make) -> None:
        owner = importlib.import_module(module_name)
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        if isinstance(owner, type):
            # a method: every caller finds it on the class
            func = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapper = make(func)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
            return
        # a function: patch it in every privopt module that bound the name
        wrapper = make(raw)
        for module in _privopt_modules():
            for name, value in list(vars(module).items()):
                if value is raw:
                    self._patches.append((module, name, value))
                    setattr(module, name, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as rows of [name, start_s, end_s, parent_row], times relative
        to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[nid, round(s - t0, 9), round(e - t0, 9), parent]
                for nid, _, s, e, parent in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "counts": self.counts, "spans": rows}, fh)


def wiring_problems(tracer: Tracer, installed: bool) -> list[str]:
    """Lookup sites that do not hold what they should: the wrapper while
    installed, the original callable after restore."""
    problems = []
    for path in REQUIRED_LOOKUP_SITES:
        is_wrapper = getattr(_resolve(path), "perfbench_wrapper", False)
        if is_wrapper != installed:
            problems.append(f"{path} is {'not ' if installed else 'still '}wrapped")
    if installed:
        originals = {id(v) for owner, _, v in tracer._patches if not isinstance(owner, type)}
        for module in _privopt_modules():
            for name, value in vars(module).items():
                if id(value) in originals:
                    problems.append(f"{module.__name__}.{name} still holds the unwrapped callable")
    else:
        for module in _privopt_modules():
            for name, value in vars(module).items():
                members = vars(value).items() if isinstance(value, type) else ()
                for label, obj in [(name, value)] + [(f"{name}.{m}", v) for m, v in members]:
                    obj = obj.__func__ if isinstance(obj, classmethod) else obj
                    if getattr(obj, "perfbench_wrapper", False):
                        problems.append(f"{module.__name__}.{label} is still wrapped")
    return problems


def _ratio(keys: list) -> float:
    return len(set(keys)) / len(keys) if keys else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer times (s), counts and ratios of one traced pass."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for nid, _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    size = len(tracer.names)
    calls, inclusive, outer, own = [0] * size, [0.0] * size, [0.0] * size, [0.0] * size
    for row, (nid, outermost, start, end, _) in enumerate(spans):
        duration = end - start
        calls[nid] += 1
        inclusive[nid] += duration
        own[nid] += duration - child[row]
        if outermost:
            outer[nid] += duration

    def get(table, *names):
        return sum(table[tracer._name_ids[n]] for n in names if n in tracer._name_ids)

    runs = [r for r in tracer.engine_runs if r["from_run_command"]]
    out = {
        "configs.build_s": get(outer, "configs.from_file", "configs.build_topology",
                               "configs.build_problem", "configs.build_schedule",
                               "configs.build_weights"),
        "graphs.neighbors_calls": get(calls, "graphs.neighbors"),
        "graphs.neighbors_s": get(inclusive, "graphs.neighbors"),
        "noise.draw_s": get(outer, *[n for n in tracer.names if n.startswith("noise.")]),
        "noise.draw_calls": get(calls, "noise.draw_nb_shares", "noise.draw_lb_perturbation",
                                "noise.draw_noise_functions"),
        "noise.generators": get(calls, "noise.generator"),
        "objectives.gradient_s": get(outer, "objectives.gradient", "objectives.agent_gradients",
                                     "objectives.total_gradient"),
        "objectives.gradient_calls": get(calls, "objectives.gradient"),
        "polynomials.gradient_calls": get(calls, "polynomials.gradient"),
        "objectives.project_s": get(outer, "objectives.project"),
        "objectives.constants_s": get(outer, "objectives.constants", "objectives.estimate_constants"),
        "objectives.constants_calls": get(calls, "objectives.estimate_constants"),
        "objectives.constants_unique_ratio": _ratio(tracer.constants_keys),
        "objectives.oracle_s": get(own, "objectives.solve_centralized"),
        "engine.rounds": sum(r["rounds"] for r in tracer.engine_runs),
        "engine.self_s": get(own, *[f"engine.run_{a}" for a in ALGORITHMS]),
        "engine.recorded_mb": sum(r["nbytes"] for r in runs) / 2 ** 20,
        "engine.trace_encode_s": get(inclusive, "engine.to_json_dict"),
        "engine.trace_load_s": get(inclusive, "engine.load"),
        "analysis.metrics_s": get(own, "analysis.compute_metrics"),
        "analysis.invariants_s": get(own, "analysis.audit_invariants"),
        "analysis.lemma1_s": get(own, "analysis.check_lemma1"),
        "analysis.lemma2_s": get(own, "analysis.check_lemma2"),
        "analysis.consensus_s": get(own, "analysis.check_consensus"),
        "privacy.view_s": get(inclusive, "privacy.extract_view"),
        "privacy.construct_s": get(inclusive, "privacy.construct_alternative"),
        "privacy.verify_self_s": get(own, "privacy.verify_indistinguishable"),
        "privacy.necessity_s": get(inclusive, "privacy.necessity_demo"),
        "privacy.exact_ops": tracer.counts.get("privacy.exact_ops", 0),
        "privacy.replay_s": get(inclusive, "privacy.replay_digest"),
        "privacy.replays": get(calls, "privacy.replay_digest"),
        "privacy.replay_unique_ratio": _ratio(tracer.replay_keys),
        "cli.self_s": get(own, "cli.main"),
    }
    for algorithm in ALGORITHMS:
        mine = [r for r in runs if r["algorithm"] == algorithm]
        rounds = sum(r["rounds"] for r in mine)
        out[f"engine.us_per_round.{algorithm}"] = (
            1e6 * sum(r["seconds"] for r in mine) / rounds if rounds else 0.0)
    return out
