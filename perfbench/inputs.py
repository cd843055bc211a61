"""Seeded inputs for the three workloads.

``make_plan`` writes every config and alternative-objective file a workload
needs into a work directory and returns the plan: the configs to build during
set-up and the ordered CLI steps. Every random choice comes from the workload
seed; the program only ever sees the generated files.
"""

from __future__ import annotations

import json
import os

import numpy as np

WORKLOADS = ("paper_cycle5", "sparse_cycle200", "fs_privacy")

# paper_cycle5: the configs/poly_cycle_run.json experiment, every round recorded
PAPER_ROUNDS = 2000
PAPER_CHECKS = "invariants,lemma1,lemma2,consensus"
PAPER_SUBOPT_BOUND = 1e-3  # final suboptimality of each run; observed <= 1e-6
# Noise bounds. The first step of the inverse-sqrt schedule is 1, and quartic
# gradients grow fast, so a large enough perturbation in the first rounds
# throws states against the box walls, where they stay: with delta 1 for
# rss_lb, 11 of 400 noise seeds did so, and with delta_coeff 0.5 for fs, 90 of
# 400. rss_nb draws no shares in round 1 and is safe at delta 1. The values
# below left 0 of 1000 seeds at the walls; the per-round cost does not depend
# on them.
PAPER_DELTA = {"rss_nb": 1.0, "rss_lb": 0.25}
FS_DELTA_COEFF = 0.1

# sparse_cycle200: large n, light recording; consensus is out of reach at this
# horizon on a 200-cycle, so it is not requested
SPARSE_N = 200
SPARSE_ROUNDS = 100
SPARSE_RECORD_EVERY = 25
SPARSE_CHECKS = "invariants,lemma1,lemma2"

# fs_privacy: function-sharing traces read back by privacy trials
FS_ROUNDS = 200
FS_CHECKS = "invariants,lemma1,lemma2"  # consensus needs far more than 200 rounds
TRIAL_GRAPHS = {"complete": (5, 3), "petersen": (10, 2)}  # n, largest coalition
# 60 complete-5 and 40 Petersen-10 trials, interleaved. The uneven split keeps
# p50 inside the faster complete-5 group and p90 inside the Petersen group, so
# neither percentile sits on the gap between them.
TRIAL_ORDER = ("complete", "complete", "complete", "petersen", "petersen") * 20
CUTS = (("cycle", [0, 2]), ("star", [0]))

# paper_cycle5 and sparse_cycle200 report trial latency from a short probe:
# privacy trials against one complete-5 function-sharing trace, so that every
# workload has every end-to-end metric
PROBE_TRIALS = 20

QUARTIC = ([0, 0, 1], [0, 0, 0, 0, 1], [0, 0, 1, 0, 1], [0, 0, 1, 0, 0.5], [0, 0, 0.5, 0, 1])
D_MAX = 8


class Plan:
    def __init__(self, workload: str, seed: int, work: str):
        self.work = work
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.configs: list[str] = []   # built during set-up
        self.steps: list[dict] = []
        self.sizes: dict = {"runs": [], "trials": 0, "cut_trials": 0}

    def _path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def _write(self, name: str, doc) -> str:
        path = self._path(name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def noise_seed(self) -> int:
        return int(self.rng.integers(0, 2 ** 31))

    def add_run(self, doc: dict, checks: str | None, subopt_bound: float | None = None) -> str:
        name = doc["output_basename"]
        config = self._write(f"{name}.json", doc)
        self.configs.append(config)
        trace = self._path(f"{name}_trace.json")
        self.steps.append({"kind": "run", "config": config, "out_dir": self.work,
                           "trace": trace, "metrics_csv": self._path(f"{name}_metrics.csv"),
                           "n": doc["topology"]["n"], "rounds": doc["max_iter"],
                           "subopt_bound": subopt_bound})
        self.sizes["runs"].append({"name": name, "algorithm": doc["algorithm"],
                                   "n": doc["topology"]["n"],
                                   "T": doc["max_iter"], "D": len(doc["feasible"]["lower"]),
                                   "record_every": doc.get("record_every", 1)})
        if checks:
            self.steps.append({"kind": "audit", "trace": trace, "checks": checks,
                               "out": self._path(f"{name}_audit.json")})
        return trace

    def add_privacy(self, trace: str, n: int, coalition: list, cut: bool) -> None:
        good = [j for j in range(n) if j not in coalition]
        target = int(self.rng.choice(good))
        # the target claims a dyadic perturbation of its quartic objective
        alt = np.zeros((1, D_MAX + 1))
        coeffs = QUARTIC[target % len(QUARTIC)]
        alt[0, :len(coeffs)] = coeffs
        alt += np.round(self.rng.uniform(-1.0, 1.0, alt.shape) * 2 ** 20) / 2 ** 20
        index = len(self.steps)
        self.steps.append({"kind": "privacy", "trace": trace,
                           "coalition": ",".join(map(str, coalition)), "target": str(target),
                           "alt": self._write(f"alt_{index}.json", {str(target): alt.tolist()}),
                           "extras_seed": self.noise_seed(),
                           "out": self._path(f"privacy_{index}.json"), "cut": cut})
        self.sizes["cut_trials" if cut else "trials"] += 1

    def add_trials(self, trace: str, n: int, max_coalition: int, count: int) -> None:
        for _ in range(count):
            size = int(self.rng.integers(1, max_coalition + 1))
            coalition = sorted(int(a) for a in self.rng.choice(n, size=size, replace=False))
            self.add_privacy(trace, n, coalition, cut=False)


def _fs_doc(plan: Plan, family: str, n: int) -> dict:
    return {"algorithm": "fs", "topology": {"family": family, "n": n},
            "objectives": [{"kind": "polynomial", "coeffs": QUARTIC[i % len(QUARTIC)]}
                           for i in range(n)],
            "feasible": {"lower": [-30], "upper": [30]}, "schedule": {"kind": "inv_sqrt"},
            "delta_coeff": FS_DELTA_COEFF, "d_max": D_MAX, "max_iter": FS_ROUNDS,
            "seed": plan.noise_seed(), "init": np.linspace(-1.0, 1.0, n)[:, None].tolist(),
            "output_basename": f"fs_{family}{n}"}


def _with_probe(plan: Plan, add_workload) -> None:
    """The workload's steps with the privacy probe spread between them: its
    fs run first, then its trials a few after each step, so trial latency is
    sampled across the whole pass rather than in one burst."""
    trace = plan.add_run(_fs_doc(plan, "complete", 5), checks=None)
    head = len(plan.steps)
    add_workload()
    body, plan.steps = plan.steps[head:], plan.steps[:head]
    for i, step in enumerate(body):
        plan.steps.append(step)
        share = (i + 1) * PROBE_TRIALS // len(body) - i * PROBE_TRIALS // len(body)
        plan.add_trials(trace, 5, 3, share)


def _paper_cycle5(plan: Plan, root: str) -> None:
    with open(os.path.join(root, "configs", "poly_cycle_run.json")) as fh:
        base = json.load(fh)
    _with_probe(plan, lambda: _paper_runs(plan, base))


def _paper_runs(plan: Plan, base: dict) -> None:
    for algorithm in ("dgd", "rss_nb", "rss_lb", "fs"):
        doc = dict(base, algorithm=algorithm, max_iter=PAPER_ROUNDS, record_every=1,
                   seed=plan.noise_seed(), output_basename=f"paper_{algorithm}")
        if algorithm == "fs":
            doc.update(delta_coeff=FS_DELTA_COEFF, d_max=D_MAX)
        else:
            doc["delta"] = PAPER_DELTA.get(algorithm, 0.0)
        plan.add_run(doc, PAPER_CHECKS, subopt_bound=PAPER_SUBOPT_BOUND)


def _sparse_cycle200(plan: Plan, root: str) -> None:
    _with_probe(plan, lambda: _sparse_runs(plan))


def _sparse_runs(plan: Plan) -> None:
    objectives = []
    for _ in range(SPARSE_N):
        curvature = plan.rng.uniform(0.5, 2.0, 2)
        minimizer = plan.rng.uniform(-5.0, 5.0, 2)
        objectives.append({"kind": "quadratic", "matrix": np.diag(curvature).tolist(),
                           "vector": (-curvature * minimizer).tolist()})
    for algorithm in ("dgd", "rss_nb", "rss_lb"):
        doc = {"algorithm": algorithm, "topology": {"family": "cycle", "n": SPARSE_N},
               "objectives": objectives,
               "feasible": {"lower": [-10.0, -10.0], "upper": [10.0, 10.0]},
               "schedule": {"kind": "inv_sqrt"}, "delta": 1.0, "max_iter": SPARSE_ROUNDS,
               "record_every": SPARSE_RECORD_EVERY, "seed": plan.noise_seed(),
               "output_basename": f"sparse_{algorithm}"}
        plan.add_run(doc, SPARSE_CHECKS)


def _fs_privacy(plan: Plan, root: str) -> None:
    traces = {}
    for family, n in (("complete", 5), ("petersen", 10), ("cycle", 5), ("star", 5)):
        traces[family] = plan.add_run(_fs_doc(plan, family, n), FS_CHECKS)
    for family in TRIAL_ORDER:
        n, max_coalition = TRIAL_GRAPHS[family]
        plan.add_trials(traces[family], n, max_coalition, 1)
    for family, coalition in CUTS:
        plan.add_privacy(traces[family], 5, coalition, cut=True)


def make_plan(workload: str, seed: int, work: str, root: str) -> dict:
    plan = Plan(workload, seed, work)
    {"paper_cycle5": _paper_cycle5, "sparse_cycle200": _sparse_cycle200,
     "fs_privacy": _fs_privacy}[workload](plan, root)
    return {"workload": workload, "seed": seed, "configs": plan.configs,
            "steps": plan.steps, "sizes": plan.sizes}
