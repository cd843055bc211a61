#!/usr/bin/env python3
"""Print the engine-scaling table: microseconds per round against agent count.

Each cell runs one algorithm for ``--rounds`` rounds on a cycle of n diagonal
quadratics (D=1, box [-10, 10], ``inv_sqrt`` steps, ``record_every`` equal to
the round count, Metropolis weights built beforehand) and reports the best of
``--repeats`` untraced runs, divided by the round count. A second table gives
the paper's quartic 5-cycle (the ``configs/poly_cycle_run.json`` problem) at
2000 rounds for all four algorithms, with the noise bounds of the benchmark's
``paper_cycle5`` workload, each run a whole ``execute`` of the config, set-up
included. Run from a source checkout:

    PYTHONPATH=src python3 scripts/engine_scaling.py
    PYTHONPATH=src python3 scripts/engine_scaling.py --sizes 5 100 --rounds 2000
"""

import argparse
import json
import pathlib
import time

import numpy as np

import privopt as po
from privopt.configs import RunConfig, execute

ALGORITHMS = ("dgd", "rss_nb", "rss_lb")
QUARTIC_CONFIG = pathlib.Path(__file__).resolve().parents[1] / "configs" / "poly_cycle_run.json"
QUARTIC_ROUNDS = 2000
# the paper_cycle5 noise bounds: none of them throws states against the walls
QUARTIC_NOISE = {"dgd": {}, "rss_nb": {"delta": 1.0}, "rss_lb": {"delta": 0.25},
                 "fs": {"delta_coeff": 0.1, "d_max": 8}}


def cycle_problem(n: int) -> po.GlobalProblem:
    rng = np.random.default_rng(n)
    curvatures = rng.uniform(0.5, 2.0, n)
    minimisers = rng.uniform(-5.0, 5.0, n)
    return po.GlobalProblem(
        objectives=[po.QuadraticObjective([[c]], [-c * m]) for c, m in zip(curvatures, minimisers)],
        feasible=po.Box([-10.0], [10.0]))


def us_per_round(algorithm: str, n: int, rounds: int, repeats: int) -> float:
    topology = po.Topology.family("cycle", n)
    problem = cycle_problem(n)
    weights = po.metropolis_weights(topology)
    schedule = po.StepSchedule(kind="inv_sqrt")
    kw = dict(weights=weights, record_every=rounds)
    if algorithm == "dgd":
        run = lambda: po.run_dgd(problem, topology, schedule, rounds, **kw)
    elif algorithm == "rss_nb":
        run = lambda: po.run_rss_nb(problem, topology, schedule, 1.0, rounds, seed=1, **kw)
    else:
        run = lambda: po.run_rss_lb(problem, topology, schedule, 1.0, rounds, seed=1, **kw)
    return best_us_per_round(run, rounds, repeats)


def quartic_us_per_round(algorithm: str, repeats: int) -> float:
    with open(QUARTIC_CONFIG) as fh:
        doc = json.load(fh)
    config = RunConfig.from_dict({**doc, "algorithm": algorithm, "max_iter": QUARTIC_ROUNDS,
                                  "record_every": QUARTIC_ROUNDS, **QUARTIC_NOISE[algorithm]})
    return best_us_per_round(lambda: execute(config), QUARTIC_ROUNDS, repeats)


def best_us_per_round(run, rounds: int, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return 1e6 * best / rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[100, 400, 1000])
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if min(args.sizes) < 3 or args.rounds < 1 or args.repeats < 1:
        parser.error("sizes must be at least 3, rounds and repeats at least 1")

    print(f"us/round, best of {args.repeats}, {args.rounds} rounds, cycle, D=1, untraced")
    print("| algorithm | " + " | ".join(f"n={n}" for n in args.sizes) + " |")
    print("|-----------|" + "|".join("-" * (len(f"n={n}") + 2) for n in args.sizes) + "|")
    for algorithm in ALGORITHMS:
        cells = [f"{us_per_round(algorithm, n, args.rounds, args.repeats):.1f}" for n in args.sizes]
        print(f"| {algorithm:<9} | " + " | ".join(cells) + " |")
    print()
    print(f"us/round, best of {args.repeats}, {QUARTIC_ROUNDS} rounds, "
          f"quartic 5-cycle ({QUARTIC_CONFIG.name}), untraced")
    print("| algorithm | n=5  |")
    print("|-----------|------|")
    for algorithm in QUARTIC_NOISE:
        print(f"| {algorithm:<9} | {quartic_us_per_round(algorithm, args.repeats):.1f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
