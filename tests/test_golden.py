"""Golden state digests of eight short canonical runs: every algorithm on a
5-cycle with D=1 and on a complete 5-graph with D=2.

A refactor that keeps behaviour keeps every digest. A change that alters the
dynamics on purpose bumps ``TRACE_VERSION`` and regenerates the file with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import pathlib

import numpy as np
import pytest

import privopt as po

from conftest import INTERIOR_INIT, QUARTIC_COEFFS, quartic_objectives

GOLDEN = pathlib.Path(__file__).with_name("golden_digests.json")
GRAPHS = ("cycle5", "complete5")
NAMES = [f"{algorithm}/{graph}" for graph in GRAPHS for algorithm in po.engine.ALGORITHMS]
ROUNDS = 40
SEED = 11


def _padded(coeffs, width=5):
    return list(coeffs) + [0.0] * (width - len(coeffs))


def _case(graph: str):
    if graph == "cycle5":
        problem = po.GlobalProblem(objectives=quartic_objectives(),
                                   feasible=po.Box([-30.0], [30.0]))
        return problem, po.Topology.family("cycle", 5), INTERIOR_INIT
    objectives = [po.PolynomialObjective([_padded(QUARTIC_COEFFS[i]),
                                          _padded(QUARTIC_COEFFS[(i + 1) % 5])])
                  for i in range(5)]
    problem = po.GlobalProblem(objectives=objectives, feasible=po.Box([-30.0] * 2, [30.0] * 2))
    ramp = np.linspace(-1.0, 1.0, 5)
    return problem, po.Topology.family("complete", 5), np.stack([ramp, ramp[::-1]], axis=1)


def canonical_digests() -> dict:
    schedule = po.StepSchedule(kind="inv_sqrt")
    out = {}
    for graph in GRAPHS:
        problem, topology, init = _case(graph)
        runs = {
            "dgd": lambda: po.run_dgd(problem, topology, schedule, ROUNDS, init=init),
            "rss_nb": lambda: po.run_rss_nb(problem, topology, schedule, 1.0, ROUNDS,
                                            init=init, seed=SEED),
            "rss_lb": lambda: po.run_rss_lb(problem, topology, schedule, 1.0, ROUNDS,
                                            init=init, seed=SEED),
            "fs": lambda: po.run_fs(problem, topology, schedule, 0.1, 4, ROUNDS,
                                    init=init, seed=SEED),
        }
        for algorithm, run in runs.items():
            out[f"{algorithm}/{graph}"] = run().state_digest()
    return out


@pytest.fixture(scope="module")
def digests():
    return canonical_digests()


@pytest.mark.parametrize("name", NAMES)
def test_golden_digest(name, digests):
    golden = json.loads(GOLDEN.read_text())
    assert golden["trace_version"] == po.engine.TRACE_VERSION
    assert digests[name] == golden["digests"][name]


if __name__ == "__main__":
    doc = {"trace_version": po.engine.TRACE_VERSION, "digests": canonical_digests()}
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
