"""Golden state digests of short canonical runs: every algorithm on a 5-cycle
with D=1 and on a complete 5-graph with D=2 (quartic objectives), and the
perturbation-free and rss algorithms on 5-cycles of dense quadratic and of
logistic objectives with D=2, and dgd and rss_lb on a 9-agent star, whose hub
sums its Metropolis weights in slot order (see ``metropolis_weights``).

A refactor that keeps behaviour keeps every digest. Running

    PYTHONPATH=src python tests/test_golden.py

adds the digests of cases the file does not have yet. It refuses to change or
drop a stored digest unless ``TRACE_VERSION`` differs from the stored
``trace_version``, i.e. unless the change alters the dynamics or the trace
layout on purpose and bumps the version. It prints how many stored digests
changed, so a bump for a layout change shows "0 changed".
"""

import json
import pathlib

import numpy as np
import pytest

import privopt as po

from conftest import INTERIOR_INIT, QUARTIC_COEFFS, quartic_objectives

GOLDEN = pathlib.Path(__file__).with_name("golden_digests.json")
ROUNDS = 40
SEED = 11

# Dense symmetric positive definite 2x2 matrices (every off-diagonal nonzero).
QUADRATIC_MATRICES = [
    [[2.0, 0.5], [0.5, 1.0]],
    [[1.0, -0.3], [-0.3, 0.8]],
    [[3.0, 1.2], [1.2, 1.5]],
    [[0.6, 0.1], [0.1, 2.2]],
    [[1.4, -0.9], [-0.9, 1.1]],
]
QUADRATIC_VECTORS = [[1.0, -2.0], [0.5, 0.5], [-1.0, 0.0], [2.0, 1.0], [-0.5, -1.5]]


def _padded(coeffs, width=5):
    return list(coeffs) + [0.0] * (width - len(coeffs))


def _ramp2(lo=-1.0, hi=1.0):
    ramp = np.linspace(lo, hi, 5)
    return np.stack([ramp, ramp[::-1]], axis=1)


def _case(case: str):
    """(problem, topology, init) of one canonical case."""
    if case == "cycle5":
        problem = po.GlobalProblem(objectives=quartic_objectives(),
                                   feasible=po.Box([-30.0], [30.0]))
        return problem, po.Topology.family("cycle", 5), INTERIOR_INIT
    if case == "complete5":
        objectives = [po.PolynomialObjective([_padded(QUARTIC_COEFFS[i]),
                                              _padded(QUARTIC_COEFFS[(i + 1) % 5])])
                      for i in range(5)]
        problem = po.GlobalProblem(objectives=objectives,
                                   feasible=po.Box([-30.0] * 2, [30.0] * 2))
        return problem, po.Topology.family("complete", 5), _ramp2()
    if case == "quadratic_cycle5":
        objectives = [po.QuadraticObjective(q, b)
                      for q, b in zip(QUADRATIC_MATRICES, QUADRATIC_VECTORS)]
        problem = po.GlobalProblem(objectives=objectives,
                                   feasible=po.Box([-10.0] * 2, [10.0] * 2))
        return problem, po.Topology.family("cycle", 5), _ramp2(-3.0, 3.0)
    if case == "logistic_cycle5":
        objectives = [po.LogisticObjective(seed, dim=2) for seed in range(5)]
        problem = po.GlobalProblem(objectives=objectives,
                                   feasible=po.Box([-5.0] * 2, [5.0] * 2))
        return problem, po.Topology.family("cycle", 5), _ramp2()
    if case == "star9":
        problem = po.GlobalProblem(
            objectives=[po.PolynomialObjective(QUARTIC_COEFFS[i % 5]) for i in range(9)],
            feasible=po.Box([-30.0], [30.0]))
        return problem, po.Topology.family("star", 9), np.linspace(-1.0, 1.0, 9)[:, None]
    raise ValueError(f"unknown case {case!r}")


# case -> algorithms; fs needs polynomial objectives
CASES = {
    "cycle5": po.engine.ALGORITHMS,
    "complete5": po.engine.ALGORITHMS,
    "quadratic_cycle5": ("dgd", "rss_nb", "rss_lb"),
    "logistic_cycle5": ("dgd", "rss_nb", "rss_lb"),
    "star9": ("dgd", "rss_lb"),
}
NAMES = [f"{algorithm}/{case}" for case, algorithms in CASES.items() for algorithm in algorithms]


def canonical_traces() -> dict:
    """name -> trace of every canonical run."""
    schedule = po.StepSchedule(kind="inv_sqrt")
    out = {}
    for case, algorithms in CASES.items():
        problem, topology, init = _case(case)
        runs = {
            "dgd": lambda: po.run_dgd(problem, topology, schedule, ROUNDS, init=init),
            "rss_nb": lambda: po.run_rss_nb(problem, topology, schedule, 1.0, ROUNDS,
                                            init=init, seed=SEED),
            "rss_lb": lambda: po.run_rss_lb(problem, topology, schedule, 1.0, ROUNDS,
                                            init=init, seed=SEED),
            "fs": lambda: po.run_fs(problem, topology, schedule, 0.1, 4, ROUNDS,
                                    init=init, seed=SEED),
        }
        for algorithm in algorithms:
            out[f"{algorithm}/{case}"] = runs[algorithm]()
    return out


def canonical_digests() -> dict:
    return {name: trace.state_digest() for name, trace in canonical_traces().items()}


def changed_digests(stored: dict, fresh: dict) -> list:
    """Stored names whose digest differs from or is missing in ``fresh``."""
    return sorted(name for name, digest in stored["digests"].items() if fresh.get(name) != digest)


def golden_summary(stored: dict, fresh: dict, version: int) -> str:
    added = sorted(set(fresh) - set(stored["digests"]))
    changed = changed_digests(stored, fresh)
    text = (f"trace version {stored['trace_version']} -> {version}: "
            f"{len(changed)} changed, {len(added)} added")
    return text + "".join(f"\n  changed: {name}" for name in changed)


def merged_golden(stored: dict | None, fresh: dict, version: int) -> dict:
    """The golden document to write: ``fresh`` digests under ``version``.
    At the stored version, a stored digest that differs from or is missing in
    ``fresh`` raises ``ValueError``; only new names are added."""
    if stored is not None and stored["trace_version"] == version:
        changed = changed_digests(stored, fresh)
        if changed:
            raise ValueError(f"refusing to change golden digests at trace version {version} "
                             f"(bump TRACE_VERSION if the dynamics changed on purpose): "
                             f"{', '.join(changed)}")
    return {"trace_version": version, "digests": dict(fresh)}


@pytest.fixture(scope="module")
def digests():
    return canonical_digests()


@pytest.mark.parametrize("name", NAMES)
def test_golden_digest(name, digests):
    golden = json.loads(GOLDEN.read_text())
    assert golden["trace_version"] == po.engine.TRACE_VERSION
    assert digests[name] == golden["digests"][name]


def test_stored_names_are_canonical():
    assert sorted(json.loads(GOLDEN.read_text())["digests"]) == sorted(NAMES)


class TestMergedGolden:
    STORED = {"trace_version": 2, "digests": {"dgd/a": "00", "fs/a": "11"}}

    def test_adds_missing_names(self):
        doc = merged_golden(self.STORED, {"dgd/a": "00", "fs/a": "11", "dgd/b": "22"}, 2)
        assert doc == {"trace_version": 2,
                       "digests": {"dgd/a": "00", "fs/a": "11", "dgd/b": "22"}}

    @pytest.mark.parametrize("fresh", [{"dgd/a": "00", "fs/a": "ff"}, {"dgd/a": "00"}])
    def test_refuses_to_change_or_drop_at_same_version(self, fresh):
        with pytest.raises(ValueError, match="fs/a"):
            merged_golden(self.STORED, fresh, 2)

    def test_version_bump_rewrites(self):
        doc = merged_golden(self.STORED, {"dgd/a": "ee"}, 3)
        assert doc == {"trace_version": 3, "digests": {"dgd/a": "ee"}}

    def test_no_stored_file(self):
        assert merged_golden(None, {"dgd/a": "00"}, 2)["digests"] == {"dgd/a": "00"}

    def test_summary_of_layout_only_bump(self):
        fresh = {"dgd/a": "00", "fs/a": "11"}
        assert golden_summary(self.STORED, fresh, 3) == "trace version 2 -> 3: 0 changed, 0 added"

    def test_summary_names_changed_digests(self):
        text = golden_summary(self.STORED, {"dgd/a": "ee", "dgd/b": "22"}, 3)
        assert text.splitlines() == ["trace version 2 -> 3: 2 changed, 1 added",
                                     "  changed: dgd/a", "  changed: fs/a"]


if __name__ == "__main__":
    stored = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else None
    fresh = canonical_digests()
    try:
        doc = merged_golden(stored, fresh, po.engine.TRACE_VERSION)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if stored is not None:
        print(golden_summary(stored, fresh, po.engine.TRACE_VERSION))
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
