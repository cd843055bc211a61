import json

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import privopt as po
from privopt.engine import decode_array, dgd_step, digest_states, encode_array, recorded_rounds

# Local objective family used throughout: x^2, x^4, x^2+x^4, x^2+0.5x^4, 0.5x^2+x^4
QUARTIC_COEFFS = [
    [0, 0, 1],
    [0, 0, 0, 0, 1],
    [0, 0, 1, 0, 1],
    [0, 0, 1, 0, 0.5],
    [0, 0, 0.5, 0, 1],
]

# With the inverse-sqrt schedule, early steps on the full [-30, 30] box throw
# states against the walls (quartic gradients reach 1e5), so test runs start
# from an interior band; any feasible initialization is admissible.
INTERIOR_INIT = np.linspace(-1.0, 1.0, 5)[:, None]


def quartic_objectives():
    return [po.PolynomialObjective(c) for c in QUARTIC_COEFFS]


def reference_candidates(row, lo: float, hi: float) -> np.ndarray:
    """The per-row rule that ``polynomials.interval_candidates`` batches: the
    ends, the real roots of p' inside [lo, hi], and a 65-point grid."""
    pts = [lo, hi]
    der = npoly.polyder(row)
    if np.count_nonzero(der) > 0:
        trimmed = np.trim_zeros(der, trim="b")
        if trimmed.size >= 2:
            scale = max(1.0, abs(lo), abs(hi))
            pts += [float(r.real) for r in npoly.polyroots(trimmed)
                    if abs(r.imag) < 1e-9 * scale and lo <= r.real <= hi]
    return np.asarray(pts + list(np.linspace(lo, hi, 65)))


def reference_extrema(row, lo: float, hi: float) -> tuple[float, float]:
    """(min p, max |p|) of one polynomial over [lo, hi]: ``polyval`` at the
    ``reference_candidates``."""
    values = npoly.polyval(reference_candidates(row, lo, hi), row)
    return float(np.min(values)), float(np.max(np.abs(values)))


def reference_sups(coeffs, lower, upper) -> tuple[float, float]:
    """Gradient sup-norm and curvature sup of a (D, C) separable polynomial
    over a box, from ``reference_extrema`` of each coordinate's derivatives."""
    grad = [reference_extrema(npoly.polyder(row), lo, hi)[1]
            for row, lo, hi in zip(coeffs, lower, upper)]
    curv = [reference_extrema(npoly.polyder(row, 2), lo, hi)[1]
            for row, lo, hi in zip(coeffs, lower, upper)]
    return float(np.sqrt(np.sum(np.square(grad)))), float(np.max(curv))


def random_connected_topology(rng, n):
    nodes = list(range(n))
    rng.shuffle(nodes)
    edges = set()
    for a, b in zip(nodes, nodes[1:]):  # random spanning tree keeps it connected
        edges.add((min(a, b), max(a, b)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.3:
                edges.add((u, v))
    return po.Topology.from_edges(n, edges)


@pytest.fixture(scope="session")
def wide_box():
    return po.Box([-30.0], [30.0])


@pytest.fixture(scope="session")
def quartic_problem(wide_box):
    return po.GlobalProblem(objectives=quartic_objectives(), feasible=wide_box)


@pytest.fixture(scope="session")
def cycle5():
    return po.Topology.family("cycle", 5)


@pytest.fixture(scope="session")
def complete5():
    return po.Topology.family("complete", 5)


@pytest.fixture(scope="session")
def inv_sqrt():
    return po.StepSchedule(kind="inv_sqrt")


@pytest.fixture(scope="session")
def quartic_optimum(quartic_problem):
    return po.solve_centralized(quartic_problem)


def quartic_config(**overrides):
    doc = {
        "algorithm": "dgd",
        "topology": {"family": "cycle", "n": 5},
        "objectives": [{"kind": "polynomial", "coeffs": c} for c in QUARTIC_COEFFS],
        "feasible": {"lower": [-30], "upper": [30]},
        "schedule": {"kind": "inv_sqrt"},
        "max_iter": 400,
        "init": INTERIOR_INIT.tolist(),
    }
    doc.update(overrides)
    return doc


def run_doc(algorithm, problem, topology, schedule, max_iter, init=None, **keys) -> dict:
    """The run config document of these objects, as their ``to_spec`` writes
    them; ``keys`` are the other config keys (delta, seed, d_max, ...)."""
    doc = {"algorithm": algorithm, "topology": topology.to_spec(), **problem.to_spec(),
           "schedule": schedule.to_spec(), "max_iter": max_iter, **keys}
    if init is not None:
        doc["init"] = np.asarray(init, dtype=float).tolist()
    return doc


def run(*args, **keys):
    """The trace of ``privopt.execute`` on the validated ``run_doc``."""
    return po.execute(po.RunConfig.from_dict(run_doc(*args, **keys)))


def reference_dgd(problem, weights, schedule, max_iter, init, record_every=1):
    """Plain distributed gradient descent, one ``dgd_step`` a round, under the
    ``FusionMatrix`` ``weights``: the ``digest_states`` of the run and its
    final states. It runs problems that a run config refuses, such as
    non-convex obfuscated objectives."""
    init = np.asarray(init, dtype=float)
    if not problem.feasible.contains(init):
        raise ValueError("initial states must lie in the feasible set")
    rounds = recorded_rounds(max_iter, record_every)
    recorded, senders = set(rounds.tolist()), weights.topology.fuse_slots.senders
    x, states = init, []
    for k, alpha in enumerate(schedule.steps(max_iter).tolist(), start=1):
        if k in recorded:
            states.append(x)
        x = dgd_step(problem, weights.weights, x[senders], alpha, k)
    return digest_states(max_iter, rounds, init, np.array(states), x), x


def decoded(value):
    """The array of an ``encode_array`` object of a trace document."""
    return decode_array(value, "array", *value["shape"])


def with_entry(array, index, value):
    """A copy of ``array`` with ``array[index] = value``."""
    out = array.copy()
    out[index] = value
    return out


def edit_array(doc, path, change):
    """Replace the value at ``path`` (a sequence of keys) of a trace document
    by ``change(value)``. An encoded array is handed to ``change`` decoded,
    and an array it returns is stored encoded; any other value is handed over
    and stored as it is."""
    *outer, last = path
    for key in outer:
        doc = doc[key]
    value = doc[last]
    if isinstance(value, dict) and "base64" in value:
        value = decoded(value)
    new = change(value)
    doc[last] = encode_array(new) if isinstance(new, np.ndarray) else new


def save_trace(trace, path):
    """Write a trace's document to ``path``, as ``privopt run`` writes it."""
    with open(path, "w") as fh:
        json.dump(trace.to_json_dict(), fh)
