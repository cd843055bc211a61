"""Constructive privacy verification for function-sharing runs.

Given an execution trace and an adversary coalition, this module builds an
alternative problem instance (different local objectives, different noise
functions) whose observable footprint is identical, and verifies the match
coefficientwise. The spanning-tree noise system is solved by exact
leaf-elimination over rationals, so balance residuals are zero rather than
merely small: every float coefficient is a dyadic rational, and the solve
stays in that field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .engine import ExecutionTrace, StepSchedule, dgd_step, digest_states, recorded_rounds
# unused here, but the benchmark's span table (perfbench/spans.py) requires it at this site
from .engine import run_dgd  # noqa: F401
from .graphs import DisconnectedError, FusionMatrix, Topology, canonical_edge, spanning_tree_split
from .noise import COEFF_GRID, RandomStreams
from .objectives import Box, GlobalProblem, PolynomialObjective


class NonFsTraceError(TypeError):
    pass


class NotACutError(ValueError):
    pass


class TargetSetError(ValueError):
    pass


# Exact coefficient arithmetic: a polynomial is a (dim, width) grid of Fractions.

def to_exact(arr) -> tuple:
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    return tuple(tuple(Fraction(v) for v in row) for row in arr)


def from_exact(poly) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in poly])


def exact_zero(dim: int, width: int) -> tuple:
    return tuple(tuple(Fraction(0) for _ in range(width)) for _ in range(dim))


def exact_pad(poly, width: int) -> tuple:
    return tuple(tuple(row) + tuple(Fraction(0) for _ in range(width - len(row))) for row in poly)


def exact_add(a, b) -> tuple:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def exact_sub(a, b) -> tuple:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def exact_max_abs(poly) -> float:
    worst = Fraction(0)
    for row in poly:
        for v in row:
            if abs(v) > worst:
                worst = abs(v)
    return float(worst)


@dataclass(frozen=True)
class AdversaryView:
    """Everything a coalition observes in a function-sharing execution: all
    obfuscated objectives (conservative adversary), its members' own local
    objectives, every noise function on coalition-incident directed edges, the
    topology, the run recipe needed to replay the public dynamics, and those
    dynamics as recorded: the states (R, n, D) at the recipe's recorded
    rounds and the final states (n, D)."""

    coalition: tuple
    topology: Topology
    dim: int
    width: int
    obfuscated: dict          # agent -> float coeffs (dim, width), all agents
    coalition_objectives: dict  # agent in coalition -> float coeffs
    observed_noise: dict      # (sender, receiver) -> float coeffs, coalition-incident
    recipe: dict
    trace_digest: str
    states: np.ndarray
    final_states: np.ndarray


def _polynomial_coeffs_from_spec(problem_spec: dict, width: int, dim: int) -> dict:
    out = {}
    for agent, spec in enumerate(problem_spec["objectives"]):
        if spec.get("kind") != "polynomial":
            raise NonFsTraceError("function-sharing traces require polynomial objectives")
        coeffs = np.atleast_2d(np.asarray(spec["coeffs"], dtype=float))
        padded = np.zeros((dim, width))
        padded[:, : coeffs.shape[1]] = coeffs
        out[agent] = padded
    return out


def extract_view(trace: ExecutionTrace, coalition) -> AdversaryView:
    """Assemble the adversary's observations from a function-sharing trace.

    A down-sampled trace of a run with per-round weights is refused with a
    ValueError: it holds no weights for its unrecorded rounds, so its public
    dynamics cannot be replayed."""
    if trace.algorithm != "fs":
        raise NonFsTraceError(f"privacy analysis requires a function-sharing trace, got {trace.algorithm!r}")
    if trace.weights_series is not None and not trace.complete:
        raise ValueError("a down-sampled trace of a run with per-round weights does not "
                         "record the weights of its unrecorded rounds, so it cannot be replayed")
    coalition = tuple(sorted(set(int(a) for a in coalition)))
    for a in coalition:
        if not 0 <= a < trace.n:
            raise ValueError(f"coalition member {a} out of range")
    width = int(trace.extras["width"])
    dim = trace.dim
    obfuscated = {j: np.asarray(c, dtype=float) for j, c in enumerate(trace.extras["obfuscated"])}
    all_noise = {(int(j), int(i)): np.asarray(c, dtype=float) for j, i, c in trace.extras["noise"]}
    mark = set(coalition)
    observed = {edge: c for edge, c in all_noise.items() if edge[0] in mark or edge[1] in mark}
    true_coeffs = _polynomial_coeffs_from_spec(trace.problem_spec, width, dim)
    recipe = {
        "schedule": trace.schedule.to_spec(),
        "weights": trace.weights.tolist(),
        "weights_series": None if trace.weights_series is None else trace.weights_series.tolist(),
        "init": trace.init.tolist(),
        "max_iter": trace.max_iter,
        "record_every": trace.record_every,
        "feasible": trace.problem_spec["feasible"],
        "delta_coeff": trace.extras.get("delta_coeff", 0.0),
        "d_max": trace.extras.get("d_max", width - 1),
    }
    return AdversaryView(
        coalition=coalition,
        topology=trace.topology,
        dim=dim,
        width=width,
        obfuscated=obfuscated,
        coalition_objectives={a: true_coeffs[a] for a in coalition},
        observed_noise=observed,
        recipe=recipe,
        trace_digest=trace.state_digest(),
        states=trace.states,
        final_states=trace.final_states,
    )


def complete_alternative_objectives(problem: GlobalProblem, coalition, target,
                                    alternatives: dict, d_max: int) -> dict:
    """Fill in alternative local objectives for the remaining free agents so
    the retained agents' sum is preserved coefficientwise; the residual
    polynomial lands on the lowest-index free agent."""
    coalition = set(int(a) for a in coalition)
    target = set(int(a) for a in target)
    n = problem.n
    good = set(range(n)) - coalition
    if not target <= good:
        raise TargetSetError("target agents must lie outside the coalition")
    free = sorted(good - target)
    if not free:
        raise TargetSetError(
            "target set equals all retained agents; their total is observable and cannot be rewritten")
    width = d_max + 1
    for obj in problem.objectives:
        if not isinstance(obj, PolynomialObjective):
            raise NonFsTraceError("function sharing requires polynomial local objectives")
        if obj.poly.width > width:
            raise ValueError("objective degree exceeds d_max")
    dim = problem.dim
    truth = {j: exact_pad(to_exact(problem.objectives[j].poly.coeffs), width) for j in range(n)}
    out = dict(truth)
    residual = exact_zero(dim, width)
    for agent in sorted(target):
        alt = np.atleast_2d(np.asarray(alternatives[agent], dtype=float))
        if alt.shape[1] > width:
            raise ValueError(f"alternative objective for agent {agent} exceeds d_max")
        alt_exact = exact_pad(to_exact(alt), width)
        out[agent] = alt_exact
        residual = exact_add(residual, exact_sub(truth[agent], alt_exact))
    out[free[0]] = exact_add(out[free[0]], residual)
    return out


@dataclass
class AlternativeInstance:
    """Full alternative assignment: objectives for every agent and noise
    functions for every directed edge, in exact coefficient form."""

    objectives: dict     # agent -> exact poly
    noise: dict          # (sender, receiver) -> exact poly
    dim: int
    width: int
    tree_edges: tuple = ()
    solve_residual: float = 0.0

    def float_objectives(self) -> dict:
        return {j: from_exact(p) for j, p in self.objectives.items()}

    def float_noise(self) -> dict:
        return {e: from_exact(p) for e, p in self.noise.items()}


def _exact_obfuscation(agent: int, topology: Topology, objectives: dict, noise: dict):
    total = objectives[agent]
    for i in topology.neighbors(agent):
        if i == agent:
            continue
        total = exact_add(total, noise[(i, agent)])
        total = exact_sub(total, noise[(agent, i)])
    return total


def construct_alternative(view: AdversaryView, objectives: dict,
                          extras: dict | None = None, extras_seed: int = 0) -> AlternativeInstance:
    """Build an alternative instance matching the adversary's observations.

    Noise on coalition-incident edges is pinned to the observed functions and
    conceptually deleted; the remaining good-good edges split into a spanning
    tree plus extra edges. Extra edges (and the reverse orientation of each
    tree edge) receive arbitrary seeded polynomials unless supplied via
    ``extras``; the canonical orientation of each tree edge is then the unique
    solution of the good agents' balance equations, computed by peeling leaves.
    """
    topology = view.topology
    coalition = set(view.coalition)
    good = sorted(set(range(topology.n)) - coalition)
    if len(good) < 1:
        raise TargetSetError("no retained agents remain")
    width, dim = view.width, view.dim

    exact_objectives = {}
    for j in range(topology.n):
        poly = objectives[j]
        exact_objectives[j] = poly if isinstance(poly, tuple) else exact_pad(to_exact(poly), width)
    for a in coalition:
        if exact_objectives[a] != exact_pad(to_exact(view.coalition_objectives[a]), width):
            raise ValueError(f"alternative objective for coalition agent {a} must equal the observed one")

    tree, tree_extras = spanning_tree_split(topology, excluded=coalition)

    noise: dict = {}
    for edge, coeffs in view.observed_noise.items():
        noise[edge] = exact_pad(to_exact(coeffs), width)

    unknown = {edge: None for edge in tree}  # canonical orientation (u, v), u < v
    assigned_pairs = []
    for (u, v) in tree_extras:
        assigned_pairs.extend([(u, v), (v, u)])
    assigned_pairs.extend([(v, u) for (u, v) in tree])  # reverse orientation of tree edges

    streams = RandomStreams(extras_seed)
    scale = max(float(view.recipe.get("delta_coeff", 0.0)), 1.0)
    for (j, i) in assigned_pairs:
        if extras is not None and (j, i) in extras:
            noise[(j, i)] = exact_pad(to_exact(extras[(j, i)]), width)
        else:
            rng = streams.generator("alt_extra", j, i)
            raw = rng.uniform(-scale, scale, size=(dim, width))
            noise[(j, i)] = to_exact(np.round(raw / COEFF_GRID) * COEFF_GRID)

    # Balance residual per good agent: what the unknown tree functions must supply.
    residual = {}
    for j in good:
        r = exact_sub(exact_pad(to_exact(view.obfuscated[j]), width), exact_objectives[j])
        for i in topology.neighbors(j):
            if i == j:
                continue
            if (i, j) in noise:
                r = exact_sub(r, noise[(i, j)])
            if (j, i) in noise:
                r = exact_add(r, noise[(j, i)])
        residual[j] = r

    # Peel leaves of the spanning tree; each leaf's single unknown edge is
    # determined by its balance equation.
    tree_adj = {j: [] for j in good}
    for (u, v) in tree:
        tree_adj[u].append(v)
        tree_adj[v].append(u)
    degree = {j: len(tree_adj[j]) for j in good}
    leaves = [j for j in good if degree[j] == 1]
    removed = set()
    while leaves:
        leaf = leaves.pop(0)
        if leaf in removed or degree[leaf] != 1:
            continue  # peeled down to the root
        removed.add(leaf)
        parent = next(p for p in tree_adj[leaf] if p not in removed)
        u, v = canonical_edge(leaf, parent)
        if (u, v) == (leaf, parent):
            # unknown leaves the leaf: -t[leaf, parent] = residual  =>  t = -r
            value = tuple(tuple(-c for c in row) for row in residual[leaf])
            residual[parent] = exact_sub(residual[parent], value)
        else:
            # unknown enters the leaf: +t[parent, leaf] = residual
            value = residual[leaf]
            residual[parent] = exact_add(residual[parent], value)
        unknown[(u, v)] = value
        degree[parent] -= 1
        degree[leaf] = 0
        if degree[parent] == 1 and parent not in removed:
            leaves.append(parent)
    solve_residual = 0.0
    root = next(j for j in good if j not in removed) if len(removed) < len(good) else good[0]
    if len(good) > len(removed):
        solve_residual = exact_max_abs(residual[root])
    noise.update({edge: val for edge, val in unknown.items()})
    if solve_residual > 1e-12:
        raise RuntimeError(
            f"tree solve left residual {solve_residual:.3e} at agent {root}; inputs are inconsistent")
    return AlternativeInstance(objectives=exact_objectives, noise=noise, dim=dim,
                               width=width, tree_edges=tree, solve_residual=solve_residual)


@dataclass
class VerificationReport:
    passed: bool
    max_residual: float
    digest_ok: bool | None
    first_mismatch: dict | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"passed": bool(self.passed), "max_residual": self.max_residual,
                "digest_ok": self.digest_ok, "first_mismatch": self.first_mismatch,
                "details": self.details}


def verify_indistinguishable(view: AdversaryView, instance: AlternativeInstance,
                             tolerance: float = 1e-9, rerun: bool = True) -> VerificationReport:
    """Replay the obfuscation under the alternative instance and compare every
    observation: obfuscated functions for all agents, the coalition's own
    objectives, and coalition-incident noise. Optionally re-run the public
    dynamics from the observed obfuscated functions and compare trace digests.
    """
    topology = view.topology
    width = view.width
    max_residual = 0.0
    first = None

    def note(kind, where, gap):
        nonlocal max_residual, first
        if gap > max_residual:
            max_residual = gap
        if gap > tolerance and first is None:
            first = {"kind": kind, "where": where, "gap": gap}

    for j in range(topology.n):
        rebuilt = _exact_obfuscation(j, topology, instance.objectives, instance.noise)
        gap = exact_max_abs(exact_sub(rebuilt, exact_pad(to_exact(view.obfuscated[j]), width)))
        note("obfuscated_function", {"agent": j}, gap)
    for a in view.coalition:
        gap = exact_max_abs(exact_sub(instance.objectives[a],
                                      exact_pad(to_exact(view.coalition_objectives[a]), width)))
        note("coalition_objective", {"agent": a}, gap)
    for edge, coeffs in view.observed_noise.items():
        gap = exact_max_abs(exact_sub(instance.noise[edge], exact_pad(to_exact(coeffs), width)))
        note("coalition_incident_noise", {"edge": list(edge)}, gap)

    digest_ok = None
    if rerun and first is None:
        digest_ok = replay_digest(view) == view.trace_digest
    passed = first is None and (digest_ok is not False)
    return VerificationReport(passed=passed, max_residual=max_residual, digest_ok=digest_ok,
                              first_mismatch=first,
                              details={"tolerance": tolerance, "agents": topology.n})


def replay_digest(view: AdversaryView) -> str:
    """Digest of the public dynamics re-run from the observed obfuscated
    functions; identical observations imply an identical digest.

    Rather than re-running every round in turn, every recorded transition is
    checked at once: each state recorded at round r_i is advanced, by descent
    steps of the obfuscated problem, to the next recorded round r_{i+1} (the
    last one to the final state after round ``max_iter``), all of them in one
    array operation per step. That is one step for a complete trace and at
    most ``record_every - 1`` for a down-sampled one. The replayed states are the
    initial states followed by these advances. When every advance equals the
    recorded state, a round-by-round replay reproduces the trace by induction;
    the first advance that differs changes both digests. So this digest
    equals the trace digest exactly when a round-by-round replay's does.

    Raises GraphError for invalid fusion weights, ValueError for initial
    states outside the feasible set and NonFiniteError for an advance that is
    not finite (as a round-by-round replay does when no earlier transition
    differs)."""
    topology, recipe = view.topology, view.recipe
    box = Box.from_spec(recipe["feasible"])
    problem = GlobalProblem(
        objectives=[PolynomialObjective(view.obfuscated[j], enforce_convex=False)
                    for j in range(topology.n)],
        feasible=box, validate_convexity=False)
    init = np.asarray(recipe["init"], dtype=float)
    if init.shape != (topology.n, view.dim):
        raise ValueError(f"init must have shape ({topology.n}, {view.dim})")
    if not box.contains(init):
        raise ValueError("initial states must lie in the feasible set")
    max_iter = int(recipe["max_iter"])
    rounds = recorded_rounds(max_iter, int(recipe["record_every"]))
    varying = recipe["weights_series"] is not None
    entries = recipe["weights_series"] if varying else recipe["weights"]
    weights = topology.fuse_slots.weights(
        FusionMatrix.from_entries(np.asarray(entries, dtype=float), topology).entries)
    alphas = StepSchedule.from_spec(recipe["schedule"]).steps(max_iter)
    senders = topology.fuse_slots.senders

    gaps = np.diff(rounds, append=max_iter + 1)
    x = np.array(view.states, dtype=float)
    for t in range(int(gaps.max())):
        live = np.flatnonzero(gaps > t)
        k = rounds[live] + t
        x[live] = dgd_step(problem, weights[live] if varying else weights,
                           x[live][:, senders], alphas[k - 1][:, None, None], k)
    return digest_states(max_iter, rounds, init, np.concatenate([init[None], x[:-1]]), x[-1])


@dataclass
class NecessityReport:
    passed: bool
    components: list
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"passed": bool(self.passed), "components": self.components, "details": self.details}


def necessity_demo(view: AdversaryView, true_objectives: dict,
                   tolerance: float = 1e-9) -> NecessityReport:
    """When the coalition is a vertex cut, reconstruct the exact objective sum
    of each isolated component from the view alone (obfuscated sums minus
    boundary noise) and verify it against the ground truth."""
    topology = view.topology
    coalition = set(view.coalition)
    good = sorted(set(range(topology.n)) - coalition)
    if not good:
        raise NotACutError("no retained agents to isolate")
    adj = {j: [] for j in good}
    for (u, v) in topology.edges:
        if u in adj and v in adj:
            adj[u].append(v)
            adj[v].append(u)
    components = []
    seen = set()
    for start in good:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        components.append(sorted(comp))
    if len(components) < 2:
        raise NotACutError("coalition is not a vertex cut; reconstruction demo inapplicable")

    width, dim = view.width, view.dim
    rows = []
    passed = True
    for comp in components:
        comp_set = set(comp)
        recon = exact_zero(dim, width)
        for l in comp:
            recon = exact_add(recon, exact_pad(to_exact(view.obfuscated[l]), width))
        for (j, i), coeffs in view.observed_noise.items():
            if j in coalition and i in comp_set:
                recon = exact_sub(recon, exact_pad(to_exact(coeffs), width))
            elif j in comp_set and i in coalition:
                recon = exact_add(recon, exact_pad(to_exact(coeffs), width))
        truth = exact_zero(dim, width)
        for l in comp:
            truth = exact_add(truth, exact_pad(to_exact(np.atleast_2d(
                np.asarray(true_objectives[l], dtype=float))), width))
        gap = exact_max_abs(exact_sub(recon, truth))
        ok = gap <= tolerance
        passed &= ok
        rows.append({"members": comp, "residual": gap, "recovered": from_exact(recon).tolist(),
                     "matches_truth": ok})
    return NecessityReport(passed=passed, components=rows,
                           details={"tolerance": tolerance, "component_count": len(components)})
