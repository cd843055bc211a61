"""Constructive privacy verification for function-sharing runs.

Given an execution trace and an adversary coalition, this module builds an
alternative problem instance (different local objectives, different noise
functions) whose observable footprint is identical, and verifies the match
coefficientwise.

Noise functions are (E, D, W) arrays whose row e belongs to directed edge e
of ``Topology.sender_edges``; ``noise.noise_offsets`` alone turns them into
per-agent offsets. Exact values are numpy object arrays of Python ints in
units of 2**-1074, the smallest subnormal float64. Every finite float64 is an
integer multiple of that unit, so converting a coefficient is exact, sums and
differences stay exact, and dividing by 2**1074 rounds correctly back to the
nearest float. The spanning-tree noise system is solved by leaf elimination
in these integers, so a residual is the exact residual of the inputs, zero
when they are consistent rather than merely small.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import ExecutionTrace, StepSchedule, dgd_step, digest_states, recorded_rounds
# unused here, but the benchmark's span table (perfbench/spans.py) requires it at this site
from .engine import run_dgd  # noqa: F401
from .graphs import Topology, canonical_edge, components, metropolis_weights, spanning_tree_split
from .noise import COEFF_GRID, RandomStreams, noise_offsets
from .objectives import Box, GlobalProblem, PolynomialObjective
from .polynomials import pad_coeffs


class NonFsTraceError(TypeError):
    pass


class NotACutError(ValueError):
    pass


class TargetSetError(ValueError):
    pass


# Exact coefficient arithmetic: integer arrays in units of 2**-1074.
_UNIT = 2 ** 1074


def to_exact(arr) -> np.ndarray:
    """Float coefficients, at least 2-D, as exact integers. A value keeps no
    sign of zero: -0.0 becomes 0."""
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    units = []
    for v in arr.ravel().tolist():
        num, den = v.as_integer_ratio()  # den is 2**k with k <= 1074
        units.append(num << (1075 - den.bit_length()))
    return np.array(units, dtype=object).reshape(arr.shape)


def from_exact(exact) -> np.ndarray:
    """Exact integers as the nearest floats."""
    return np.asarray(exact / _UNIT, dtype=float)


def exact_pad(exact, width: int) -> np.ndarray:
    return pad_coeffs(exact, width)


def exact_add(a, b) -> np.ndarray:
    return a + b


def exact_sub(a, b) -> np.ndarray:
    return a - b


def exact_max_abs(exact) -> float:
    """Largest magnitude, as the nearest float; 0.0 when empty."""
    return max(map(abs, np.ravel(exact).tolist()), default=0) / _UNIT


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
    coalition_objectives: dict  # agent in coalition -> float coeffs (dim, width)
    observed: np.ndarray      # (E,) bool: the coalition-incident directed edges
    noise: np.ndarray         # (E, dim, width) float noise, zero off the observed edges
    recipe: dict              # JSON values
    trace_digest: str
    states: np.ndarray
    final_states: np.ndarray


def extract_view(trace: ExecutionTrace, coalition) -> AdversaryView:
    """Assemble the adversary's observations from a function-sharing trace."""
    if trace.algorithm != "fs":
        raise NonFsTraceError(f"privacy analysis requires a function-sharing trace, got {trace.algorithm!r}")
    coalition = tuple(sorted(set(int(a) for a in coalition)))
    for a in coalition:
        if not 0 <= a < trace.n:
            raise ValueError(f"coalition member {a} out of range")
    objectives = trace.problem.objectives
    width = trace.obfuscated.shape[-1]
    senders, receivers = trace.topology.sender_edges
    member = np.zeros(trace.n, dtype=bool)
    member[list(coalition)] = True
    observed = member[senders] | member[receivers]
    noise = np.where(observed[:, None, None], pad_coeffs(trace.noise, width), 0.0)
    recipe = {
        "schedule": trace.schedule.to_spec(),
        "metropolis_self_inclusive": trace.config["metropolis_self_inclusive"],
        "init": trace.init.tolist(),
        "max_iter": trace.max_iter,
        "record_every": trace.record_every,
        "feasible": trace.config["feasible"],
        "delta_coeff": trace.delta_coeff,
        "d_max": trace.d_max,
    }
    return AdversaryView(
        coalition=coalition,
        topology=trace.topology,
        dim=trace.dim,
        width=width,
        obfuscated=dict(enumerate(trace.obfuscated)),
        coalition_objectives={a: pad_coeffs(objectives[a].poly.coeffs, width) for a in coalition},
        observed=observed,
        noise=noise,
        recipe=recipe,
        trace_digest=trace.state_digest(),
        states=trace.states,
        final_states=trace.final_states,
    )


def _exact_obfuscated(view: AdversaryView) -> np.ndarray:
    """(n, dim, width) exact obfuscated objectives."""
    return to_exact([view.obfuscated[j] for j in range(view.topology.n)])


def _edge_rows(topology: Topology, pairs) -> np.ndarray:
    """Rows in ``topology.sender_edges`` of directed edges given as (sender,
    receiver) pairs; the edges are sorted by sender, then receiver."""
    senders, receivers = topology.sender_edges
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    return np.searchsorted(senders * topology.n + receivers, pairs[:, 0] * topology.n + pairs[:, 1])


def complete_alternative_objectives(problem: GlobalProblem, coalition, target,
                                    alternatives: dict, d_max: int) -> np.ndarray:
    """Alternative local objectives, exact and (n, dim, d_max + 1): the
    targets' ``alternatives``, and the true objectives elsewhere, except that
    the lowest-index free agent absorbs the difference, so the retained
    agents' sum is preserved coefficientwise."""
    coalition = set(int(a) for a in coalition)
    target = set(int(a) for a in target)
    n = problem.n
    for a in sorted(target):
        if not 0 <= a < n:
            raise TargetSetError(f"target agent {a} out of range")
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
    truth = np.stack([exact_pad(to_exact(obj.poly.coeffs), width) for obj in problem.objectives])
    out = truth.copy()
    for agent in sorted(target):
        alt = np.atleast_2d(np.asarray(alternatives[agent], dtype=float))
        if alt.shape[1] > width:
            raise ValueError(f"alternative objective for agent {agent} exceeds d_max")
        out[agent] = exact_pad(to_exact(alt), width)
    out[free[0]] = exact_add(out[free[0]], exact_sub(truth, out).sum(axis=0))
    return out


@dataclass
class AlternativeInstance:
    """Full alternative assignment, exact: objectives (n, dim, width) for
    every agent and noise functions (E, dim, width) for every directed edge,
    in ``Topology.sender_edges`` order."""

    objectives: np.ndarray
    noise: np.ndarray
    dim: int
    width: int
    tree_edges: tuple = ()
    solve_residual: float = 0.0


def construct_alternative(view: AdversaryView, objectives: np.ndarray,
                          extras: np.ndarray | None = None,
                          extras_seed: int = 0) -> AlternativeInstance:
    """Build an alternative instance matching the adversary's observations,
    for exact (n, dim, width) ``objectives``.

    Noise on coalition-incident edges is pinned to the observed functions and
    conceptually deleted; the remaining good-good edges split into a spanning
    tree plus extra edges. Extra edges (and the reverse orientation of each
    tree edge) receive arbitrary seeded polynomials unless their rows are
    taken from ``extras``, float (E, dim, width) noise; the canonical
    orientation of each tree edge is then the unique solution of the good
    agents' balance equations, computed by peeling leaves.
    """
    topology = view.topology
    width, dim = view.width, view.dim
    good = [j for j in range(topology.n) if j not in view.coalition]
    if len(good) < 1:
        raise TargetSetError("no retained agents remain")
    objectives = np.asarray(objectives)
    if objectives.dtype != object or objectives.shape != (topology.n, dim, width):
        raise ValueError(f"objectives must be exact coefficients of shape "
                         f"({topology.n}, {dim}, {width})")
    for a in view.coalition:
        if not np.array_equal(objectives[a], exact_pad(to_exact(view.coalition_objectives[a]), width)):
            raise ValueError(f"alternative objective for coalition agent {a} must equal the observed one")

    tree, _ = spanning_tree_split(topology, excluded=view.coalition)
    tree_rows = dict(zip(tree, _edge_rows(topology, tree).tolist()))  # canonical (u, v), u < v

    # Pinned rows: the observed functions. Every other row but the tree's
    # unknowns is assigned.
    noise = to_exact(view.noise)
    assigned = ~view.observed
    assigned[list(tree_rows.values())] = False
    rows = np.flatnonzero(assigned)
    if extras is None:
        senders, receivers = topology.sender_edges
        streams = RandomStreams(extras_seed)
        scale = max(float(view.recipe.get("delta_coeff", 0.0)), 1.0)
        raw = [streams.generator("alt_extra", senders[e], receivers[e])
               .uniform(-scale, scale, size=(dim, width)) for e in rows]
        values = np.round(np.reshape(raw, (rows.size, dim, width)) / COEFF_GRID) * COEFF_GRID
    else:
        values = np.asarray(extras, dtype=float)[rows]
    noise[rows] = exact_pad(to_exact(values), width)

    # Balance residual per agent: what the unknown tree functions must supply.
    residual = exact_sub(exact_sub(_exact_obfuscated(view), objectives),
                         noise_offsets(noise, topology))

    # Peel leaves of the spanning tree; each leaf's single unknown edge is
    # determined by its balance equation, and its residual moves to its parent.
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
        # the unknown enters the leaf (+t = residual) or leaves it (-t = residual)
        row = tree_rows[canonical_edge(leaf, parent)]
        noise[row] = residual[leaf] if parent < leaf else -residual[leaf]
        residual[parent] = exact_add(residual[parent], residual[leaf])
        degree[parent] -= 1
        degree[leaf] = 0
        if degree[parent] == 1 and parent not in removed:
            leaves.append(parent)
    root = next(j for j in good if j not in removed)
    solve_residual = exact_max_abs(residual[root])
    if solve_residual > 1e-12:
        raise RuntimeError(
            f"tree solve left residual {solve_residual:.3e} at agent {root}; inputs are inconsistent")
    return AlternativeInstance(objectives=objectives, noise=noise, dim=dim,
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
    observation, in this order: obfuscated functions for all agents, the
    coalition's own objectives, and coalition-incident noise. Optionally
    re-run the public dynamics from the observed obfuscated functions and
    compare trace digests.
    """
    topology = view.topology
    senders, receivers = topology.sender_edges
    rebuilt = exact_add(instance.objectives, noise_offsets(instance.noise, topology))
    gaps = [("obfuscated_function", {"agent": j}, exact_max_abs(gap))
            for j, gap in enumerate(exact_sub(rebuilt, _exact_obfuscated(view)))]
    for a in view.coalition:
        gap = exact_sub(instance.objectives[a],
                        exact_pad(to_exact(view.coalition_objectives[a]), view.width))
        gaps.append(("coalition_objective", {"agent": a}, exact_max_abs(gap)))
    observed = np.flatnonzero(view.observed)
    for e, gap in zip(observed.tolist(), exact_sub(instance.noise[observed],
                                                   to_exact(view.noise[observed]))):
        gaps.append(("coalition_incident_noise",
                     {"edge": [int(senders[e]), int(receivers[e])]}, exact_max_abs(gap)))
    max_residual = max([0.0] + [gap for _, _, gap in gaps])
    first = next(({"kind": kind, "where": where, "gap": gap}
                  for kind, where, gap in gaps if gap > tolerance), None)

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
    equals the trace digest exactly when a round-by-round replay's does. The
    fusion weights are the recipe's Metropolis matrix, built as the run
    built it.

    Raises ValueError for initial states outside the feasible set and
    NonFiniteError for an advance that is not finite (as a round-by-round
    replay does when no earlier transition differs)."""
    topology, recipe = view.topology, view.recipe
    box = Box.from_spec(recipe["feasible"])
    problem = GlobalProblem(
        objectives=[PolynomialObjective(view.obfuscated[j]) for j in range(topology.n)],
        feasible=box, validate_convexity=False)
    init = np.asarray(recipe["init"], dtype=float)
    if init.shape != (topology.n, view.dim):
        raise ValueError(f"init must have shape ({topology.n}, {view.dim})")
    if not box.contains(init):
        raise ValueError("initial states must lie in the feasible set")
    max_iter = int(recipe["max_iter"])
    rounds = recorded_rounds(max_iter, int(recipe["record_every"]))
    weights = metropolis_weights(
        topology, self_inclusive_degree=recipe["metropolis_self_inclusive"]).weights
    alphas = StepSchedule.from_spec(recipe["schedule"]).steps(max_iter)
    senders = topology.fuse_slots.senders

    gaps = np.diff(rounds, append=max_iter + 1)
    x = np.array(view.states, dtype=float)
    for t in range(int(gaps.max())):
        live = np.flatnonzero(gaps > t)
        k = rounds[live] + t
        x[live] = dgd_step(problem, weights, x[live][:, senders], alphas[k - 1][:, None, None], k)
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
    parts = components(view.topology, excluded=view.coalition)
    if not parts:
        raise NotACutError("no retained agents to isolate")
    if len(parts) < 2:
        raise NotACutError("coalition is not a vertex cut; reconstruction demo inapplicable")

    # The observed noise of a retained agent is its boundary noise.
    recovered = exact_sub(_exact_obfuscated(view), noise_offsets(to_exact(view.noise), view.topology))
    rows = []
    passed = True
    for comp in parts:
        recon = recovered[comp].sum(axis=0)
        truth = sum(exact_pad(to_exact(true_objectives[l]), view.width) for l in comp)
        gap = exact_max_abs(exact_sub(recon, truth))
        ok = gap <= tolerance
        passed &= ok
        rows.append({"members": comp, "residual": gap, "recovered": from_exact(recon).tolist(),
                     "matches_truth": ok})
    return NecessityReport(passed=passed, components=rows,
                           details={"tolerance": tolerance, "component_count": len(parts)})
