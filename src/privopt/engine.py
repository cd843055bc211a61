"""Synchronous round-based execution of the four distributed algorithms,
producing a complete per-round execution trace.

Every algorithm runs the same fuse-descend-project loop; they differ only in
how the per-round message tensor is perturbed. With zero perturbation the
perturbed algorithms reproduce plain distributed gradient descent bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .graphs import FusionMatrix, Topology, metropolis_weights
from .noise import (RandomStreams, draw_lb_perturbation, draw_nb_shares,
                    draw_noise_functions, nb_perturbation,
                    noise_gradient_bounds, obfuscate)
from .objectives import Box, GlobalProblem

# Version 2: rss noise streams are one per (purpose, agent) and addressed by
# round, so a version-1 rss trace's seed no longer reproduces its noise.
TRACE_VERSION = 2

ALGORITHMS = ("dgd", "rss_nb", "rss_lb", "fs")


class ScheduleError(ValueError):
    pass


class TraceError(ValueError):
    """A trace file has an unsupported version or does not match its digest."""


class NonFiniteError(ValueError):
    """A round produced a state or a bound term that is not finite."""


@dataclass(frozen=True)
class StepSchedule:
    """Step-size sequence. Convergent kinds are non-increasing with divergent
    sum and summable squares; the constant kind is for debugging only and is
    flagged non-convergent."""

    kind: str  # "inv_sqrt" | "inv_k" | "constant"
    a: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        if self.kind not in ("inv_sqrt", "inv_k", "constant"):
            raise ScheduleError(f"unknown schedule kind: {self.kind!r}")
        if self.a <= 0:
            raise ScheduleError("schedule parameter a must be positive")
        if self.kind == "inv_k" and self.b < 0:
            raise ScheduleError("schedule parameter b must be non-negative")

    @property
    def convergent(self) -> bool:
        return self.kind in ("inv_sqrt", "inv_k")

    def step(self, k: int) -> float:
        if k < 1:
            raise ScheduleError("rounds are 1-indexed")
        if self.kind == "inv_sqrt":
            return 1.0 / np.sqrt(k)
        if self.kind == "inv_k":
            return self.a / (k + self.b)
        return self.a

    def steps(self, upto: int) -> np.ndarray:
        ks = np.arange(1, upto + 1, dtype=float)
        if self.kind == "inv_sqrt":
            return 1.0 / np.sqrt(ks)
        if self.kind == "inv_k":
            return self.a / (ks + self.b)
        return np.full(upto, self.a)

    def to_spec(self) -> dict:
        if self.kind == "inv_sqrt":
            return {"kind": "inv_sqrt"}
        if self.kind == "inv_k":
            return {"kind": "inv_k", "a": self.a, "b": self.b}
        return {"kind": "constant", "value": self.a}

    @classmethod
    def from_spec(cls, spec: dict) -> "StepSchedule":
        kind = spec.get("kind")
        if kind == "inv_sqrt":
            return cls(kind="inv_sqrt")
        if kind == "inv_k":
            return cls(kind="inv_k", a=float(spec.get("a", 1.0)), b=float(spec.get("b", 0.0)))
        if kind == "constant":
            return cls(kind="constant", a=float(spec.get("value", 0.1)))
        raise ScheduleError(f"unknown schedule kind: {kind!r}")


def default_init(box: Box, n: int) -> np.ndarray:
    """Evenly spaced feasible starting points (midpoint for a single agent)."""
    if n == 1:
        return box.midpoint()[None, :]
    cols = [np.linspace(box.lower[d], box.upper[d], n) for d in range(box.dim)]
    return np.stack(cols, axis=-1)


def recorded_rounds(max_iter: int, record_every: int) -> np.ndarray:
    """Rounds retained in the trace. Down-sampled traces keep each audited
    round together with its successor so consecutive-round checks still work,
    plus the first and last rounds."""
    if record_every <= 1:
        return np.arange(1, max_iter + 1)
    ks = np.arange(1, max_iter + 1)
    audited = (ks - 1) % record_every == 0
    successor = (ks - 2) % record_every == 0
    keep = audited | successor | (ks == 1) | (ks == max_iter)
    return ks[keep]


def _fuse(weights: np.ndarray, messages: np.ndarray) -> np.ndarray:
    """Row j of the result is sum_i B[j, i] * messages[i, j]; one code path for
    every algorithm so zero-noise runs are bit-identical."""
    return np.einsum("ji,ijd->jd", weights, messages)


@dataclass
class ExecutionTrace:
    """Complete record of one run: per-round states, messages, perturbations
    and fused quantities, stored as arrays with a leading round axis."""

    algorithm: str
    topology: Topology
    weights: np.ndarray
    schedule: StepSchedule
    delta: float
    seed: int | None
    max_iter: int
    record_every: int
    init: np.ndarray
    round_index: np.ndarray      # (R,)
    steps: np.ndarray            # (R,)
    states: np.ndarray           # (R, n, D)
    messages: np.ndarray         # (R, n, D) broadcast algorithms; (R, n, n, D) per-edge
    perturbations: np.ndarray    # (R, n, D) or (R, n, n, D)
    fused: np.ndarray            # (R, n, D)
    fused_true: np.ndarray       # (R, n, D)
    fused_noise: np.ndarray      # (R, n, D)
    final_states: np.ndarray     # (n, D)
    problem_spec: dict
    shares: np.ndarray | None = None  # (R, n, n, D) for network-balanced runs
    weights_series: np.ndarray | None = None  # (R, n, n) when a per-round provider ran
    extras: dict = field(default_factory=dict)
    version: int = TRACE_VERSION

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    @property
    def complete(self) -> bool:
        return self.record_every == 1

    def state_digest(self) -> str:
        """Digest of the state evolution; identical dynamics give identical
        digests regardless of which algorithm produced them."""
        h = hashlib.sha256()
        h.update(b"privopt-trace-v1")
        h.update(np.array([self.n, self.dim, self.max_iter], dtype="<i8").tobytes())
        h.update(self.round_index.astype("<i8").tobytes())
        h.update(self.init.astype("<f8").tobytes())
        h.update(self.states.astype("<f8").tobytes())
        h.update(self.final_states.astype("<f8").tobytes())
        return h.hexdigest()

    def states_with_final(self) -> tuple[np.ndarray, np.ndarray]:
        """Round indices 1..K+1 paired with the matching state arrays."""
        idx = np.concatenate([self.round_index, [self.max_iter + 1]])
        arr = np.concatenate([self.states, self.final_states[None]], axis=0)
        return idx, arr

    def weights_at(self, row: int) -> np.ndarray:
        """Fusion matrix in effect at a recorded row (constant unless a
        per-round provider was used)."""
        if self.weights_series is not None:
            return self.weights_series[row]
        return self.weights

    def to_json_dict(self) -> dict:
        def listify(a):
            return None if a is None else np.asarray(a).tolist()

        return {
            "version": self.version,
            "algorithm": self.algorithm,
            "n": self.n,
            "dim": self.dim,
            "seed": self.seed,
            "delta": self.delta,
            "max_iter": self.max_iter,
            "record_every": self.record_every,
            "schedule": self.schedule.to_spec(),
            "topology": self.topology.to_spec(),
            "weights": listify(self.weights),
            "init": listify(self.init),
            "problem": self.problem_spec,
            "rounds": {
                "index": self.round_index.tolist(),
                "step": self.steps.tolist(),
                "states": listify(self.states),
                "messages": listify(self.messages),
                "perturbations": listify(self.perturbations),
                "shares": listify(self.shares),
                "fused": listify(self.fused),
                "fused_true": listify(self.fused_true),
                "fused_noise": listify(self.fused_noise),
                "weights_series": listify(self.weights_series),
            },
            "final_states": listify(self.final_states),
            "extras": self.extras,
            "digest": self.state_digest(),
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExecutionTrace":
        if doc.get("version") != TRACE_VERSION:
            raise TraceError(f"unsupported trace version: {doc.get('version')!r}")
        rounds = doc["rounds"]
        shares = rounds.get("shares")
        weights_series = rounds.get("weights_series")
        trace = cls(
            algorithm=doc["algorithm"],
            topology=Topology.from_spec(doc["topology"]),
            weights=np.asarray(doc["weights"], dtype=float),
            schedule=StepSchedule.from_spec(doc["schedule"]),
            delta=float(doc["delta"]),
            seed=doc["seed"],
            max_iter=int(doc["max_iter"]),
            record_every=int(doc["record_every"]),
            init=np.asarray(doc["init"], dtype=float),
            round_index=np.asarray(rounds["index"], dtype=int),
            steps=np.asarray(rounds["step"], dtype=float),
            states=np.asarray(rounds["states"], dtype=float),
            messages=np.asarray(rounds["messages"], dtype=float),
            perturbations=np.asarray(rounds["perturbations"], dtype=float),
            fused=np.asarray(rounds["fused"], dtype=float),
            fused_true=np.asarray(rounds["fused_true"], dtype=float),
            fused_noise=np.asarray(rounds["fused_noise"], dtype=float),
            final_states=np.asarray(doc["final_states"], dtype=float),
            problem_spec=doc["problem"],
            shares=None if shares is None else np.asarray(shares, dtype=float),
            weights_series=None if weights_series is None else np.asarray(weights_series, dtype=float),
            extras=doc.get("extras", {}),
            version=doc["version"],
        )
        digest = trace.state_digest()
        if digest != doc.get("digest"):
            raise TraceError(f"state digest {digest[:12]} does not match the stored "
                             f"digest {str(doc.get('digest'))[:12]}")
        return trace

    @classmethod
    def load(cls, path) -> "ExecutionTrace":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _resolve_weights(weights, k: int) -> FusionMatrix:
    return weights(k) if callable(weights) else weights


def _execute(problem: GlobalProblem, topology: Topology, weights,
             schedule: StepSchedule, max_iter: int, init: np.ndarray,
             record_every: int, algorithm: str, delta: float,
             seed: int | None, draw, per_edge: bool,
             problem_spec: dict | None = None, extras: dict | None = None) -> ExecutionTrace:
    n, dim = topology.n, problem.dim
    box = problem.feasible
    varying = callable(weights)
    b = _resolve_weights(weights, 1).entries
    x = np.array(init, dtype=float)
    if x.shape != (n, dim):
        raise ValueError(f"init must have shape ({n}, {dim})")
    if not box.contains(x):
        raise ValueError("initial states must lie in the feasible set")

    keep = recorded_rounds(max_iter, record_every)
    keep_set = set(keep.tolist())
    r_count = keep.size
    msg_shape = (r_count, n, n, dim) if per_edge else (r_count, n, dim)
    rec = {
        "steps": np.zeros(r_count),
        "states": np.zeros((r_count, n, dim)),
        "messages": np.zeros(msg_shape),
        "perturbations": np.zeros(msg_shape),
        "fused": np.zeros((r_count, n, dim)),
        "fused_true": np.zeros((r_count, n, dim)),
        "fused_noise": np.zeros((r_count, n, dim)),
    }
    shares_rec = np.zeros((r_count, n, n, dim)) if algorithm == "rss_nb" else None
    weights_series = np.zeros((r_count, n, n)) if varying else None

    broadcast = np.broadcast_to  # message tensor [i, j] = message from i used by j
    row = 0
    for k in range(1, max_iter + 1):
        alpha = schedule.step(k)
        if varying:
            b = _resolve_weights(weights, k).entries
        noise, shares = draw(k)  # (n, n, D) perturbation tensor, optional share table
        msgs = broadcast(x[:, None, :], (n, n, dim)) + alpha * noise
        fused = _fuse(b, msgs)
        grads = problem.agent_gradients(fused)
        x_next = box.project(fused - alpha * grads)
        if not np.isfinite(x_next).all():
            agent = int(np.flatnonzero(~np.isfinite(x_next).all(axis=1))[0])
            raise NonFiniteError(f"round {k}: the next state of agent {agent} is not finite")
        if k in keep_set:
            rec["steps"][row] = alpha
            rec["states"][row] = x
            if per_edge:
                rec["messages"][row] = msgs
                rec["perturbations"][row] = noise
            else:
                rec["messages"][row] = _broadcast_slice(msgs)
                rec["perturbations"][row] = _broadcast_slice(noise)
            rec["fused"][row] = fused
            rec["fused_true"][row] = _fuse(b, broadcast(x[:, None, :], (n, n, dim)))
            rec["fused_noise"][row] = _fuse(b, noise)
            if shares_rec is not None:
                shares_rec[row] = shares.table
            if weights_series is not None:
                weights_series[row] = b
            row += 1
        x = x_next

    return ExecutionTrace(
        algorithm=algorithm,
        topology=topology,
        weights=_resolve_weights(weights, 1).entries,
        schedule=schedule,
        delta=delta,
        seed=seed,
        max_iter=max_iter,
        record_every=record_every,
        init=np.array(init, dtype=float),
        round_index=keep,
        steps=rec["steps"],
        states=rec["states"],
        messages=rec["messages"],
        perturbations=rec["perturbations"],
        fused=rec["fused"],
        fused_true=rec["fused_true"],
        fused_noise=rec["fused_noise"],
        final_states=x,
        problem_spec=problem_spec if problem_spec is not None else problem.to_spec(),
        shares=shares_rec,
        weights_series=weights_series,
        extras=extras or {},
    )


def _broadcast_slice(tensor: np.ndarray) -> np.ndarray:
    """Collapse a broadcast (n, n, D) tensor whose rows are constant over the
    receiver axis back to (n, D)."""
    return np.array(tensor[:, 0, :])


def run_dgd(problem: GlobalProblem, topology: Topology, schedule: StepSchedule,
            max_iter: int, init: np.ndarray | None = None,
            weights=None, record_every: int = 1,
            _tag: str = "dgd", _spec: dict | None = None, _extras: dict | None = None) -> ExecutionTrace:
    """Distributed gradient descent: fuse neighbor states, descend along the
    local gradient, project.

    ``weights`` may be a FusionMatrix or a per-round provider ``k -> FusionMatrix``
    (every runner accepts the same); the default is the Metropolis matrix.
    """
    weights = weights or metropolis_weights(topology)
    init = default_init(problem.feasible, topology.n) if init is None else init
    n, dim = topology.n, problem.dim
    zero = np.zeros((n, n, dim))

    def draw(k):
        return zero, None

    return _execute(problem, topology, weights, schedule, max_iter, init, record_every,
                    _tag, 0.0, None, draw, per_edge=False,
                    problem_spec=_spec, extras=_extras)


def run_rss_nb(problem: GlobalProblem, topology: Topology, schedule: StepSchedule,
               delta: float, max_iter: int, init: np.ndarray | None = None,
               seed: int = 0, weights=None,
               record_every: int = 1) -> ExecutionTrace:
    """Network-balanced randomized state sharing: per-round pairwise shares
    build perturbations that cancel across the whole network."""
    weights = weights or metropolis_weights(topology)
    init = default_init(problem.feasible, topology.n) if init is None else init
    n, dim = topology.n, problem.dim
    streams = RandomStreams(seed)

    def draw(k):
        shares = draw_nb_shares(topology, k, delta, streams, dim)
        d = nb_perturbation(shares, topology)
        return np.broadcast_to(d[:, None, :], (n, n, dim)), shares

    return _execute(problem, topology, weights, schedule, max_iter, init, record_every,
                    "rss_nb", delta, seed, draw, per_edge=False)


def run_rss_lb(problem: GlobalProblem, topology: Topology, schedule: StepSchedule,
               delta: float, max_iter: int, init: np.ndarray | None = None,
               seed: int = 0, weights=None,
               record_every: int = 1) -> ExecutionTrace:
    """Locally balanced randomized state sharing: per-neighbor perturbations
    cancel under the fusion weights at each agent."""
    weights = weights or metropolis_weights(topology)
    init = default_init(problem.feasible, topology.n) if init is None else init
    dim = problem.dim
    streams = RandomStreams(seed)

    def draw(k):
        return draw_lb_perturbation(topology, _resolve_weights(weights, k), delta,
                                    k, streams, dim), None

    return _execute(problem, topology, weights, schedule, max_iter, init, record_every,
                    "rss_lb", delta, seed, draw, per_edge=True)


def run_fs(problem: GlobalProblem, topology: Topology, schedule: StepSchedule,
           delta_coeff: float, d_max: int, max_iter: int,
           init: np.ndarray | None = None, seed: int = 0,
           weights=None, record_every: int = 1) -> ExecutionTrace:
    """Function sharing: exchange polynomial noise functions once, obfuscate the
    local objectives, then run plain distributed gradient descent on them."""
    streams = RandomStreams(seed)
    noise_functions = draw_noise_functions(topology, delta_coeff, d_max, streams, problem.dim)
    obfuscated = obfuscate(problem.objectives, noise_functions, topology)
    width = obfuscated[0].poly.width
    box = problem.feasible
    sub_problem = GlobalProblem(objectives=obfuscated, feasible=box, validate_convexity=False)
    grad_bound, curv_bound = noise_gradient_bounds(noise_functions, box.lower, box.upper)
    base_l, base_n = problem.constants()
    extras = {
        "delta_coeff": delta_coeff,
        "d_max": d_max,
        "width": width,
        "noise": [[j, i, poly.padded(width).coeffs.tolist()]
                  for (j, i), poly in sorted(noise_functions.items())],
        "obfuscated": [obj.poly.coeffs.tolist() for obj in obfuscated],
        "obf_grad_bound": base_l + grad_bound,
        "obf_smoothness_bound": base_n + curv_bound,
    }
    trace = run_dgd(sub_problem, topology, schedule, max_iter, init=init,
                    weights=weights, record_every=record_every,
                    _tag="fs", _spec=problem.to_spec(), _extras=extras)
    return replace(trace, seed=seed)
