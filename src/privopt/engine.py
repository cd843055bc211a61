"""Synchronous round-based execution of the four distributed algorithms,
producing an execution trace of the primary per-round arrays.

Every algorithm runs the same fuse-descend-project loop; they differ only in
how the messages are perturbed. Each agent fuses only the messages of its
self-inclusive neighbourhood, gathered into the topology's fusion slots. With
zero perturbation the perturbed algorithms reproduce plain distributed gradient
descent bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .graphs import FusionMatrix, GraphError, Topology, metropolis_weights
from .noise import (RandomStreams, draw_lb_perturbation, draw_nb_shares,
                    draw_noise_functions, nb_perturbation,
                    noise_gradient_bounds, obfuscate)
from .objectives import Box, GlobalProblem

# Version 2: rss noise streams are one per (purpose, agent) and addressed by
# round, so a version-1 rss trace's seed no longer reproduces its noise.
# Version 3: rounds hold only the primary arrays, and rss_lb perturbations and
# rss_nb shares are stored on the directed edges (same dynamics as version 2).
TRACE_VERSION = 3

ALGORITHMS = ("dgd", "rss_nb", "rss_lb", "fs")


class ScheduleError(ValueError):
    pass


class TraceError(ValueError):
    """A trace file has an unsupported version, an array of the wrong shape,
    rounds or steps that its schedule does not give, or a state digest that
    does not match."""


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


def _slot_fuse(weights: np.ndarray, messages: np.ndarray) -> np.ndarray:
    """Fuse slot-major messages, with any leading round axis: weights
    (..., K, n) and messages (..., K, n, D) give (..., n, D) whose row j is
    sum_k weights[k, j] * messages[k, j]. One code path for every algorithm,
    so zero-noise runs are bit-identical.

    The sum runs over the slots in ascending order from +0.0. That is the
    order of a dense fuse over all n senders, and the terms it leaves out
    are 0 * message = +-0, which never change such a sum, so the result is
    the dense fuse's bit for bit. Reducing over a leading (not contiguous)
    axis keeps numpy from summing pairwise."""
    return np.add.reduce(weights[..., None] * messages, axis=-3, initial=0.0)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass
class ExecutionTrace:
    """Record of one run: the primary per-round arrays (steps, states,
    perturbations, nb shares and per-round weights), stored with a leading
    round axis. Messages and fused quantities are derived from them on first
    use, through the engine's slot fuse, so they match the values the run
    used bit for bit."""

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
    perturbations: np.ndarray    # (R, n, D); rss_lb (R, E, D) on ``topology.sender_edges``
    final_states: np.ndarray     # (n, D)
    problem_spec: dict
    shares: np.ndarray | None = None  # (R, E, D) on ``topology.sender_edges``, rss_nb only
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

    @property
    def per_edge(self) -> bool:
        """Whether each agent perturbs its message to every neighbour apart (rss_lb)."""
        return self.algorithm == "rss_lb"

    def _fuse_rounds(self, slot_messages: np.ndarray) -> np.ndarray:
        """``_slot_fuse`` of every recorded round's (R, K, n, D) slot messages."""
        entries = self.weights if self.weights_series is None else self.weights_series
        return _read_only(_slot_fuse(self.topology.fuse_slots.weights(entries), slot_messages))

    def _slot_noise(self) -> np.ndarray:
        """(R, K, n, D) noise as each slot's sender adds it; zero in the self
        slot and the pads for rss_lb."""
        slots = self.topology.fuse_slots
        if not self.per_edge:
            return self.perturbations[:, slots.senders]
        zero_row = np.zeros((self.steps.size, 1, self.dim))
        return np.concatenate([self.perturbations, zero_row], axis=1)[:, slots.edges]

    @cached_property
    def messages(self) -> np.ndarray:
        """Sent messages: (R, n, D), or (R, E, D) on ``topology.sender_edges``
        for rss_lb."""
        steps = self.steps[:, None, None]
        if self.per_edge:
            senders = self.topology.sender_edges[0]
            return _read_only(self.states[:, senders] + steps * self.perturbations)
        return _read_only(self.states + steps * self.perturbations)

    @cached_property
    def fused(self) -> np.ndarray:
        """(R, n, D) fused perturbed messages: the point each agent descends from."""
        senders = self.topology.fuse_slots.senders
        if self.per_edge:
            return self._fuse_rounds(self.states[:, senders]
                                     + self.steps[:, None, None, None] * self._slot_noise())
        return self._fuse_rounds(self.messages[:, senders])

    @cached_property
    def fused_true(self) -> np.ndarray:
        """(R, n, D) fused unperturbed states."""
        return self._fuse_rounds(self.states[:, self.topology.fuse_slots.senders])

    @cached_property
    def fused_noise(self) -> np.ndarray:
        """(R, n, D) fused perturbations."""
        return self._fuse_rounds(self._slot_noise())

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

    def to_json_dict(self) -> dict:
        """The trace document: the primary arrays as they are held, derived
        arrays not written."""
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
                "perturbations": listify(self.perturbations),
                "shares": listify(self.shares),
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
        """Rebuild a trace, checking every array's shape and finiteness, the
        noise bounds, the recorded rounds and steps against the schedule, and
        the state digest; any mismatch raises ``TraceError``."""
        if doc.get("version") != TRACE_VERSION:
            raise TraceError(f"unsupported trace version: {doc.get('version')!r}")
        algorithm = doc["algorithm"]
        if algorithm not in ALGORITHMS:
            raise TraceError(f"unknown algorithm: {algorithm!r}")
        topology = Topology.from_spec(doc["topology"])
        schedule = StepSchedule.from_spec(doc["schedule"])
        n, dim = int(doc["n"]), int(doc["dim"])
        max_iter, record_every = int(doc["max_iter"]), int(doc["record_every"])
        if topology.n != n:
            raise TraceError(f"topology has {topology.n} agents, trace has {n}")
        rounds = doc["rounds"]
        index = recorded_rounds(max_iter, record_every)
        r_count = index.size
        edges = topology.sender_edges[0].size

        def array(value, name: str, *shape: int) -> np.ndarray:
            try:
                out = np.asarray(value, dtype=float)
            except (TypeError, ValueError) as exc:
                raise TraceError(f"{name} is not a numeric array: {exc}") from None
            if out.shape != shape:
                raise TraceError(f"{name} has shape {out.shape}, expected {shape}")
            if not np.isfinite(out).all():
                raise TraceError(f"{name} holds a non-finite value")
            return out

        delta = float(array(doc.get("delta"), "delta"))
        if delta < 0:
            raise TraceError(f"delta must be non-negative, got {delta!r}")
        extras = doc.get("extras", {})
        if algorithm == "fs":
            for key in ("obf_grad_bound", "obf_smoothness_bound"):
                if extras.get(key) is not None:
                    array(extras[key], f"extras.{key}")

        stored_index = array(rounds.get("index"), "rounds.index", r_count)
        if not np.array_equal(stored_index, index):
            raise TraceError(f"rounds.index is not the rounds recorded for max_iter={max_iter}, "
                             f"record_every={record_every}")
        steps = array(rounds.get("step"), "rounds.step", r_count)
        if steps.tobytes() != schedule.steps(max_iter)[index - 1].tobytes():
            raise TraceError("rounds.step differs from the schedule's steps")
        perturbations = array(rounds.get("perturbations"), "rounds.perturbations",
                              r_count, edges if algorithm == "rss_lb" else n, dim)
        shares = None
        if algorithm == "rss_nb":
            shares = array(rounds.get("shares"), "rounds.shares", r_count, edges, dim)
        elif rounds.get("shares") is not None:
            raise TraceError(f"only rss_nb traces have shares, not {algorithm}")
        weights_series = rounds.get("weights_series")
        if weights_series is not None:
            weights_series = array(weights_series, "rounds.weights_series", r_count, n, n)
        weights = array(doc.get("weights"), "weights", n, n)
        for name, entries in (("weights", weights), ("rounds.weights_series", weights_series)):
            if entries is not None:
                try:
                    topology.fuse_slots.weights(entries)
                except GraphError as exc:
                    raise TraceError(f"{name}: {exc}") from None
        trace = cls(
            algorithm=algorithm,
            topology=topology,
            weights=weights,
            schedule=schedule,
            delta=delta,
            seed=doc["seed"],
            max_iter=max_iter,
            record_every=record_every,
            init=array(doc.get("init"), "init", n, dim),
            round_index=index,
            steps=steps,
            states=array(rounds.get("states"), "rounds.states", r_count, n, dim),
            perturbations=perturbations,
            final_states=array(doc.get("final_states"), "final_states", n, dim),
            problem_spec=doc["problem"],
            shares=shares,
            weights_series=weights_series,
            extras=extras,
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
             seed: int | None, draw,
             problem_spec: dict | None = None, extras: dict | None = None) -> ExecutionTrace:
    n, dim = topology.n, problem.dim
    box = problem.feasible
    slots = topology.fuse_slots
    varying = callable(weights)
    b = first = _resolve_weights(weights, 1).entries
    w = slots.weights(b)
    x = np.array(init, dtype=float)
    if x.shape != (n, dim):
        raise ValueError(f"init must have shape ({n}, {dim})")
    if not box.contains(x):
        raise ValueError("initial states must lie in the feasible set")

    edges = topology.sender_edges[0].size
    per_edge = algorithm == "rss_lb"
    keep = recorded_rounds(max_iter, record_every)
    keep_set = set(keep.tolist())
    r_count = keep.size
    steps_rec = np.zeros(r_count)
    states_rec = np.zeros((r_count, n, dim))
    perturbations_rec = np.zeros((r_count, edges if per_edge else n, dim))
    shares_rec = np.zeros((r_count, edges, dim)) if algorithm == "rss_nb" else None
    weights_series = np.zeros((r_count, n, n)) if varying else None

    noise_ext = np.zeros((edges + 1, dim)) if per_edge else None  # row E stays 0
    row = 0
    for k in range(1, max_iter + 1):
        alpha = schedule.step(k)
        if varying and k > 1:
            b = _resolve_weights(weights, k).entries
            w = slots.weights(b)
        noise, shares = draw(k)  # (E, D) per edge or (n, D) per agent; (E, D) nb shares or None
        if per_edge:
            noise_ext[:-1] = noise
            msgs = x[slots.senders] + alpha * noise_ext[slots.edges]
        else:
            msgs = (x + alpha * noise)[slots.senders]
        fused = _slot_fuse(w, msgs)
        grads = problem.agent_gradients(fused)
        x_next = box.project(fused - alpha * grads)
        if not np.isfinite(x_next).all():
            agent = int(np.flatnonzero(~np.isfinite(x_next).all(axis=1))[0])
            raise NonFiniteError(f"round {k}: the next state of agent {agent} is not finite")
        if k in keep_set:
            steps_rec[row] = alpha
            states_rec[row] = x
            perturbations_rec[row] = noise
            if shares_rec is not None:
                shares_rec[row] = shares
            if weights_series is not None:
                weights_series[row] = b
            row += 1
        x = x_next

    return ExecutionTrace(
        algorithm=algorithm,
        topology=topology,
        weights=first,
        schedule=schedule,
        delta=delta,
        seed=seed,
        max_iter=max_iter,
        record_every=record_every,
        init=np.array(init, dtype=float),
        round_index=keep,
        steps=steps_rec,
        states=states_rec,
        perturbations=perturbations_rec,
        final_states=x,
        problem_spec=problem_spec if problem_spec is not None else problem.to_spec(),
        shares=shares_rec,
        weights_series=weights_series,
        extras=extras or {},
    )


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
    zero = np.zeros((topology.n, problem.dim))

    def draw(k):
        return zero, None

    return _execute(problem, topology, weights, schedule, max_iter, init, record_every,
                    _tag, 0.0, None, draw, problem_spec=_spec, extras=_extras)


def run_rss_nb(problem: GlobalProblem, topology: Topology, schedule: StepSchedule,
               delta: float, max_iter: int, init: np.ndarray | None = None,
               seed: int = 0, weights=None,
               record_every: int = 1) -> ExecutionTrace:
    """Network-balanced randomized state sharing: per-round pairwise shares
    build perturbations that cancel across the whole network."""
    weights = weights or metropolis_weights(topology)
    init = default_init(problem.feasible, topology.n) if init is None else init
    dim = problem.dim
    streams = RandomStreams(seed)

    def draw(k):
        shares = draw_nb_shares(topology, k, delta, streams, dim)
        return nb_perturbation(shares, topology), shares

    return _execute(problem, topology, weights, schedule, max_iter, init, record_every,
                    "rss_nb", delta, seed, draw)


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
                    "rss_lb", delta, seed, draw)


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
