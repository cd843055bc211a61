"""Synchronous round-based execution of the four distributed algorithms,
producing an execution trace of the primary per-round arrays.

Every algorithm runs the same fuse-descend-project loop; they differ only in
how the messages are perturbed. Each agent fuses only the messages of its
self-inclusive neighbourhood, gathered into the topology's fusion slots. With
zero perturbation the perturbed algorithms reproduce plain distributed gradient
descent bit for bit.
"""

from __future__ import annotations

import binascii
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .graphs import FusionMatrix, GraphError, Topology, metropolis_weights
from .noise import (RandomStreams, draw_lb_perturbation, draw_nb_shares,
                    draw_noise_functions, nb_perturbation,
                    noise_gradient_bounds, obfuscate)
from .objectives import Box, GlobalProblem
from .polynomials import pad_coeffs

# Version 2: rss noise streams are one per (purpose, agent) and addressed by
# round, so a version-1 rss trace's seed no longer reproduces its noise.
# Version 3: rounds hold only the primary arrays, and rss_lb perturbations and
# rss_nb shares are stored on the directed edges (same dynamics as version 2).
# Version 4: arrays are base64 float64 bytes, the fusion weights are stored per
# slot and dgd and fs perturbations, zero by definition, are not stored (same
# dynamics as version 3).
TRACE_VERSION = 4

ALGORITHMS = ("dgd", "rss_nb", "rss_lb", "fs")
PERTURBED = ("rss_nb", "rss_lb")  # dgd and fs messages carry no perturbation

# Noise is drawn a block of rounds at a time: at least MIN_BLOCK_ROUNDS rounds,
# and more while a (rounds, E, D) block stays within BLOCK_ENTRIES float64
# entries (256 KiB). The values of a round do not depend on the block size.
MIN_BLOCK_ROUNDS = 32
BLOCK_ENTRIES = 2 ** 15


class ScheduleError(ValueError):
    pass


class TraceError(ValueError):
    """A trace file has an unsupported version, a missing or malformed header
    value, an array that is not encoded as ``encode_array`` writes it or has
    the wrong shape, fusion weights that are not doubly stochastic, rounds or
    steps that its schedule does not give, or a state digest that does not
    match."""


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


def _slot_fuse(weights: np.ndarray, messages: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Fuse slot-major messages, with any leading round axis: weights
    (..., K, n) and messages (..., K, n, D) give (..., n, D) whose row j is
    sum_k weights[k, j] * messages[k, j]. One code path for every algorithm,
    so zero-noise runs are bit-identical. The weighted messages go to ``out``
    (``messages`` itself, say) when given.

    The sum runs over the slots in ascending order from +0.0. That is the
    order of a dense fuse over all n senders, and the terms it leaves out
    are 0 * message = +-0, which never change such a sum, so the result is
    the dense fuse's bit for bit. Reducing over a leading (not contiguous)
    axis keeps numpy from summing pairwise."""
    weighted = np.multiply(weights[..., None], messages, out=out)
    return np.add.reduce(weighted, axis=-3, initial=0.0)


def dgd_step(problem: GlobalProblem, weights: np.ndarray, messages: np.ndarray,
             alpha, rounds) -> np.ndarray:
    """One descent step of every agent, with any leading axes: fuse the slot
    messages (..., K, n, D) under the slot weights (..., K, n), step against
    each agent's gradient at its fused point by ``alpha`` (a scalar, or an
    array that broadcasts to (..., n, D)) and project onto the feasible set.
    Every operation is elementwise or over the slot axis, so a step of many
    states at once is bit-identical to stepping each alone.

    The step consumes ``messages``: the fuse weighs them in place, so pass a
    fresh gather. The descent and the projection run in place on the fused
    array, which becomes the next state.

    Raises NonFiniteError when a next state is not finite, naming its round
    from ``rounds`` (which broadcasts against the leading axes). One sum of
    the next states gates the exact check: NaN or +-inf always makes the sum
    non-finite, and a finite sum that overflows (states near the float limit,
    for which numpy warns) falls through to the exact check, which passes."""
    fused = _slot_fuse(weights, messages, out=messages)
    gradients = problem.agent_gradients(fused)
    gradients *= alpha
    fused -= gradients
    x_next = problem.feasible.project(fused, out=fused)
    if not math.isfinite(np.add.reduce(x_next, axis=None)) and not np.isfinite(x_next).all():
        first = np.argwhere(~np.isfinite(x_next).all(axis=-1))[0]
        k = np.broadcast_to(rounds, x_next.shape[:-2])[tuple(first[:-1])]
        raise NonFiniteError(f"round {k}: the next state of agent {first[-1]} is not finite")
    return x_next


def digest_states(max_iter: int, round_index: np.ndarray, init: np.ndarray,
                  states: np.ndarray, final_states: np.ndarray) -> str:
    """Digest of a state evolution: the states (R, n, D) at the recorded
    rounds, the initial and the final states. Identical dynamics give
    identical digests, whichever algorithm or replay produced them."""
    h = hashlib.sha256()
    h.update(b"privopt-trace-v1")
    h.update(np.array([*states.shape[1:], max_iter], dtype="<i8").tobytes())
    h.update(round_index.astype("<i8").tobytes())
    h.update(init.astype("<f8").tobytes())
    h.update(states.astype("<f8").tobytes())
    h.update(final_states.astype("<f8").tobytes())
    return h.hexdigest()


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def encode_array(array: np.ndarray) -> dict:
    """A trace document's form of a float array: its shape and the standard
    base64 of its C-order little-endian float64 bytes, so decoding gives the
    array back bit for bit (signed zeros, NaN payloads and all)."""
    data = np.ascontiguousarray(array, dtype="<f8")
    return {"shape": list(data.shape),
            "base64": binascii.b2a_base64(data.tobytes(), newline=False).decode("ascii")}


def decode_array(value, name: str, *shape: int) -> np.ndarray:
    """The writable float64 array of shape ``shape`` that ``encode_array``
    wrote as ``value``. Anything else raises ``TraceError`` naming ``name``:
    a value that is not an encoded array, another shape, characters outside
    the base64 alphabet, a byte count other than 8 per entry, or an entry
    that is not finite."""
    if not (isinstance(value, dict) and isinstance(value.get("shape"), list)
            and isinstance(value.get("base64"), str)):
        raise TraceError(f"{name} is not an encoded array")
    if tuple(value["shape"]) != shape:
        raise TraceError(f"{name} has shape {tuple(value['shape'])}, expected {shape}")
    try:
        data = binascii.a2b_base64(value["base64"], strict_mode=True)
    except binascii.Error as exc:
        raise TraceError(f"{name} is not valid base64: {exc}") from None
    expected = 8 * int(np.prod(shape))
    if len(data) != expected:
        raise TraceError(f"{name} holds {len(data)} bytes, expected {expected}")
    out = np.frombuffer(bytearray(data), dtype="<f8").reshape(shape).astype(float, copy=False)
    if not np.isfinite(out).all():
        raise TraceError(f"{name} holds a non-finite value")
    return out


def _numbers(value, name: str, *shape: int) -> np.ndarray:
    """A JSON number, or nested lists of numbers, of the given shape and
    finite; ``TraceError`` naming ``name`` otherwise."""
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise TraceError(f"{name} is not a numeric array: {exc}") from None
    if out.shape != shape:
        raise TraceError(f"{name} has shape {out.shape}, expected {shape}")
    if not np.isfinite(out).all():
        raise TraceError(f"{name} holds a non-finite value")
    return out


@dataclass
class ExecutionTrace:
    """Record of one run: the primary per-round arrays (steps, states,
    perturbations, nb shares and per-round weights), stored with a leading
    round axis. Messages and fused quantities are derived from them on first
    use, through the engine's slot fuse, so they match the values the run
    used bit for bit."""

    algorithm: str
    topology: Topology
    weights: np.ndarray          # (K, n) slot weights on ``topology.fuse_slots``
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
    weights_series: np.ndarray | None = None  # (R, K, n) when a per-round provider ran
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
        weights = self.weights if self.weights_series is None else self.weights_series
        return _read_only(_slot_fuse(weights, slot_messages))

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
        """``digest_states`` of the run's state evolution."""
        return digest_states(self.max_iter, self.round_index, self.init, self.states,
                             self.final_states)

    def states_with_final(self) -> tuple[np.ndarray, np.ndarray]:
        """Round indices 1..K+1 paired with the matching state arrays."""
        idx = np.concatenate([self.round_index, [self.max_iter + 1]])
        arr = np.concatenate([self.states, self.final_states[None]], axis=0)
        return idx, arr

    def to_json_dict(self) -> dict:
        """The trace document: the primary arrays as ``encode_array`` objects,
        the fusion weights per slot ((K, n), or (R, K, n) for a provider run),
        and neither derived arrays nor the zero perturbations of dgd and fs."""
        def encoded(a):
            return None if a is None else encode_array(a)

        perturbations = self.perturbations if self.algorithm in PERTURBED else None
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
            "weights": encode_array(self.weights),
            "init": encode_array(self.init),
            "problem": self.problem_spec,
            "rounds": {
                "index": self.round_index.tolist(),
                "step": encode_array(self.steps),
                "states": encode_array(self.states),
                "perturbations": encoded(perturbations),
                "shares": encoded(self.shares),
                "weights_series": encoded(self.weights_series),
            },
            "final_states": encode_array(self.final_states),
            "extras": self.extras,
            "digest": self.state_digest(),
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExecutionTrace":
        """Rebuild a trace, checking the header's keys and counts, every
        array's encoding, shape and finiteness, the fusion weights, the noise
        bounds and function-sharing extras, the recorded rounds and steps
        against the schedule, and the state digest; any mismatch raises
        ``TraceError``."""
        if not isinstance(doc, dict):
            raise TraceError("a trace document must be a JSON object")
        if doc.get("version") != TRACE_VERSION:
            raise TraceError(f"unsupported trace version: {doc.get('version')!r}")

        def required(key: str):
            if key not in doc:
                raise TraceError(f"missing key: {key}")
            return doc[key]

        def count(key: str) -> int:
            value = required(key)
            if type(value) is not int or value < 1:
                raise TraceError(f"{key} must be a positive integer, got {value!r}")
            return value

        def mapping(key: str) -> dict:
            value = required(key)
            if not isinstance(value, dict):
                raise TraceError(f"{key} must be a JSON object, got {type(value).__name__}")
            return value

        algorithm = required("algorithm")
        if algorithm not in ALGORITHMS:
            raise TraceError(f"unknown algorithm: {algorithm!r}")
        seed = required("seed")
        if seed is not None and (type(seed) is not int or seed < 0):
            raise TraceError(f"seed must be null or a non-negative integer, got {seed!r}")
        n, dim = count("n"), count("dim")
        max_iter, record_every = count("max_iter"), count("record_every")
        topology_spec, schedule_spec = required("topology"), required("schedule")
        try:
            topology = Topology.from_spec(topology_spec)
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"topology: {type(exc).__name__}: {exc}") from None
        try:
            schedule = StepSchedule.from_spec(schedule_spec)
        except (AttributeError, TypeError, ValueError) as exc:
            raise TraceError(f"schedule: {type(exc).__name__}: {exc}") from None
        if topology.n != n:
            raise TraceError(f"topology has {topology.n} agents, trace has {n}")
        rounds, extras, problem_spec = mapping("rounds"), mapping("extras"), mapping("problem")
        index = recorded_rounds(max_iter, record_every)
        r_count = index.size
        edges = topology.sender_edges[0].size

        def fusion(value, name: str, *rounds_shape: int) -> np.ndarray:
            """Encoded (..., K, n) slot weights, checked as ``FusionMatrix`` checks them."""
            weights = decode_array(value, name, *rounds_shape, *topology.fuse_slots.senders.shape)
            try:
                return FusionMatrix(topology, weights).weights
            except GraphError as exc:
                raise TraceError(f"{name}: {exc}") from None

        delta = float(_numbers(doc.get("delta"), "delta"))
        if delta < 0:
            raise TraceError(f"delta must be non-negative, got {delta!r}")
        if algorithm == "fs":
            _check_fs_extras(extras, topology, dim)

        stored_index = _numbers(rounds.get("index"), "rounds.index", r_count)
        if not np.array_equal(stored_index, index):
            raise TraceError(f"rounds.index is not the rounds recorded for max_iter={max_iter}, "
                             f"record_every={record_every}")
        steps = decode_array(rounds.get("step"), "rounds.step", r_count)
        if steps.tobytes() != schedule.steps(max_iter)[index - 1].tobytes():
            raise TraceError("rounds.step differs from the schedule's steps")
        if algorithm in PERTURBED:
            perturbations = decode_array(rounds.get("perturbations"), "rounds.perturbations",
                                         r_count, edges if algorithm == "rss_lb" else n, dim)
        elif rounds.get("perturbations") is not None:
            raise TraceError(f"{algorithm} perturbations are zero and not stored")
        else:
            perturbations = np.zeros((r_count, n, dim))
        shares = None
        if algorithm == "rss_nb":
            shares = decode_array(rounds.get("shares"), "rounds.shares", r_count, edges, dim)
        elif rounds.get("shares") is not None:
            raise TraceError(f"only rss_nb traces have shares, not {algorithm}")
        weights_series = rounds.get("weights_series")
        if weights_series is not None:
            weights_series = fusion(weights_series, "rounds.weights_series", r_count)
        trace = cls(
            algorithm=algorithm,
            topology=topology,
            weights=fusion(doc.get("weights"), "weights"),
            schedule=schedule,
            delta=delta,
            seed=seed,
            max_iter=max_iter,
            record_every=record_every,
            init=decode_array(doc.get("init"), "init", n, dim),
            round_index=index,
            steps=steps,
            states=decode_array(rounds.get("states"), "rounds.states", r_count, n, dim),
            perturbations=perturbations,
            final_states=decode_array(doc.get("final_states"), "final_states", n, dim),
            problem_spec=problem_spec,
            shares=shares,
            weights_series=weights_series,
            extras=extras,
            version=TRACE_VERSION,
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


def _check_fs_extras(extras: dict, topology: Topology, dim: int) -> None:
    """Check the function-sharing extras that the audits and the privacy
    check read: finite bounds, the obfuscated objectives as a finite
    (n, dim, width) array, and one finite (dim, width) noise function per
    directed edge, in ``Topology.sender_edges`` order."""
    for key in ("obf_grad_bound", "obf_smoothness_bound"):
        if extras.get(key) is not None:
            _numbers(extras[key], f"extras.{key}")
    width = extras.get("width")
    if type(width) is not int or width < 1:
        raise TraceError(f"extras.width must be a positive integer, got {width!r}")
    _numbers(extras.get("obfuscated"), "extras.obfuscated", topology.n, dim, width)
    noise = extras.get("noise")
    senders, receivers = topology.sender_edges
    if (not isinstance(noise, list)
            or not all(isinstance(entry, list) and len(entry) == 3 for entry in noise)
            or [entry[:2] for entry in noise] != [list(e) for e in zip(senders.tolist(),
                                                                      receivers.tolist())]):
        raise TraceError("extras.noise must hold one [sender, receiver, coefficients] entry "
                         "per directed edge, in edge order")
    for sender, receiver, coeffs in noise:
        _numbers(coeffs, f"extras.noise of edge ({sender}, {receiver})", dim, width)


def _resolve_weights(weights, k: int, topology: Topology) -> FusionMatrix:
    """Round k's fusion weights: ``weights`` itself, or what a provider gives."""
    matrix = weights(k) if callable(weights) else weights
    if matrix.topology != topology:
        raise GraphError(f"round {k}: the fusion weights are for another topology")
    return matrix


def block_rounds(edges: int, dim: int) -> int:
    """Rounds whose noise is drawn and shaped in one pass: at least
    ``MIN_BLOCK_ROUNDS``, and more while a (rounds, E, D) block stays within
    ``BLOCK_ENTRIES`` float64 entries."""
    return max(MIN_BLOCK_ROUNDS, BLOCK_ENTRIES // max(edges * dim, 1))


def _execute(problem: GlobalProblem, topology: Topology, weights,
             schedule: StepSchedule, max_iter: int, init: np.ndarray,
             record_every: int, algorithm: str, delta: float,
             seed: int | None, draw,
             problem_spec: dict | None = None, extras: dict | None = None) -> ExecutionTrace:
    """Run the rounds in blocks. Per block: the step sizes, the fusion weights
    of every round (a provider is called once per round, in round order) and
    one ``draw(first, count, weights)`` of the block's noise (None when the
    algorithm adds none); per round: gather, fuse, descend, project and
    record."""
    n, dim = topology.n, problem.dim
    senders, slot_edges = topology.fuse_slots.senders, topology.fuse_slots.edges
    varying = callable(weights)
    first_matrix = _resolve_weights(weights, 1, topology)
    x = np.array(init, dtype=float)
    if x.shape != (n, dim):
        raise ValueError(f"init must have shape ({n}, {dim})")
    if not problem.feasible.contains(x):
        raise ValueError("initial states must lie in the feasible set")

    edges = topology.sender_edges[0].size
    per_edge = algorithm == "rss_lb"
    keep = recorded_rounds(max_iter, record_every)
    keep_set = set(keep.tolist())
    r_count = keep.size
    steps = schedule.steps(max_iter)
    states_rec = np.zeros((r_count, n, dim))
    perturbations_rec = np.zeros((r_count, edges if per_edge else n, dim))
    shares_rec = np.zeros((r_count, edges, dim)) if algorithm == "rss_nb" else None
    weights_series = np.zeros((r_count,) + first_matrix.weights.shape) if varying else None

    block = block_rounds(edges, dim)
    row = 0
    for start in range(1, max_iter + 1, block):
        count = min(block, max_iter + 1 - start)
        ks = range(start, start + count)
        alphas = steps[start - 1:start - 1 + count]
        if varying:
            block_weights = np.stack([
                (first_matrix if k == 1 else _resolve_weights(weights, k, topology)).weights
                for k in ks])
        else:
            block_weights = first_matrix.weights
        # (count, E, D) or (count, n, D) noise, None for dgd and fs;
        # (count, E, D) nb shares or None
        noise, shares = draw(start, count, block_weights)
        lo, hi = np.searchsorted(keep, (start, start + count))
        taken = keep[lo:hi] - start
        if noise is not None:
            perturbations_rec[lo:hi] = noise[taken]
        if shares_rec is not None:
            shares_rec[lo:hi] = shares[taken]
        if weights_series is not None:
            weights_series[lo:hi] = block_weights[taken]
        if noise is None:
            scaled = None
        elif per_edge:  # the noise times the step, and a row E, off the edges, of 0
            scaled = np.zeros((count, edges + 1, dim))
            np.multiply(alphas[:, None, None], noise, out=scaled[:, :-1])
        else:
            scaled = alphas[:, None, None] * noise
        del noise, shares  # no two blocks' noise is held at once: it bounds peak memory
        for r, (k, alpha) in enumerate(zip(ks, alphas.tolist())):
            # a fresh gather of the messages, which the step consumes
            if scaled is None:  # adding zero noise only turns -0.0 into +0.0: same fuse
                msgs = x[senders]
            elif per_edge:
                msgs = x[senders]
                msgs += scaled[r][slot_edges]
            else:
                msgs = (x + scaled[r])[senders]
            x_next = dgd_step(problem, block_weights[r] if varying else block_weights,
                              msgs, alpha, k)
            if k in keep_set:
                states_rec[row] = x
                row += 1
            x = x_next
        del scaled

    return ExecutionTrace(
        algorithm=algorithm,
        topology=topology,
        weights=first_matrix.weights,
        schedule=schedule,
        delta=delta,
        seed=seed,
        max_iter=max_iter,
        record_every=record_every,
        init=np.array(init, dtype=float),
        round_index=keep,
        steps=steps[keep - 1],
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

    def draw(first, count, weights):
        return None, None  # no perturbation: the recorded perturbations stay zero

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

    def draw(first, count, weights):
        shares = draw_nb_shares(topology, first, count, delta, streams, dim)
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

    def draw(first, count, weights):
        edge_weights = topology.fuse_slots.edge_weights(weights)
        return draw_lb_perturbation(topology, edge_weights, delta, first, count, streams,
                                    dim), None

    return _execute(problem, topology, weights, schedule, max_iter, init, record_every,
                    "rss_lb", delta, seed, draw)


def run_fs(problem: GlobalProblem, topology: Topology, schedule: StepSchedule,
           delta_coeff: float, d_max: int, max_iter: int,
           init: np.ndarray | None = None, seed: int = 0,
           weights=None, record_every: int = 1) -> ExecutionTrace:
    """Function sharing: exchange polynomial noise functions once, obfuscate the
    local objectives, then run plain distributed gradient descent on them."""
    streams = RandomStreams(seed)
    noise = draw_noise_functions(topology, delta_coeff, d_max, streams, problem.dim)
    obfuscated = obfuscate(problem.objectives, noise, topology)
    width = obfuscated[0].poly.width
    box = problem.feasible
    sub_problem = GlobalProblem(objectives=obfuscated, feasible=box, validate_convexity=False)
    grad_bound, curv_bound = noise_gradient_bounds(noise, topology, box.lower, box.upper)
    base_l, base_n = problem.constants()
    senders, receivers = topology.sender_edges
    extras = {
        "delta_coeff": delta_coeff,
        "d_max": d_max,
        "width": width,
        "noise": [[j, i, coeffs] for j, i, coeffs in
                  zip(senders.tolist(), receivers.tolist(), pad_coeffs(noise, width).tolist())],
        "obfuscated": [obj.poly.coeffs.tolist() for obj in obfuscated],
        "obf_grad_bound": base_l + grad_bound,
        "obf_smoothness_bound": base_n + curv_bound,
    }
    trace = run_dgd(sub_problem, topology, schedule, max_iter, init=init,
                    weights=weights, record_every=record_every,
                    _tag="fs", _spec=problem.to_spec(), _extras=extras)
    return replace(trace, seed=seed)
