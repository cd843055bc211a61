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
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .graphs import Topology
from .noise import (RandomStreams, draw_lb_perturbation, draw_nb_shares,
                    draw_noise_functions, nb_perturbation, noise_gradient_bounds, obfuscate)
from .objectives import Box, GlobalProblem

if TYPE_CHECKING:  # configs imports this module
    from .configs import RunConfig

# Version 2: rss noise streams are one per (purpose, agent) and addressed by
# round, so a version-1 rss trace's seed no longer reproduces its noise.
# Version 3: rounds hold only the primary arrays, and rss_lb perturbations and
# rss_nb shares are stored on the directed edges (same dynamics as version 2).
# Version 4: arrays are base64 float64 bytes, the fusion weights are stored per
# slot and dgd and fs perturbations, zero by definition, are not stored (same
# dynamics as version 3).
# Version 5: a trace stores only what the run drew or chose, with one noise
# array (rss_nb shares, rss_lb perturbations, fs noise functions); the rounds,
# the steps, rss_nb perturbations and fs obfuscated objectives are derived
# (same dynamics as version 4).
# Version 6: the header is the run's canonical RunConfig dict, validated on
# load as a config file is, with the initial states in it; no per-round
# weights (same dynamics as version 5).
# Version 7: the fusion weights are not stored; they are the config's
# Metropolis matrix, derived on load (same dynamics as version 6).
TRACE_VERSION = 7

ALGORITHMS = ("dgd", "rss_nb", "rss_lb", "fs")

# Noise is drawn a block of rounds at a time: at least MIN_BLOCK_ROUNDS rounds,
# and more while a (rounds, E, D) block stays within BLOCK_ENTRIES float64
# entries (256 KiB). The values of a round do not depend on the block size.
MIN_BLOCK_ROUNDS = 32
BLOCK_ENTRIES = 2 ** 15


class ScheduleError(ValueError):
    pass


class TraceError(ValueError):
    """A trace file has an unsupported version, missing or unknown keys, a
    config that is not a valid run config, an array that is not encoded as
    ``encode_array`` writes it or does not fit the config, malformed fs
    extras, or a state digest that does not match."""


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
        if self.kind not in _SCHEDULE_KEYS:
            raise ScheduleError(f"unknown schedule kind: {self.kind!r}")
        if not (math.isfinite(self.a) and self.a > 0):
            raise ScheduleError(f"schedule parameter a must be finite and positive, got {self.a!r}")
        if not (math.isfinite(self.b) and self.b >= 0):
            raise ScheduleError(f"schedule parameter b must be finite and non-negative, "
                                f"got {self.b!r}")

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
        """The schedule of a ``to_spec`` dict, whose numbers may be left out
        for their defaults. ScheduleError for an unknown kind or key, or a
        value that is not a JSON number."""
        kind = spec.get("kind")
        if kind not in _SCHEDULE_KEYS:
            raise ScheduleError(f"unknown schedule kind: {kind!r}")
        unknown = set(spec) - {"kind", *_SCHEDULE_KEYS[kind]}
        if unknown:
            raise ScheduleError(f"unknown {kind} schedule keys: {sorted(unknown)}")
        params = {}
        for key, (name, default) in _SCHEDULE_KEYS[kind].items():
            value = spec.get(key, default)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ScheduleError(f"schedule {key} must be a JSON number, got {value!r}")
            try:
                params[name] = float(value)
            except OverflowError:  # an integer past the float range
                raise ScheduleError(f"schedule {key} must be finite, got {value!r}") from None
        return cls(kind=kind, **params)


# The spec keys of each schedule kind: key -> (parameter, default).
_SCHEDULE_KEYS = {"inv_sqrt": {}, "inv_k": {"a": ("a", 1.0), "b": ("b", 0.0)},
                  "constant": {"value": ("a", 0.1)}}


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
    from ``rounds`` (which broadcasts against the leading axes). The largest
    next state gates the search for it: the projection onto the finite box
    clamps +-inf, so only NaN can be left, and the maximum propagates NaN and,
    unlike a sum, never overflows."""
    fused = _slot_fuse(weights, messages, out=messages)
    gradients = problem.agent_gradients(fused)
    gradients *= alpha
    fused -= gradients
    x_next = problem.feasible.project(fused, out=fused)
    if not math.isfinite(np.maximum.reduce(x_next, axis=None)):
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
    expected = 8 * math.prod(shape)  # Python ints: a huge shape cannot wrap around
    if len(data) != expected:
        raise TraceError(f"{name} holds {len(data)} bytes, expected {expected}")
    out = np.frombuffer(bytearray(data), dtype="<f8").reshape(shape).astype(float, copy=False)
    if not np.isfinite(out).all():
        raise TraceError(f"{name} holds a non-finite value")
    return out


# The keys of a trace document, and the extras of an fs trace: the two bounds
# on the obfuscated gradients that the audits read.
DOCUMENT_KEYS = frozenset({"version", "config", "noise", "states", "final_states", "extras",
                           "digest"})
FS_EXTRAS = ("obf_grad_bound", "obf_smoothness_bound")


@dataclass
class ExecutionTrace:
    """Record of one run: its config, what it drew or chose, and the states
    (R, n, D) of the recorded rounds.

    ``config`` is the canonical ``RunConfig`` dict of the run, its specs as
    the built objects write them. The topology, the problem (fs: before
    obfuscation), the schedule, the fusion weights and the initial states
    are the objects ``RunConfig`` builds from it, for the run and for a
    loaded trace alike. Everything else is derived on first use, through the
    code the run uses, so it matches the values the run used bit for bit:
    the rounds, the steps, the perturbations, the fs obfuscated objectives,
    and the messages and fused quantities of the engine's slot fuse."""

    config: dict
    topology: Topology
    problem: GlobalProblem
    schedule: StepSchedule
    weights: np.ndarray          # (K, n) slot weights on ``topology.fuse_slots``, not stored
    init: np.ndarray             # (n, D)
    states: np.ndarray           # (R, n, D)
    final_states: np.ndarray     # (n, D)
    # the run's random draw, rows of E in ``topology.sender_edges`` order:
    # rss_nb shares and rss_lb perturbations (R, E, D), fs noise functions
    # (E, D, d_max + 1); None for dgd
    noise: np.ndarray | None = None
    extras: dict = field(default_factory=dict)  # fs: the ``FS_EXTRAS`` bounds
    version: int = TRACE_VERSION
    # Not a field: a run has one (K, n) weights array. The benchmark's
    # perfbench/spans.py ``_trace_nbytes`` still reads this name.
    weights_series = None

    @property
    def algorithm(self) -> str:
        return self.config["algorithm"]

    @property
    def max_iter(self) -> int:
        return self.config["max_iter"]

    @property
    def record_every(self) -> int:
        return self.config["record_every"]

    @property
    def seed(self) -> int | None:
        """The noise seed; None for dgd, which draws nothing."""
        return None if self.algorithm == "dgd" else self.config["seed"]

    @property
    def delta(self) -> float:
        """The bound on the state perturbations; 0.0 for dgd and fs, which
        perturb no state."""
        return self.config["delta"] if self.algorithm in ("rss_nb", "rss_lb") else 0.0

    @property
    def delta_coeff(self) -> float:
        return self.config["delta_coeff"]

    @property
    def d_max(self) -> int:
        return self.config["d_max"]

    @cached_property
    def round_index(self) -> np.ndarray:
        """(R,) recorded rounds."""
        return _read_only(recorded_rounds(self.max_iter, self.record_every))

    @cached_property
    def steps(self) -> np.ndarray:
        """(R,) step sizes of the recorded rounds."""
        return _read_only(self.schedule.steps(self.max_iter)[self.round_index - 1])

    @property
    def shares(self) -> np.ndarray | None:
        """(R, E, D) rss_nb shares; None for the other algorithms."""
        return self.noise if self.algorithm == "rss_nb" else None

    @cached_property
    def perturbations(self) -> np.ndarray:
        """(R, n, D) perturbations, zero for dgd and fs; rss_lb (R, E, D) on
        ``topology.sender_edges``, the noise itself."""
        if self.algorithm == "rss_lb":
            return self.noise
        if self.algorithm == "rss_nb":
            return _read_only(nb_perturbation(self.noise, self.topology))
        return _read_only(np.zeros((self.round_index.size, self.n, self.dim)))

    @cached_property
    def obfuscated(self) -> np.ndarray | None:
        """(n, D, W) coefficients of the objectives an fs run descends on: the
        problem's local objectives obfuscated by the noise functions; None for
        the other algorithms."""
        if self.algorithm != "fs":
            return None
        return _read_only(np.stack([obj.poly.coeffs for obj in
                                    obfuscate(self.problem.objectives, self.noise, self.topology)]))

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
        return _read_only(_slot_fuse(self.weights, slot_messages))

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
        """The trace document: the config, the stored arrays as
        ``encode_array`` objects (the noise null for dgd), the fs extras and
        the state digest; no derived array, and no fusion weights, which the
        config defines."""
        return {
            "version": self.version,
            "config": self.config,
            "noise": None if self.noise is None else encode_array(self.noise),
            "states": encode_array(self.states),
            "final_states": encode_array(self.final_states),
            "extras": self.extras,
            "digest": self.state_digest(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExecutionTrace":
        """Rebuild a trace. Its config is validated as a run config is,
        through ``RunConfig``, which also builds the fusion weights; every
        array is then checked against the config's agents, dimension, edges,
        recorded rounds and noise degree, for encoding, shape and finiteness;
        the fs extras; the state digest; and, for fs, that the obfuscated
        objectives are finite. Any mismatch, a config error included, raises
        ``TraceError``."""
        from .configs import ConfigError, RunConfig

        if not isinstance(doc, dict):
            raise TraceError("a trace document must be a JSON object")
        if doc.get("version") != TRACE_VERSION:
            raise TraceError(f"unsupported trace version: {doc.get('version')!r}")
        if set(doc) != DOCUMENT_KEYS:
            raise TraceError(f"a trace document holds the keys {sorted(DOCUMENT_KEYS)}, "
                             f"got {sorted(doc)}")
        try:
            config = RunConfig.from_dict(doc["config"])
        except ConfigError as exc:
            raise TraceError(f"config: {exc}") from None
        topology, problem = config.build_topology(), config.build_problem()
        n, dim, algorithm = topology.n, problem.dim, config.algorithm
        r_count = recorded_rounds(config.max_iter, config.record_every).size
        edges = topology.sender_edges[0].size
        states = decode_array(doc["states"], "states", r_count, n, dim)
        final_states = decode_array(doc["final_states"], "final_states", n, dim)
        if algorithm == "dgd":
            if doc["noise"] is not None:
                raise TraceError("dgd draws no noise, so its trace stores none")
            noise = None
        elif algorithm == "fs":
            noise = decode_array(doc["noise"], "noise", edges, dim, config.d_max + 1)
        else:
            noise = decode_array(doc["noise"], "noise", r_count, edges, dim)
        extras = doc["extras"]
        keys = FS_EXTRAS if algorithm == "fs" else ()
        if not (isinstance(extras, dict) and sorted(extras) == sorted(keys)
                and all(type(v) in (int, float) and 0 <= v < math.inf for v in extras.values())):
            raise TraceError(f"extras must map {list(keys)} to finite non-negative numbers, "
                             f"got {extras!r}")
        init = config.build_init(problem)
        trace = cls(
            config=config.canonical_dict(),
            topology=topology,
            problem=problem,
            schedule=config.build_schedule(),
            weights=config.build_weights(topology).weights,
            init=default_init(problem.feasible, n) if init is None else init,
            states=states,
            final_states=final_states,
            noise=noise,
            extras=extras,
        )
        digest = trace.state_digest()
        if digest != doc["digest"]:
            raise TraceError(f"state digest {digest[:12]} does not match the stored "
                             f"digest {str(doc['digest'])[:12]}")
        if algorithm == "fs" and not np.isfinite(trace.obfuscated).all():
            raise TraceError("the obfuscated objectives hold a non-finite value")
        return trace

    @classmethod
    def load(cls, path) -> "ExecutionTrace":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def block_rounds(edges: int, dim: int) -> int:
    """Rounds whose noise is drawn and shaped in one pass: at least
    ``MIN_BLOCK_ROUNDS``, and more while a (rounds, E, D) block stays within
    ``BLOCK_ENTRIES`` float64 entries."""
    return max(MIN_BLOCK_ROUNDS, BLOCK_ENTRIES // max(edges * dim, 1))


def _execute(config: RunConfig, draw=None, noise: np.ndarray | None = None,
             descended: GlobalProblem | None = None, extras: dict | None = None) -> ExecutionTrace:
    """Run the rounds of a validated ``RunConfig`` in blocks. Per block: the
    step sizes and, for rss, one ``draw(first, count)`` of the block's noise,
    which gives the (count, n, D) or (count, E, D) noise the messages carry
    and the (count, E, D) draw the trace records; per round: gather, fuse,
    descend, project and record. Without ``draw`` the messages carry no
    noise and the trace records ``noise`` as it is (fs noise functions, or
    None). The agents descend on ``descended`` (fs: the obfuscated
    objectives), by default the config's problem.

    The topology, the problem, the schedule, the weights and the initial
    states are built once, through the config. The trace's config is its
    canonical dict with the specs as those objects write them: the topology
    as its edges, and the coefficients, box and initial states as floats."""
    topology, problem = config.build_topology(), config.build_problem()
    schedule, weights = config.build_schedule(), config.build_weights(topology).weights
    initial = config.build_init(problem)
    header = {**config.canonical_dict(), "topology": topology.to_spec(), **problem.to_spec(),
              "schedule": schedule.to_spec()}
    if initial is None:
        initial = default_init(problem.feasible, topology.n)
    else:
        header["init"] = initial.tolist()
    n, dim, max_iter = topology.n, problem.dim, config.max_iter
    senders, slot_edges = topology.fuse_slots.senders, topology.fuse_slots.edges
    stepped = problem if descended is None else descended

    edges = topology.sender_edges[0].size
    per_edge = config.algorithm == "rss_lb"
    keep = recorded_rounds(max_iter, config.record_every)
    keep_set = set(keep.tolist())
    steps = schedule.steps(max_iter)
    states_rec = np.zeros((keep.size, n, dim))
    if draw is not None:
        noise = np.zeros((keep.size, edges, dim))

    block = block_rounds(edges, dim)
    x, row = initial, 0
    for start in range(1, max_iter + 1, block):
        count = min(block, max_iter + 1 - start)
        alphas = steps[start - 1:start - 1 + count]
        if draw is None:
            scaled = None
        else:
            lo, hi = np.searchsorted(keep, (start, start + count))
            carried, drawn = draw(start, count)
            noise[lo:hi] = drawn[keep[lo:hi] - start]
            if per_edge:  # the noise times the step, and a row E, off the edges, of 0
                scaled = np.zeros((count, edges + 1, dim))
                np.multiply(alphas[:, None, None], carried, out=scaled[:, :-1])
            else:
                scaled = alphas[:, None, None] * carried
            del carried, drawn  # no two blocks' noise is held at once: it bounds peak memory
        for r, (k, alpha) in enumerate(zip(range(start, start + count), alphas.tolist())):
            # a fresh gather of the messages, which the step consumes
            if scaled is None:  # adding zero noise only turns -0.0 into +0.0: same fuse
                msgs = x[senders]
            elif per_edge:
                msgs = x[senders]
                msgs += scaled[r][slot_edges]
            else:
                msgs = (x + scaled[r])[senders]
            x_next = dgd_step(stepped, weights, msgs, alpha, k)
            if k in keep_set:
                states_rec[row] = x
                row += 1
            x = x_next
        del scaled

    return ExecutionTrace(config=header, topology=topology, problem=problem, schedule=schedule,
                          weights=weights, init=initial, states=states_rec, final_states=x,
                          noise=noise, extras=extras or {})


def run_dgd(config: RunConfig) -> ExecutionTrace:
    """Distributed gradient descent: fuse neighbor states, descend along the
    local gradient, project."""
    return _execute(config)


def run_rss_nb(config: RunConfig) -> ExecutionTrace:
    """Network-balanced randomized state sharing: per-round pairwise shares
    build perturbations that cancel across the whole network."""
    topology, dim = config.build_topology(), config.build_problem().dim
    streams = RandomStreams(config.seed)

    def draw(first, count):
        shares = draw_nb_shares(topology, first, count, config.delta, streams, dim)
        return nb_perturbation(shares, topology), shares

    return _execute(config, draw)


def run_rss_lb(config: RunConfig) -> ExecutionTrace:
    """Locally balanced randomized state sharing: per-neighbor perturbations
    cancel under the fusion weights at each agent."""
    topology, dim = config.build_topology(), config.build_problem().dim
    streams = RandomStreams(config.seed)
    edge_weights = topology.fuse_slots.edge_weights(config.build_weights(topology).weights)

    def draw(first, count):
        perturbations = draw_lb_perturbation(topology, edge_weights, config.delta, first, count,
                                             streams, dim)
        return perturbations, perturbations

    return _execute(config, draw)


def run_fs(config: RunConfig) -> ExecutionTrace:
    """Function sharing: exchange polynomial noise functions once, obfuscate the
    local objectives, then run plain distributed gradient descent on them."""
    topology, problem = config.build_topology(), config.build_problem()
    streams = RandomStreams(config.seed)
    noise = draw_noise_functions(topology, config.delta_coeff, config.d_max, streams, problem.dim)
    box = problem.feasible
    obfuscated = GlobalProblem(objectives=obfuscate(problem.objectives, noise, topology),
                               feasible=box, validate_convexity=False)
    grad_bound, curv_bound = noise_gradient_bounds(noise, topology, box.lower, box.upper)
    base_l, base_n = problem.constants()
    extras = {"obf_grad_bound": base_l + grad_bound, "obf_smoothness_bound": base_n + curv_bound}
    return _execute(config, noise=noise, descended=obfuscated, extras=extras)
