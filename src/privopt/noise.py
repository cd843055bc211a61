"""Structured-randomization generators: pairwise network-balanced shares,
locally balanced per-neighbor perturbations, and polynomial noise functions.

All draws are reproducible. Each (purpose, agent) pair has one independent
stream under the master seed, and each stream yields one kind of variate, a
fixed number per round (the agent's degree times the variate width). The
values of round k are therefore a function of the seed, the purpose, the
agent, its degree, the dimension and k alone: changing one agent's draws does
not shift the others, and runs with different noise magnitudes stay
seed-paired. The round-addressed layout is the one of trace version 2.

Per-edge quantities (nb shares, lb perturbations, function-sharing noise) are
(E, ...) arrays whose row e belongs to directed edge e of
``Topology.sender_edges``.
"""

from __future__ import annotations

import numpy as np

from .graphs import FusionMatrix, Topology
from .polynomials import SeparablePolynomial, pad_coeffs

_PURPOSES = {"nb_direction": 1, "lb_raw": 2, "fs_coeff": 3, "alt_extra": 4, "nb_radius": 5}

# Variates of the round-addressed purposes: rng, shape -> array of that shape.
_VARIATES = {
    "nb_direction": lambda rng, shape: rng.standard_normal(shape),
    "nb_radius": lambda rng, shape: rng.random(shape),
    "lb_raw": lambda rng, shape: rng.uniform(-1.0, 1.0, shape),
}

# Rounds drawn per generator call. The values of a round do not depend on it.
ROUND_BLOCK = 32

# Noise-polynomial coefficients are snapped to this dyadic grid so that
# obfuscated coefficient sums stay exactly representable in float64; the
# privacy checker then inverts them with zero residual.
COEFF_GRID = 2.0 ** -26


class FsObjectiveError(TypeError):
    pass


def _check_bound(value: float, name: str) -> None:
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


class RandomStreams:
    """Independent generators per (purpose, agent) under one master seed.

    ``round_draws`` keeps one generator per agent for each round-addressed
    purpose and draws a block of rounds per call; a request for a round before
    the current block restarts those streams, so any round can be asked for
    in any order.
    """

    def __init__(self, master_seed: int):
        if master_seed < 0:
            raise ValueError("master seed must be non-negative")
        self.master_seed = int(master_seed)
        self._blocks: dict = {}

    def generator(self, purpose: str, agent: int, index: int = 0) -> np.random.Generator:
        """A fresh generator for one (purpose, agent, index) stream; ``index``
        separates further streams of one agent, such as one per receiver."""
        key = np.random.SeedSequence(
            entropy=(self.master_seed, _PURPOSES[purpose], int(agent), int(index))
        )
        return np.random.Generator(np.random.Philox(key))

    def round_draws(self, purpose: str, topology: Topology, width: int,
                    round_index: int) -> np.ndarray:
        """Round ``round_index``'s variates of every agent, shape (E, width):
        row e belongs to directed edge e of ``topology.sender_edges``. The
        result is a read-only view of the block buffer."""
        if round_index < 1:
            raise ValueError("rounds are 1-indexed")
        key = (purpose, topology, width)
        blocks = self._blocks.get(key)
        if blocks is None or round_index < blocks.first:
            generators = [self.generator(purpose, j) for j in range(topology.n)]
            blocks = self._blocks[key] = _RoundBlocks(generators, _VARIATES[purpose],
                                                      topology.sender_edges[0], width)
        return blocks.round(round_index)


class _RoundBlocks:
    """Forward-only buffer of one purpose's variates for consecutive rounds,
    drawn ROUND_BLOCK rounds per generator call."""

    def __init__(self, generators: list, variates, senders: np.ndarray, width: int):
        self.generators, self.variates = generators, variates
        self.bounds = np.searchsorted(senders, np.arange(len(generators) + 1))
        self.first = 1  # round held in row 0 of the buffer
        self.buffer = np.empty((0, senders.size, width))

    def round(self, k: int) -> np.ndarray:
        while k >= self.first + len(self.buffer):
            self.first += len(self.buffer)
            self.buffer = self._next_block()
        return self.buffer[k - self.first]

    def _next_block(self) -> np.ndarray:
        _, edges, width = self.buffer.shape
        block = np.empty((ROUND_BLOCK, edges, width))
        for j, rng in enumerate(self.generators):
            lo, hi = self.bounds[j], self.bounds[j + 1]
            block[:, lo:hi] = self.variates(rng, (ROUND_BLOCK, hi - lo, width))
        block.flags.writeable = False
        return block


def draw_nb_shares(topology: Topology, round_index: int, delta: float,
                   streams: RandomStreams, dim: int) -> np.ndarray:
    """One round's (E, dim) shares, drawn uniformly from the ball of radius
    delta/(2n); the first round and delta == 0 give all-zero shares.

    A share's direction comes from the sender's ``nb_direction`` stream and
    its radius from its ``nb_radius`` stream, so shares are linear in delta."""
    if round_index < 1:
        raise ValueError("rounds are 1-indexed")
    _check_bound(delta, "delta")
    if round_index == 1 or delta == 0.0:
        return np.zeros((topology.sender_edges[0].size, dim))
    direction = streams.round_draws("nb_direction", topology, dim, round_index)
    uniform = streams.round_draws("nb_radius", topology, 1, round_index)
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    unit_ball = direction / norms * uniform ** (1.0 / dim)
    return unit_ball * (delta / (2.0 * topology.n))


def nb_perturbation(shares: np.ndarray, topology: Topology) -> np.ndarray:
    """Antisymmetric aggregation of (E, D) shares: received shares minus sent
    shares, per agent. The network sum cancels pairwise and is zero up to
    rounding."""
    senders, receivers = topology.sender_edges
    if shares.ndim != 2 or shares.shape[0] != senders.size:
        raise ValueError(f"shares have shape {shares.shape}, expected ({senders.size}, D) "
                         f"for the topology's directed edges")
    received = np.zeros((topology.n, shares.shape[1]))
    sent = np.zeros((topology.n, shares.shape[1]))
    np.add.at(received, receivers, shares)
    np.add.at(sent, senders, shares)
    return received - sent


def draw_lb_perturbation(topology: Topology, weights: FusionMatrix, delta: float,
                         round_index: int, streams: RandomStreams, dim: int) -> np.ndarray:
    """Per-neighbor perturbations d[j, i], one (E, dim) row per directed edge
    (j, i), that cancel under the fusion weights: sum_i B[i, j] d[j, i] = 0,
    with every norm at most delta.

    Raw draws are uniform on [-1, 1]^D per non-self neighbor, recentred by the
    weighted mean under this round's weights so the constraint holds exactly,
    then each agent's family is shrunk by min(1, delta / max norm) (factor 1
    when every deviation is zero). An agent sends its own state unperturbed.
    """
    _check_bound(delta, "delta")
    senders = topology.sender_edges[0]
    if delta == 0.0:
        return np.zeros((senders.size, dim))
    counts = np.bincount(senders, minlength=topology.n)
    if not counts.all():
        j = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(f"agent {j} has no non-self neighbor; locally balanced noise undefined")
    starts = np.cumsum(counts) - counts
    raw = streams.round_draws("lb_raw", topology, dim, round_index)
    wts = topology.fuse_slots.edge_weights(weights.weights)
    centre = (np.add.reduceat(wts[:, None] * raw, starts, axis=0)
              / np.add.reduceat(wts, starts)[:, None])
    dev = raw - centre[senders]
    max_norm = np.maximum.reduceat(np.linalg.norm(dev, axis=1), starts)
    factor = delta / np.maximum(max_norm, delta)
    return dev * factor[senders, None]


def draw_noise_functions(topology: Topology, delta_coeff: float, d_max: int,
                         streams: RandomStreams, dim: int = 1) -> np.ndarray:
    """One noise polynomial per directed edge, as an (E, dim, d_max + 1)
    array whose row e belongs to directed edge e of ``Topology.sender_edges``.
    Coefficients are uniform in [-delta_coeff, delta_coeff], snapped to a
    dyadic grid, and drawn from the sender's stream, receiver by receiver."""
    if d_max < 0:
        raise ValueError("d_max must be non-negative")
    _check_bound(delta_coeff, "delta_coeff")
    noise = np.zeros((topology.sender_edges[0].size, dim, d_max + 1))
    row = 0
    for j in range(topology.n):
        rng = streams.generator("fs_coeff", j, 0)
        for i in topology.neighbors(j):
            if i == j:
                continue
            if delta_coeff != 0.0:
                raw = rng.uniform(-delta_coeff, delta_coeff, size=(dim, d_max + 1))
                noise[row] = np.clip(np.round(raw / COEFF_GRID) * COEFF_GRID,
                                     -delta_coeff, delta_coeff)
            row += 1
    return noise


def noise_offsets(noise: np.ndarray, topology: Topology) -> np.ndarray:
    """(n, ...) per-agent offsets of (E, ...) edge noise: the rows an agent
    receives minus the rows it sends, each added in edge order from zero.
    Their network sum is identically zero. Exact on the integer arrays of
    ``privacy``."""
    senders, receivers = topology.sender_edges
    offsets = np.zeros((topology.n,) + noise.shape[1:], dtype=noise.dtype)
    np.add.at(offsets, receivers, noise)
    np.subtract.at(offsets, senders, noise)
    return offsets


def obfuscate(objectives: list, noise: np.ndarray, topology: Topology) -> list:
    """Obfuscated objectives: each local polynomial plus its zero-sum offset
    of the (E, D, W) edge noise, padded to a common width. Requires a
    polynomial objective family."""
    from .objectives import PolynomialObjective

    if len(objectives) != topology.n:
        raise ValueError("one objective per agent is required")
    for obj in objectives:
        if not isinstance(obj, PolynomialObjective):
            raise FsObjectiveError("function sharing requires polynomial local objectives")
    width = max([obj.poly.width for obj in objectives] + [noise.shape[-1]])
    offsets = noise_offsets(pad_coeffs(noise, width), topology)
    return [PolynomialObjective(pad_coeffs(obj.poly.coeffs, width) + off, enforce_convex=False)
            for obj, off in zip(objectives, offsets)]


def noise_gradient_bounds(noise: np.ndarray, topology: Topology,
                          lower, upper) -> tuple[float, float]:
    """Largest gradient sup-norm and curvature sup over all per-agent offsets
    of (E, D, W) edge noise, bounded by summing, in edge order, the bounds of
    the functions an agent sends or receives; used for the obfuscated
    gradient constants."""
    polys = [SeparablePolynomial(coeffs) for coeffs in noise]
    ends = np.stack(topology.sender_edges, axis=1).ravel()  # sender, receiver of each edge

    def largest_agent_sum(per_edge: list) -> float:
        per_agent = np.zeros(topology.n)
        np.add.at(per_agent, ends, np.repeat(per_edge, 2))
        return float(per_agent.max())

    return (largest_agent_sum([p.gradient_sup_norm(lower, upper) for p in polys]),
            largest_agent_sum([p.curvature_sup(lower, upper) for p in polys]))
