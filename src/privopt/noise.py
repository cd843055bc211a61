"""Structured-randomization generators: pairwise network-balanced shares,
locally balanced per-neighbor perturbations, and polynomial noise functions.

All draws are reproducible. Each (purpose, agent) pair has one independent
stream under the master seed, and each stream yields one kind of variate, a
fixed number per round (the agent's degree times the variate width). The
values of round k are therefore a function of the seed, the purpose, the
agent, its degree, the dimension and k alone: changing one agent's draws does
not shift the others, and runs with different noise magnitudes stay
seed-paired. The round-addressed layout is the one of trace version 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import FusionMatrix, Topology
from .polynomials import SeparablePolynomial

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


class MissingShareError(ValueError):
    pass


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


@dataclass
class ShareTable:
    """Pairwise shares for one round; entry [j, i] is the vector agent j sent to i."""

    round_index: int
    delta: float
    table: np.ndarray  # (n, n, D); zero outside directed edges
    mask: np.ndarray   # (n, n) bool, True on directed edges (no self entries)

    @property
    def n(self) -> int:
        return self.table.shape[0]

    @property
    def dim(self) -> int:
        return self.table.shape[2]

    @classmethod
    def from_pairs(cls, topology: Topology, dim: int, pairs: dict,
                   round_index: int = 1, delta: float = 0.0) -> "ShareTable":
        """Build a table from an explicit {(sender, receiver): vector} map.
        Every directed edge must be present."""
        n = topology.n
        mask = topology.adjacency()
        table = np.zeros((n, n, dim))
        for j in range(n):
            for i in range(n):
                if not mask[j, i]:
                    continue
                if (j, i) not in pairs:
                    raise MissingShareError(f"missing share for directed edge ({j}, {i})")
                table[j, i] = np.asarray(pairs[(j, i)], dtype=float)
        return cls(round_index=round_index, delta=delta, table=table, mask=mask)


def draw_nb_shares(topology: Topology, round_index: int, delta: float,
                   streams: RandomStreams, dim: int) -> ShareTable:
    """Shares drawn uniformly from the ball of radius delta/(2n); the first
    round and delta == 0 give all-zero shares.

    A share's direction comes from the sender's ``nb_direction`` stream and
    its radius from its ``nb_radius`` stream, so shares are linear in delta."""
    if round_index < 1:
        raise ValueError("rounds are 1-indexed")
    _check_bound(delta, "delta")
    n = topology.n
    mask = topology.adjacency()
    table = np.zeros((n, n, dim))
    if round_index > 1 and delta > 0.0:
        senders, receivers = topology.sender_edges
        direction = streams.round_draws("nb_direction", topology, dim, round_index)
        uniform = streams.round_draws("nb_radius", topology, 1, round_index)
        norms = np.linalg.norm(direction, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        unit_ball = direction / norms * uniform ** (1.0 / dim)
        table[senders, receivers] = unit_ball * (delta / (2.0 * n))
    return ShareTable(round_index=round_index, delta=delta, table=table, mask=mask)


def nb_perturbation(shares: ShareTable, topology: Topology) -> np.ndarray:
    """Antisymmetric aggregation: received shares minus sent shares, per agent.
    The network sum cancels pairwise and is zero up to rounding."""
    if shares.n != topology.n:
        raise MissingShareError("share table size does not match the topology")
    expected = topology.adjacency()
    if not np.array_equal(shares.mask, expected):
        raise MissingShareError("share table support does not match the topology")
    senders, receivers = topology.sender_edges
    values = shares.table[senders, receivers]
    received = np.zeros((shares.n, shares.dim))
    sent = np.zeros((shares.n, shares.dim))
    np.add.at(received, receivers, values)
    np.add.at(sent, senders, values)
    return received - sent


def draw_lb_perturbation(topology: Topology, weights: FusionMatrix, delta: float,
                         round_index: int, streams: RandomStreams, dim: int) -> np.ndarray:
    """Per-neighbor perturbations d[j, i] that cancel under the fusion weights:
    sum_i B[i, j] d[j, i] = 0, with every norm at most delta.

    Raw draws are uniform on [-1, 1]^D per non-self neighbor, recentred by the
    weighted mean under this round's weights so the constraint holds exactly,
    then each agent's family is shrunk by min(1, delta / max norm) (factor 1
    when every deviation is zero). The self entry d[j, j] is zero.
    """
    _check_bound(delta, "delta")
    n = topology.n
    out = np.zeros((n, n, dim))
    if delta == 0.0:
        return out
    senders, receivers = topology.sender_edges
    counts = np.bincount(senders, minlength=n)
    if not counts.all():
        j = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(f"agent {j} has no non-self neighbor; locally balanced noise undefined")
    starts = np.cumsum(counts) - counts
    raw = streams.round_draws("lb_raw", topology, dim, round_index)
    wts = weights.entries[receivers, senders]
    centre = (np.add.reduceat(wts[:, None] * raw, starts, axis=0)
              / np.add.reduceat(wts, starts)[:, None])
    dev = raw - centre[senders]
    max_norm = np.maximum.reduceat(np.linalg.norm(dev, axis=1), starts)
    factor = delta / np.maximum(max_norm, delta)
    out[senders, receivers] = dev * factor[senders, None]
    return out


def draw_noise_functions(topology: Topology, delta_coeff: float, d_max: int,
                         streams: RandomStreams, dim: int = 1) -> dict:
    """One noise polynomial per directed edge, with coefficients uniform in
    [-delta_coeff, delta_coeff] snapped to a dyadic grid, degree at most d_max."""
    if d_max < 0:
        raise ValueError("d_max must be non-negative")
    _check_bound(delta_coeff, "delta_coeff")
    out = {}
    for j in range(topology.n):
        receivers = [i for i in topology.neighbors(j) if i != j]
        rng = streams.generator("fs_coeff", j, 0)
        for i in receivers:
            if delta_coeff == 0.0:
                coeffs = np.zeros((dim, d_max + 1))
            else:
                raw = rng.uniform(-delta_coeff, delta_coeff, size=(dim, d_max + 1))
                coeffs = np.clip(np.round(raw / COEFF_GRID) * COEFF_GRID,
                                 -delta_coeff, delta_coeff)
            out[(j, i)] = SeparablePolynomial(coeffs)
    return out


def noise_offsets(noise_functions: dict, topology: Topology, width: int) -> list:
    """Per-agent noise polynomial: received functions minus sent functions.
    Their network sum is identically zero."""
    offsets = []
    for j in range(topology.n):
        acc = SeparablePolynomial.zero(next(iter(noise_functions.values())).dim
                                       if noise_functions else 1, width)
        for i in topology.neighbors(j):
            if i == j:
                continue
            acc = acc + noise_functions[(i, j)].padded(width)
        for i in topology.neighbors(j):
            if i == j:
                continue
            acc = acc - noise_functions[(j, i)].padded(width)
        offsets.append(acc)
    return offsets


def obfuscate(objectives: list, noise_functions: dict, topology: Topology) -> list:
    """Obfuscated objectives: each local polynomial plus its zero-sum noise
    offset, padded to a common width. Requires a polynomial objective family."""
    from .objectives import PolynomialObjective

    if len(objectives) != topology.n:
        raise ValueError("one objective per agent is required")
    for obj in objectives:
        if not isinstance(obj, PolynomialObjective):
            raise FsObjectiveError("function sharing requires polynomial local objectives")
    width = max([obj.poly.width for obj in objectives]
                + [p.width for p in noise_functions.values()] + [1])
    offsets = noise_offsets(noise_functions, topology, width) if noise_functions else \
        [SeparablePolynomial.zero(objectives[0].dim, width) for _ in objectives]
    obfuscated = []
    for obj, off in zip(objectives, offsets):
        coeffs = obj.poly.padded(width).coeffs + off.coeffs
        obfuscated.append(PolynomialObjective(coeffs, enforce_convex=False))
    return obfuscated


def noise_gradient_bounds(noise_functions: dict, lower, upper) -> tuple[float, float]:
    """Largest gradient sup-norm and curvature sup over all per-agent noise
    offsets is bounded by summing per-function bounds; used for the obfuscated
    gradient constants."""
    grad = 0.0
    curv = 0.0
    by_agent: dict[int, list] = {}
    for (j, i), poly in noise_functions.items():
        by_agent.setdefault(j, []).append(poly)
        by_agent.setdefault(i, []).append(poly)
    for polys in by_agent.values():
        grad = max(grad, sum(p.gradient_sup_norm(lower, upper) for p in polys))
        curv = max(curv, sum(p.curvature_sup(lower, upper) for p in polys))
    return grad, curv
