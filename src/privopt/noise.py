"""Structured-randomization generators: pairwise network-balanced shares,
locally balanced per-neighbor perturbations, and polynomial noise functions.

All draws are reproducible. Each (purpose, agent) pair has one independent
stream under the master seed, and each stream yields one kind of variate, a
fixed number per round (the agent's degree times the variate width). The
values of round k are therefore a function of the seed, the purpose, the
agent, its degree, the dimension and k alone: changing one agent's draws does
not shift the others, and runs with different noise magnitudes stay
seed-paired. The round-addressed layout is the one of trace version 2.

The rss draws take a block of consecutive rounds (``first``, ``count``) and
return arrays with a leading round axis, drawn with one generator call per
agent and purpose and shaped in one array pass. Every operation is
elementwise, along the last axis, or a sum or maximum over one round's edges
in an order that the leading axis does not change, so row r of a block is bit
for bit what a block of the single round first + r gives, and how a run is
cut into blocks changes no value.

Per-edge quantities (nb shares, lb perturbations, function-sharing noise) are
(E, ...) arrays whose row e belongs to directed edge e of
``Topology.sender_edges``.
"""

from __future__ import annotations

import numpy as np

from .graphs import Topology
from .objectives import PolynomialObjective
from .polynomials import derivative_sups, pad_coeffs

_PURPOSES = {"nb_direction": 1, "lb_raw": 2, "fs_coeff": 3, "alt_extra": 4, "nb_radius": 5}

# Round-addressed purposes: the generator method that fills a float64 buffer
# with the purpose's variates. lb_raw is uniform on [-1, 1) as -1 + 2 * random(),
# which is how numpy's ``uniform(-1.0, 1.0)`` computes it, bit for bit.
_FILLS = {
    "nb_direction": np.random.Generator.standard_normal,
    "nb_radius": np.random.Generator.random,
    "lb_raw": np.random.Generator.random,
}

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

    ``rounds`` keeps one generator per agent for each round-addressed purpose
    and draws a whole block of rounds with one call per agent. A request for
    a round before the streams' position restarts them, and rounds skipped
    over are drawn and dropped, so any block can be asked for in any order.
    """

    def __init__(self, master_seed: int):
        if master_seed < 0:
            raise ValueError("master seed must be non-negative")
        self.master_seed = int(master_seed)
        self._streams: dict = {}  # (purpose, topology, width) -> (generators, next round)

    def generator(self, purpose: str, agent: int, index: int = 0) -> np.random.Generator:
        """A fresh generator for one (purpose, agent, index) stream; ``index``
        separates further streams of one agent, such as one per receiver."""
        key = np.random.SeedSequence(
            entropy=(self.master_seed, _PURPOSES[purpose], int(agent), int(index))
        )
        return np.random.Generator(np.random.Philox(key))

    def rounds(self, purpose: str, topology: Topology, width: int,
               first: int, count: int) -> np.ndarray:
        """Rounds first .. first + count - 1 of a round-addressed purpose's
        variates, shape (count, E, width): entry [r, e] belongs to round
        first + r and directed edge e of ``topology.sender_edges``."""
        _check_rounds(first, count)
        key = (purpose, topology, width)
        generators, position = self._streams.get(key, (None, None))
        if generators is None or first < position:
            generators = [self.generator(purpose, j) for j in range(topology.n)]
            position = 1
        senders = topology.sender_edges[0]
        bounds = np.searchsorted(senders, np.arange(topology.n + 1))
        degrees = np.diff(bounds)
        # agent j's (count, degree, width) draws fill flat[starts[j]:starts[j + 1]]
        starts = count * width * bounds
        flat = np.empty(starts[-1])
        fill, skip = _FILLS[purpose], first - position
        for rng, lo, hi, degree in zip(generators, starts.tolist(), starts[1:].tolist(),
                                       degrees.tolist()):
            if skip:
                fill(rng, out=np.empty(skip * degree * width))
            fill(rng, out=flat[lo:hi])
        self._streams[key] = (generators, first + count)
        # round r of edge e is row r * degree + e - bounds[j] of its sender j's
        # draws, which start at row count * bounds[j] of flat
        own = bounds[senders]
        rows = np.arange(count)[:, None] * degrees[senders] + (np.arange(senders.size)
                                                               + (count - 1) * own)
        return flat.reshape(-1, width)[rows]


def _check_rounds(first: int, count: int) -> None:
    if first < 1:
        raise ValueError("rounds are 1-indexed")
    if count < 1:
        raise ValueError(f"a block holds at least one round, got {count}")


def draw_nb_shares(topology: Topology, first: int, count: int, delta: float,
                   streams: RandomStreams, dim: int) -> np.ndarray:
    """The (count, E, dim) shares of rounds first .. first + count - 1, drawn
    uniformly from the ball of radius delta/(2n); round 1 and delta == 0 give
    all-zero shares.

    A share's direction comes from the sender's ``nb_direction`` stream and
    its radius from its ``nb_radius`` stream, so shares are linear in delta."""
    _check_rounds(first, count)
    _check_bound(delta, "delta")
    if delta == 0.0:
        return np.zeros((count, topology.sender_edges[0].size, dim))
    shares = streams.rounds("nb_direction", topology, dim, first, count)
    norms = np.linalg.norm(shares, axis=-1, keepdims=True)
    norms[norms == 0.0] = 1.0
    shares /= norms  # a unit direction, then a point of the unit ball, then scaled
    shares *= streams.rounds("nb_radius", topology, 1, first, count) ** (1.0 / dim)
    shares *= delta / (2.0 * topology.n)
    if first == 1:
        shares[0] = 0.0
    return shares


def nb_perturbation(shares: np.ndarray, topology: Topology) -> np.ndarray:
    """Antisymmetric aggregation of (count, E, D) shares: received shares
    minus sent shares, per round and agent, each sum taken in edge order from
    zero. The network sum cancels pairwise and is zero up to rounding."""
    senders, receivers = topology.sender_edges
    if shares.ndim != 3 or shares.shape[1] != senders.size:
        raise ValueError(f"shares have shape {shares.shape}, expected (count, {senders.size}, D) "
                         f"for the topology's directed edges")
    count, _, dim = shares.shape
    rounds = np.arange(count)[:, None] * topology.n

    def per_agent(ends: np.ndarray) -> np.ndarray:
        # bincount adds its weights in index order from zero, as np.add.at does
        index = (rounds + ends).ravel()
        sums = [np.bincount(index, shares[..., d].ravel(), minlength=count * topology.n)
                for d in range(dim)]
        return np.stack(sums, axis=-1).reshape(count, topology.n, dim)

    return per_agent(receivers) - per_agent(senders)


def draw_lb_perturbation(topology: Topology, edge_weights: np.ndarray, delta: float,
                         first: int, count: int, streams: RandomStreams,
                         dim: int) -> np.ndarray:
    """Per-neighbor perturbations d[j, i] of rounds first .. first + count - 1,
    a (count, E, dim) array with one row per directed edge (j, i), that cancel
    under the fusion weights: sum_i B[i, j] d[j, i] = 0, with every norm at
    most delta. ``edge_weights`` holds the run's weights B[i, j] on the
    edges, (E,) from ``FuseSlots.edge_weights``.

    Raw draws are uniform on [-1, 1]^D per non-self neighbor, recentred by the
    weighted mean under the fusion weights so the constraint holds exactly,
    then each agent's family is shrunk by min(1, delta / max norm) (factor 1
    when every deviation is zero). An agent sends its own state unperturbed.
    """
    _check_rounds(first, count)
    _check_bound(delta, "delta")
    senders = topology.sender_edges[0]
    if edge_weights.shape != senders.shape:
        raise ValueError(f"edge weights have shape {edge_weights.shape}, expected "
                         f"({senders.size},)")
    if delta == 0.0:
        return np.zeros((count, senders.size, dim))
    counts = np.bincount(senders, minlength=topology.n)
    if not counts.all():
        j = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(f"agent {j} has no non-self neighbor; locally balanced noise undefined")
    starts = np.cumsum(counts) - counts
    dev = -1.0 + 2.0 * streams.rounds("lb_raw", topology, dim, first, count)  # raw draws
    centre = (np.add.reduceat(edge_weights[:, None] * dev, starts, axis=1)
              / np.add.reduceat(edge_weights, starts)[:, None])
    dev -= centre[:, senders]
    max_norm = np.maximum.reduceat(np.linalg.norm(dev, axis=-1), starts, axis=1)
    factor = delta / np.maximum(max_norm, delta)
    dev *= factor[:, senders, None]
    return dev


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
    if len(objectives) != topology.n:
        raise ValueError("one objective per agent is required")
    for obj in objectives:
        if not isinstance(obj, PolynomialObjective):
            raise FsObjectiveError("function sharing requires polynomial local objectives")
        if obj.dim != noise.shape[1]:
            raise ValueError(f"objectives of dimension {obj.dim}, noise of dimension {noise.shape[1]}")
    width = max([obj.poly.width for obj in objectives] + [noise.shape[-1]])
    offsets = noise_offsets(pad_coeffs(noise, width), topology)
    return [PolynomialObjective(pad_coeffs(obj.poly.coeffs, width) + off)
            for obj, off in zip(objectives, offsets)]


def noise_gradient_bounds(noise: np.ndarray, topology: Topology,
                          lower, upper) -> tuple[float, float]:
    """Largest gradient sup-norm and curvature sup over all per-agent offsets
    of (E, D, W) edge noise, bounded by summing, in edge order, the bounds of
    the functions an agent sends or receives (one ``derivative_sups`` call
    for all edges); used for the obfuscated gradient constants."""
    ends = np.stack(topology.sender_edges, axis=1).ravel()  # sender, receiver of each edge

    def largest_agent_sum(per_edge: np.ndarray) -> float:
        per_agent = np.zeros(topology.n)
        np.add.at(per_agent, ends, np.repeat(per_edge, 2))
        return float(per_agent.max())

    return tuple(map(largest_agent_sum, derivative_sups(noise, lower, upper)))
