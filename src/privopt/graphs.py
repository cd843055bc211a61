"""Network topology, doubly stochastic fusion weights, connectivity and spanning trees.

Agents are indexed 0..n-1. Undirected edges are canonical (u, v) tuples with
u < v. Neighborhoods are self-inclusive; degrees are self-exclusive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GraphError(ValueError):
    pass


class DisconnectedError(GraphError):
    pass


def canonical_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Topology:
    """Connected undirected graph of agents."""

    n: int
    edges: frozenset  # of canonical (u, v) tuples

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("agent count must be at least 1")
        for (u, v) in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={self.n}")
            if u == v:
                raise GraphError(f"self-loop on agent {u}")
            if u > v:
                raise GraphError(f"edge ({u}, {v}) not in canonical order")
        if len(components(self)) != 1:
            raise DisconnectedError("topology is not connected")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Topology":
        canon = frozenset(canonical_edge(int(u), int(v)) for (u, v) in edges)
        return cls(n=n, edges=canon)

    @classmethod
    def family(cls, name: str, n: int) -> "Topology":
        """Named families: cycle, complete, star, path, petersen."""
        name = name.lower()
        if name == "cycle":
            if n < 3:
                raise GraphError("cycle needs n >= 3")
            edges = [(i, (i + 1) % n) for i in range(n)]
        elif name == "complete":
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        elif name == "star":
            if n < 2:
                raise GraphError("star needs n >= 2")
            edges = [(0, i) for i in range(1, n)]
        elif name == "path":
            if n < 2:
                raise GraphError("path needs n >= 2")
            edges = [(i, i + 1) for i in range(n - 1)]
        elif name == "petersen":
            if n != 10:
                raise GraphError("petersen graph has exactly 10 vertices")
            edges = [(i, (i + 1) % 5) for i in range(5)]
            edges += [(i, i + 5) for i in range(5)]
            edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        else:
            raise GraphError(f"unknown topology family: {name!r}")
        return cls.from_edges(n, edges)

    @cached_property
    def _neighbor_table(self) -> tuple[tuple[int, ...], ...]:
        table = [{j} for j in range(self.n)]
        for (u, v) in self.edges:
            table[u].add(v)
            table[v].add(u)
        return tuple(tuple(sorted(hood)) for hood in table)

    def neighbors(self, j: int) -> tuple[int, ...]:
        """Self-inclusive neighborhood of agent j, ascending."""
        return self._neighbor_table[j]

    def degree(self, j: int) -> int:
        """Self-exclusive degree."""
        return len(self.neighbors(j)) - 1

    def degrees(self) -> np.ndarray:
        """Self-exclusive degree of every agent."""
        return np.bincount(self.sender_edges[0], minlength=self.n)

    @cached_property
    def sender_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Directed edges as read-only (sender, receiver) index arrays, sorted
        by sender and then receiver, so each sender's edges are contiguous."""
        ends = np.array(list(self.edges), dtype=np.intp).reshape(-1, 2)
        src = np.concatenate([ends[:, 0], ends[:, 1]])
        dst = np.concatenate([ends[:, 1], ends[:, 0]])
        order = np.lexsort((dst, src))
        senders, receivers = src[order], dst[order]
        senders.flags.writeable = False
        receivers.flags.writeable = False
        return senders, receivers

    @cached_property
    def fuse_slots(self) -> "FuseSlots":
        """Each agent's self-inclusive in-neighbours as fusion slots; built
        once from ``sender_edges`` and read-only."""
        senders, receivers = self.sender_edges
        n, count = self.n, senders.size
        agents = np.arange(n)
        src = np.concatenate([senders, agents])
        dst = np.concatenate([receivers, agents])
        edge = np.concatenate([np.arange(count), np.full(n, count)])
        order = np.lexsort((src, dst))  # by receiver, then ascending sender
        src, dst, edge = src[order], dst[order], edge[order]
        sizes = np.bincount(dst, minlength=n)
        slot = np.arange(dst.size) - (np.cumsum(sizes) - sizes)[dst]
        shape = (int(sizes.max()), n)
        table = FuseSlots(senders=np.broadcast_to(agents, shape).copy(),
                          edges=np.full(shape, count), live=np.zeros(shape, dtype=bool),
                          edge_slots=np.empty(count, dtype=np.intp))
        table.senders[slot, dst] = src
        table.edges[slot, dst] = edge
        table.live[slot, dst] = True
        on_edge = edge < count
        table.edge_slots[edge[on_edge]] = (slot * n + dst)[on_edge]
        for array in (table.senders, table.edges, table.live, table.edge_slots):
            array.flags.writeable = False
        return table

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2

    def to_spec(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in sorted(self.edges)]}

    @classmethod
    def from_spec(cls, spec: dict) -> "Topology":
        n = spec["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise GraphError(f"topology n must be an integer, got {n!r}")
        if "family" in spec:
            return cls.family(spec["family"], n)
        return cls.from_edges(n, spec["edges"])


@dataclass(frozen=True)
class FuseSlots:
    """Slot table of a fusion round, slot-major with K = max degree + 1 slots.

    Column j lists agent j's self-inclusive in-neighbours in ascending order,
    padded with j itself: ``senders[k, j]`` is the agent in slot k,
    ``edges[k, j]`` its row in ``Topology.sender_edges`` (E, one past the last
    edge, for the self slot and the pads) and ``live[k, j]`` is False on the
    pads. ``edge_slots[e]`` is the flat (K * n) index of the slot that holds
    directed edge e.
    """

    senders: np.ndarray     # (K, n) agent indices
    edges: np.ndarray       # (K, n) directed-edge rows, E off the edges
    live: np.ndarray        # (K, n) bool
    edge_slots: np.ndarray  # (E,) flat slot of each directed edge

    def edge_weights(self, weights: np.ndarray) -> np.ndarray:
        """(E,) weight that the receiver of each directed edge (j, i) gives
        it, B[i, j], in ``Topology.sender_edges`` order, of (K, n) slot
        weights."""
        return weights.ravel()[self.edge_slots]

    def column_sums(self, weights: np.ndarray) -> np.ndarray:
        """(n,) column sums of the matrix that (K, n) slot weights hold:
        each agent's weight summed over the slots it sends in."""
        return np.bincount(self.senders.ravel(), weights.ravel(), minlength=self.senders.shape[1])

    def entries(self, weights: np.ndarray) -> np.ndarray:
        """(n, n) matrix B of (K, n) slot weights, with
        B[j, senders[k, j]] = weights[k, j]: only the live slots are
        scattered, since a pad points at its agent's own column."""
        slot, agent = np.nonzero(self.live)
        entries = np.zeros((self.senders.shape[1],) * 2)
        entries[agent, self.senders[slot, agent]] = weights[slot, agent]
        return entries


@dataclass(frozen=True, eq=False)
class FusionMatrix:
    """Doubly stochastic fusion weights on the self-inclusive neighbourhoods
    of a topology, held per fusion slot: ``weights[k, j]`` is the weight agent
    j gives the sender in its slot k of ``topology.fuse_slots``, +0.0 on the
    pads.

    Checked once, when built, and held as a read-only copy: GraphError for a
    shape other than the topology's slots, a nonzero pad weight, a weight
    outside [0, 1], or a row or column sum more than 1e-12 away from 1."""

    topology: Topology
    weights: np.ndarray  # (K, n)

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float)
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        slots = self.topology.fuse_slots
        tol = 1e-12
        if weights.shape != slots.senders.shape:
            raise GraphError(f"fusion weights have shape {weights.shape}, expected "
                             f"{slots.senders.shape} slots")
        if np.any(weights[~slots.live]):
            raise GraphError("nonzero weight in a pad slot, off the self-inclusive "
                             "neighbourhoods")
        if not np.all((weights >= -tol) & (weights <= 1 + tol)):
            raise GraphError("fusion entries must lie in [0, 1]")
        if np.max(np.abs(weights.sum(axis=0) - 1.0)) > tol:
            raise GraphError("rows must sum to 1")
        if np.max(np.abs(slots.column_sums(weights) - 1.0)) > tol:
            raise GraphError("columns must sum to 1")

    @property
    def rho(self) -> float:
        """The smallest positive weight."""
        return float(self.weights[self.weights > 0].min())

    @classmethod
    def from_entries(cls, entries, topology: Topology) -> "FusionMatrix":
        """Fusion weights of a dense (n, n) matrix B, where B[j, i] is the
        weight agent j gives agent i. Raises GraphError for another shape or
        a nonzero entry off the self-inclusive neighbourhoods, which the slots
        cannot hold, and as the constructor does."""
        entries = np.asarray(entries, dtype=float)
        n, slots = topology.n, topology.fuse_slots
        if entries.shape != (n, n):
            raise GraphError(f"fusion matrix has shape {entries.shape}, expected ({n}, {n})")
        weights = np.where(slots.live, entries[np.arange(n), slots.senders], 0.0)
        if np.count_nonzero(entries) != np.count_nonzero(weights):
            raise GraphError("fusion matrix has a nonzero entry off the self-inclusive "
                             "neighbourhoods")
        return cls(topology, weights)


def metropolis_weights(topology: Topology, self_inclusive_degree: bool = False) -> FusionMatrix:
    """Symmetric doubly stochastic weights from local degrees.

    Off-diagonal weight for adjacent i, j is 1/(1 + max(d_i, d_j)) with the
    self-exclusive degree by default; ``self_inclusive_degree=True`` counts the
    agent itself, giving 1/(2 + max(d_i, d_j)). The self weight absorbs the
    remainder: 1 minus the agent's other weights, summed in ascending sender
    order as the fuse sums.
    """
    slots = topology.fuse_slots
    senders, receivers = topology.sender_edges
    deg = topology.degrees().astype(float)
    if self_inclusive_degree:
        deg = deg + 1.0
    weights = np.zeros(slots.senders.shape)
    weights.flat[slots.edge_slots] = 1.0 / (1.0 + np.maximum(deg[senders], deg[receivers]))
    slot, agent = np.nonzero(slots.live & (slots.edges == senders.size))
    weights[slot, agent] = 1.0 - np.add.reduce(weights, axis=0, initial=0.0)[agent]
    return FusionMatrix(topology, weights)


def components(topology: Topology, excluded=()) -> list[list[int]]:
    """Connected components of the graph induced on the agents outside
    ``excluded``, each sorted, in order of their smallest agent."""
    seen = set(int(a) for a in excluded)
    out = []
    for start in range(topology.n):
        if start in seen:
            continue
        seen.add(start)
        comp, stack = [start], [start]
        while stack:
            for w in topology._neighbor_table[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        out.append(sorted(comp))
    return out


def _max_flow_unit_vertex(topology: Topology, source: int, sink: int) -> int:
    """Vertex-capacity max-flow between non-adjacent source and sink.

    Standard node splitting: vertex v becomes v_in -> v_out with capacity 1
    (n, unbounded for a flow of at most n - 2, at the terminals); every
    undirected edge contributes unbounded arcs out_u -> in_v and out_v -> in_u.
    Residual capacities are held per arc in adjacency dicts; BFS augmentation
    adds one unit per path.
    """
    n = topology.n
    # v_in = v, v_out = v + n; every arc is paired with a reverse arc
    cap = ([{v + n: n if v in (source, sink) else 1} for v in range(n)]
           + [{v: 0} for v in range(n)])
    for (u, v) in topology.edges:
        cap[u + n][v] = cap[v + n][u] = n
        cap[v][u + n] = cap[u][v + n] = 0
    s, t = source + n, sink
    flow = 0
    while True:
        parent = {s: s}
        queue = deque([s])
        while queue and t not in parent:
            cur = queue.popleft()
            for nxt, c in cap[cur].items():
                if c > 0 and nxt not in parent:
                    parent[nxt] = cur
                    queue.append(nxt)
        if t not in parent:
            return flow
        node = t
        while node != s:
            prev = parent[node]
            cap[prev][node] -= 1
            cap[node][prev] += 1
            node = prev
        flow += 1


def vertex_connectivity(topology: Topology) -> int:
    """Minimum number of vertex deletions that disconnect the graph (n-1 for
    complete graphs), via unit-vertex-capacity max-flow over non-adjacent pairs.

    Sources are bounded as in Even's algorithm: a minimum cut C leaves some
    agent s <= |C| outside it, and every agent in another component of the
    graph without C has a larger index than s. So the sources stop once their
    index exceeds the smallest cut found."""
    n = topology.n
    if n == 1:
        return 0
    if topology.is_complete():
        return n - 1
    best = n - 1
    s = 0
    while s <= best:
        for t in range(s + 1, n):
            if (s, t) not in topology.edges:
                best = min(best, _max_flow_unit_vertex(topology, s, t))
        s += 1
    return best


def spanning_tree_split(topology: Topology, excluded=()) -> tuple[tuple, tuple]:
    """Deterministically split the edges induced on agents outside ``excluded``
    into a spanning tree and the remaining extra edges.

    Breadth-first from the lowest-index retained agent, visiting neighbors in
    ascending order, so the result is reproducible bit-for-bit. Raises
    DisconnectedError when the induced subgraph is disconnected (the privacy
    precondition fails).
    """
    excluded = set(int(a) for a in excluded)
    good = [v for v in range(topology.n) if v not in excluded]
    if not good:
        raise GraphError("no agents remain after exclusion")
    seen, queue, tree = {good[0]}, deque([good[0]]), []
    while queue:
        u = queue.popleft()
        for w in topology._neighbor_table[u]:
            if w not in seen and w not in excluded:
                seen.add(w)
                tree.append(canonical_edge(u, w))
                queue.append(w)
    if len(seen) != len(good):
        raise DisconnectedError(
            "induced subgraph on retained agents is disconnected; privacy precondition fails"
        )
    tree_set = set(tree)
    extras = tuple(sorted(e for e in topology.edges if e[0] not in excluded
                          and e[1] not in excluded and e not in tree_set))
    return tuple(tree), extras
