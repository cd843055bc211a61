"""Network topology, doubly stochastic fusion weights, connectivity and spanning trees.

Agents are indexed 0..n-1. Undirected edges are canonical (u, v) tuples with
u < v. Neighborhoods are self-inclusive; degrees are self-exclusive.
"""

from __future__ import annotations

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
        if not self._connected(set(range(self.n)), self.edges):
            raise DisconnectedError("topology is not connected")

    @staticmethod
    def _connected(nodes: set, edges) -> bool:
        if not nodes:
            return False
        adj = {v: [] for v in nodes}
        for (u, v) in edges:
            if u in adj and v in adj:
                adj[u].append(v)
                adj[v].append(u)
        start = min(nodes)
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen == nodes

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

    @cached_property
    def _adjacency(self) -> np.ndarray:
        adj = np.zeros((self.n, self.n), dtype=bool)
        for (u, v) in self.edges:
            adj[u, v] = adj[v, u] = True
        adj.flags.writeable = False
        return adj

    def neighbors(self, j: int) -> tuple[int, ...]:
        """Self-inclusive neighborhood of agent j, ascending."""
        return self._neighbor_table[j]

    def degree(self, j: int) -> int:
        """Self-exclusive degree."""
        return len(self.neighbors(j)) - 1

    def degrees(self) -> np.ndarray:
        return np.array([self.degree(j) for j in range(self.n)], dtype=int)

    def adjacency(self) -> np.ndarray:
        """Symmetric boolean adjacency without self entries; computed once
        and read-only."""
        return self._adjacency

    @cached_property
    def sender_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Directed edges as read-only (sender, receiver) index arrays, sorted
        by sender and then receiver, so each sender's edges are contiguous."""
        senders, receivers = np.nonzero(self._adjacency)
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
                          edges=np.full(shape, count), live=np.zeros(shape, dtype=bool))
        table.senders[slot, dst] = src
        table.edges[slot, dst] = edge
        table.live[slot, dst] = True
        for array in (table.senders, table.edges, table.live):
            array.flags.writeable = False
        return table

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2

    def to_spec(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in sorted(self.edges)]}

    @classmethod
    def from_spec(cls, spec: dict) -> "Topology":
        if "family" in spec:
            return cls.family(spec["family"], int(spec["n"]))
        return cls.from_edges(int(spec["n"]), spec["edges"])


@dataclass(frozen=True)
class FuseSlots:
    """Slot table of a fusion round, slot-major with K = max degree + 1 slots.

    Column j lists agent j's self-inclusive in-neighbours in ascending order,
    padded with j itself: ``senders[k, j]`` is the agent in slot k,
    ``edges[k, j]`` its row in ``Topology.sender_edges`` (E, one past the last
    edge, for the self slot and the pads) and ``live[k, j]`` is False on the
    pads.
    """

    senders: np.ndarray  # (K, n) agent indices
    edges: np.ndarray    # (K, n) directed-edge rows, E off the edges
    live: np.ndarray     # (K, n) bool

    def weights(self, entries: np.ndarray) -> np.ndarray:
        """(..., K, n) weights B[j, senders[k, j]] of (..., n, n) matrices B,
        +0.0 on the pads. Raises GraphError if a matrix has a nonzero entry
        off the self-inclusive neighbourhoods, which the slots cannot hold."""
        n = self.senders.shape[1]
        if entries.shape[-2:] != (n, n):
            raise GraphError(f"fusion matrix has shape {entries.shape[-2:]}, expected ({n}, {n})")
        weights = np.where(self.live, entries[..., np.arange(n), self.senders], 0.0)
        if np.count_nonzero(entries) != np.count_nonzero(weights):
            raise GraphError("fusion matrix has a nonzero entry off the self-inclusive "
                             "neighbourhoods")
        return weights


@dataclass(frozen=True)
class FusionMatrix:
    """Doubly stochastic weight matrix supported on self-inclusive neighborhoods."""

    entries: np.ndarray
    rho: float  # smallest nonzero entry

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=float))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_entries(cls, entries, topology: Topology | None = None, tol: float = 1e-12) -> "FusionMatrix":
        entries = np.asarray(entries, dtype=float)
        positive = entries[entries > 0]
        rho = float(positive.min()) if positive.size else 0.0
        mat = cls(entries=entries, rho=rho)
        mat.validate(topology, tol=tol)
        return mat

    def validate(self, topology: Topology | None = None, tol: float = 1e-12) -> None:
        """Check the matrix, or each matrix of a (..., n, n) stack such as
        the per-round weights of a provider run."""
        b = self.entries
        if b.ndim < 2 or b.shape[-2] != b.shape[-1]:
            raise GraphError("fusion matrix must be square")
        if np.any(b < -tol) or np.any(b > 1 + tol):
            raise GraphError("fusion entries must lie in [0, 1]")
        if np.max(np.abs(b.sum(axis=-1) - 1.0)) > tol:
            raise GraphError("rows must sum to 1")
        if np.max(np.abs(b.sum(axis=-2) - 1.0)) > tol:
            raise GraphError("columns must sum to 1")
        if topology is not None:
            adj = topology.adjacency() | np.eye(topology.n, dtype=bool)
            if np.any((b > tol) != adj):
                raise GraphError("support must match self-inclusive neighborhoods")


def metropolis_weights(topology: Topology, self_inclusive_degree: bool = False) -> FusionMatrix:
    """Symmetric doubly stochastic weights from local degrees.

    Off-diagonal weight for adjacent i, j is 1/(1 + max(d_i, d_j)) with the
    self-exclusive degree by default; ``self_inclusive_degree=True`` counts the
    agent itself, giving 1/(2 + max(d_i, d_j)). The diagonal absorbs the
    remainder.
    """
    n = topology.n
    deg = topology.degrees().astype(float)
    if self_inclusive_degree:
        deg = deg + 1.0
    b = np.zeros((n, n))
    for (u, v) in topology.edges:
        w = 1.0 / (1.0 + max(deg[u], deg[v]))
        b[u, v] = b[v, u] = w
    for i in range(n):
        b[i, i] = 1.0 - (b[i].sum() - b[i, i])
    return FusionMatrix.from_entries(b, topology)


def _max_flow_unit_vertex(topology: Topology, source: int, sink: int) -> int:
    """Vertex-capacity max-flow between non-adjacent source and sink.

    Standard node splitting: vertex v becomes v_in -> v_out with capacity 1
    (unbounded at the terminals); every undirected edge contributes unbounded
    arcs out_u -> in_v and out_v -> in_u. BFS augmentation; each augmenting
    path adds one unit.
    """
    n = topology.n
    big = n * n
    size = 2 * n  # v_in = v, v_out = v + n
    cap = np.zeros((size, size), dtype=int)
    for v in range(n):
        cap[v, v + n] = big if v in (source, sink) else 1
    for (u, v) in topology.edges:
        cap[u + n, v] = big
        cap[v + n, u] = big
    s, t = source + n, sink
    flow = 0
    while True:
        parent = [-1] * size
        parent[s] = s
        queue = [s]
        while queue and parent[t] == -1:
            cur = queue.pop(0)
            for nxt in np.nonzero(cap[cur] > 0)[0]:
                if parent[nxt] == -1:
                    parent[nxt] = cur
                    queue.append(int(nxt))
        if parent[t] == -1:
            return flow
        node = t
        while node != s:
            prev = parent[node]
            cap[prev, node] -= 1
            cap[node, prev] += 1
            node = prev
        flow += 1


def vertex_connectivity(topology: Topology) -> int:
    """Minimum number of vertex deletions that disconnect the graph (n-1 for
    complete graphs), via unit-vertex-capacity max-flow over non-adjacent pairs."""
    n = topology.n
    if n == 1:
        return 0
    if topology.is_complete():
        return n - 1
    adj = topology.adjacency()
    best = n - 1
    for s in range(n):
        for t in range(s + 1, n):
            if not adj[s, t]:
                best = min(best, _max_flow_unit_vertex(topology, s, t))
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
    good = sorted(set(range(topology.n)) - excluded)
    if not good:
        raise GraphError("no agents remain after exclusion")
    good_set = set(good)
    induced = sorted(e for e in topology.edges if e[0] in good_set and e[1] in good_set)
    adj = {v: [] for v in good}
    for (u, v) in induced:
        adj[u].append(v)
        adj[v].append(u)
    for v in adj:
        adj[v].sort()
    root = good[0]
    seen = {root}
    queue = [root]
    tree = []
    while queue:
        u = queue.pop(0)
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                tree.append(canonical_edge(u, w))
                queue.append(w)
    if seen != good_set:
        raise DisconnectedError(
            "induced subgraph on retained agents is disconnected; privacy precondition fails"
        )
    tree_set = set(tree)
    extras = tuple(e for e in induced if e not in tree_set)
    return tuple(tree), extras

