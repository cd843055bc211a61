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

    def directed_edges(self) -> tuple[tuple[int, int], ...]:
        """Both orientations of every edge, ordered by canonical edge then direction."""
        out = []
        for (u, v) in sorted(self.edges):
            out.append((u, v))
            out.append((v, u))
        return tuple(out)

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
        b = self.entries
        if b.shape[0] != b.shape[1]:
            raise GraphError("fusion matrix must be square")
        if np.any(b < -tol) or np.any(b > 1 + tol):
            raise GraphError("fusion entries must lie in [0, 1]")
        if np.max(np.abs(b.sum(axis=1) - 1.0)) > tol:
            raise GraphError("rows must sum to 1")
        if np.max(np.abs(b.sum(axis=0) - 1.0)) > tol:
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


def min_degree(topology: Topology) -> int:
    """Smallest self-exclusive degree over all agents."""
    return int(topology.degrees().min())


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


@dataclass(frozen=True)
class IncidenceMatrix:
    """Signed incidence matrix over directed edges.

    Column for directed edge (u, v) has -1 at the tail u and +1 at the head v.
    """

    entries: np.ndarray  # (n, m) of int8
    columns: tuple  # directed (tail, head) per column

    @classmethod
    def from_directed_edges(cls, n: int, directed_edges) -> "IncidenceMatrix":
        cols = tuple((int(u), int(v)) for (u, v) in directed_edges)
        entries = np.zeros((n, len(cols)), dtype=np.int8)
        for c, (u, v) in enumerate(cols):
            if u == v:
                raise GraphError("directed edge cannot be a self-loop")
            entries[u, c] = -1
            entries[v, c] = +1
        return cls(entries=entries, columns=cols)

    @classmethod
    def from_topology(cls, topology: Topology) -> "IncidenceMatrix":
        return cls.from_directed_edges(topology.n, topology.directed_edges())
