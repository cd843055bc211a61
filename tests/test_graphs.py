import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import privopt as po
from privopt.graphs import DisconnectedError, GraphError, IncidenceMatrix


def brute_force_connectivity(topology):
    """Deletion oracle: smallest vertex set whose removal disconnects the graph."""
    n = topology.n
    if topology.is_complete():
        return n - 1
    best = n - 1
    nodes = list(range(n))
    for size in range(0, n - 1):
        for subset in itertools.combinations(nodes, size):
            remaining = set(nodes) - set(subset)
            if len(remaining) < 2:
                continue
            edges = [e for e in topology.edges if e[0] in remaining and e[1] in remaining]
            if not po.Topology._connected(remaining, edges):
                return size
    return best


def random_connected_topology(rng, n):
    nodes = list(range(n))
    rng.shuffle(nodes)
    edges = set()
    for a, b in zip(nodes, nodes[1:]):  # random spanning tree keeps it connected
        edges.add((min(a, b), max(a, b)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.3:
                edges.add((u, v))
    return po.Topology.from_edges(n, edges)


class TestTopology:
    def test_rejects_self_loops_and_bad_indices(self):
        with pytest.raises(GraphError):
            po.Topology.from_edges(3, [(0, 0), (0, 1), (1, 2)])
        with pytest.raises(GraphError):
            po.Topology.from_edges(3, [(0, 5)])

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedError):
            po.Topology.from_edges(4, [(0, 1), (2, 3)])

    def test_neighborhood_is_self_inclusive(self, cycle5):
        assert cycle5.neighbors(0) == (0, 1, 4)
        assert cycle5.degree(0) == 2

    def test_families(self):
        star = po.Topology.family("star", 5)
        assert po.min_degree(star) == 1
        path = po.Topology.family("path", 4)
        assert len(path.edges) == 3
        petersen = po.Topology.family("petersen", 10)
        assert all(petersen.degree(v) == 3 for v in range(10))

    def test_single_agent_topology(self):
        solo = po.Topology.from_edges(1, [])
        assert solo.neighbors(0) == (0,)
        assert solo.sender_edges[0].size == 0

    def test_cached_tables_match_edge_scan(self):
        topo = po.Topology.family("petersen", 10)
        for j in range(10):
            scan = sorted({j} | {v for (u, v) in topo.edges if u == j}
                          | {u for (u, v) in topo.edges if v == j})
            assert topo.neighbors(j) == tuple(scan)
        adj = topo.adjacency()
        assert adj is topo.adjacency() and not adj.flags.writeable
        senders, receivers = topo.sender_edges
        assert not senders.flags.writeable and not receivers.flags.writeable
        assert list(zip(senders, receivers)) == sorted(topo.directed_edges())


class TestMetropolis:
    def test_cycle_values(self, cycle5):
        w = po.metropolis_weights(cycle5)
        assert w.entries[0, 1] == pytest.approx(1 / 3)
        assert w.entries[0, 0] == pytest.approx(1 / 3)
        assert w.rho == pytest.approx(1 / 3)

    def test_complete_values(self, complete5):
        w = po.metropolis_weights(complete5)
        assert np.allclose(w.entries, 0.2)
        assert w.rho == pytest.approx(0.2)

    def test_two_agents(self):
        w = po.metropolis_weights(po.Topology.family("path", 2))
        assert np.allclose(w.entries, 0.5)

    def test_self_inclusive_switch(self, cycle5):
        w = po.metropolis_weights(cycle5, self_inclusive_degree=True)
        assert w.entries[0, 1] == pytest.approx(1 / 4)
        assert np.allclose(w.entries.sum(axis=0), 1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 10_000))
    def test_doubly_stochastic_with_matching_support(self, n, seed):
        topo = random_connected_topology(np.random.default_rng(seed), n)
        w = po.metropolis_weights(topo)
        assert np.max(np.abs(w.entries.sum(axis=0) - 1)) < 1e-12
        assert np.max(np.abs(w.entries.sum(axis=1) - 1)) < 1e-12
        assert np.max(np.abs(w.entries - w.entries.T)) < 1e-15
        support = w.entries > 1e-12
        expected = topo.adjacency() | np.eye(n, dtype=bool)
        assert np.array_equal(support, expected)
        positive = w.entries[w.entries > 0]
        assert w.rho == pytest.approx(float(positive.min()))


class TestConnectivity:
    def test_examples(self, cycle5, complete5):
        assert po.vertex_connectivity(complete5) == 4
        assert po.vertex_connectivity(cycle5) == 2
        assert po.vertex_connectivity(po.Topology.family("path", 3)) == 1
        assert po.vertex_connectivity(po.Topology.family("petersen", 10)) == 3

    def test_min_degree_examples(self, cycle5, complete5):
        assert po.min_degree(cycle5) == 2
        assert po.min_degree(complete5) == 4
        assert po.min_degree(po.Topology.family("star", 5)) == 1

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 10_000))
    def test_agrees_with_deletion_oracle(self, n, seed):
        topo = random_connected_topology(np.random.default_rng(seed), n)
        assert po.vertex_connectivity(topo) == brute_force_connectivity(topo)


def spans_and_acyclic(tree_edges, good):
    parent = {v: v for v in good}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (u, v) in tree_edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False  # cycle
        parent[ru] = rv
    return len({find(v) for v in good}) == 1


class TestSpanningTreeSplit:
    def test_cycle_full(self, cycle5):
        tree, extras = po.spanning_tree_split(cycle5)
        assert len(tree) == 4 and len(extras) == 1
        assert spans_and_acyclic(tree, range(5))

    def test_complete_minus_one(self, complete5):
        tree, extras = po.spanning_tree_split(complete5, excluded={4})
        assert len(tree) == 3 and len(extras) == 3

    def test_path_has_no_extras(self):
        path = po.Topology.family("path", 6)
        tree, extras = po.spanning_tree_split(path)
        assert len(tree) == 5 and extras == ()

    def test_deterministic(self, complete5):
        a = po.spanning_tree_split(complete5, excluded={1})
        b = po.spanning_tree_split(complete5, excluded={1})
        assert a == b

    def test_disconnected_induced_subgraph_raises(self, cycle5):
        with pytest.raises(DisconnectedError):
            po.spanning_tree_split(cycle5, excluded={0, 2})

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 7), st.integers(0, 10_000))
    def test_tree_properties_random(self, n, seed):
        topo = random_connected_topology(np.random.default_rng(seed), n)
        tree, extras = po.spanning_tree_split(topo)
        assert len(tree) == n - 1
        assert set(tree) | set(extras) == set(topo.edges)
        assert spans_and_acyclic(tree, range(n))


class TestIncidenceMatrix:
    def test_column_signs(self, cycle5):
        inc = IncidenceMatrix.from_topology(cycle5)
        assert inc.entries.shape == (5, 10)  # 5 edges, both orientations
        assert np.all((inc.entries == 1).sum(axis=0) == 1)
        assert np.all((inc.entries == -1).sum(axis=0) == 1)
        for col, (tail, head) in enumerate(inc.columns):
            assert inc.entries[tail, col] == -1
            assert inc.entries[head, col] == +1

    def test_column_edge_map_round_trip(self, cycle5):
        inc = IncidenceMatrix.from_topology(cycle5)
        seen = {tuple(sorted(e)) for e in inc.columns}
        assert seen == set(cycle5.edges)
