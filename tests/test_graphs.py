import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import privopt as po
from privopt.graphs import DisconnectedError, GraphError, components

from conftest import random_connected_topology


def brute_force_connectivity(topology):
    """Deletion oracle: smallest vertex set whose removal disconnects the graph."""
    n = topology.n
    if topology.is_complete():
        return n - 1
    best = n - 1
    nodes = list(range(n))
    for size in range(0, n - 1):
        for subset in itertools.combinations(nodes, size):
            if n - size >= 2 and len(components(topology, excluded=subset)) > 1:
                return size
    return best


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
        assert star.degrees().min() == 1
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
        assert topo.sender_edges is topo.sender_edges
        assert topo.degrees().tolist() == [topo.degree(j) for j in range(10)]
        senders, receivers = topo.sender_edges
        assert not senders.flags.writeable and not receivers.flags.writeable
        both_ways = list(topo.edges) + [(v, u) for (u, v) in topo.edges]
        assert list(zip(senders, receivers)) == sorted(both_ways)


def dense_metropolis(topology, self_inclusive_degree=False):
    """The dense (n, n) Metropolis construction that preceded the slot form,
    kept as the reference: an edge loop, then each self weight as 1 minus
    numpy's sum of the row, which is pairwise for rows of 8 or more."""
    n = topology.n
    deg = np.array([topology.degree(j) for j in range(n)], dtype=float)
    if self_inclusive_degree:
        deg = deg + 1.0
    b = np.zeros((n, n))
    for (u, v) in topology.edges:
        w = 1.0 / (1.0 + max(deg[u], deg[v]))
        b[u, v] = b[v, u] = w
    for i in range(n):
        b[i, i] = 1.0 - (b[i].sum() - b[i, i])
    return b


def assert_matches_dense(topology, self_inclusive_degree, exact_self):
    """Off-diagonal weights equal the reference bit for bit. Self weights do
    too when ``exact_self``; otherwise the two are 1 minus the same d
    weights summed in two orders, so they differ by at most d machine
    epsilons, d the agent's degree."""
    w = po.metropolis_weights(topology, self_inclusive_degree)
    dense = topology.fuse_slots.entries(w.weights)
    reference = dense_metropolis(topology, self_inclusive_degree)
    off = ~np.eye(topology.n, dtype=bool)
    assert dense[off].tobytes() == reference[off].tobytes()
    if exact_self:
        assert np.diag(dense).tobytes() == np.diag(reference).tobytes()
    else:
        drift = np.abs(np.diag(dense) - np.diag(reference))
        assert np.all(drift <= topology.degrees() * np.finfo(float).eps)


class TestMetropolis:
    def test_cycle_values(self, cycle5):
        w = po.metropolis_weights(cycle5)
        assert cycle5.fuse_slots.senders[:, 0].tolist() == [0, 1, 4]
        assert w.weights[1, 0] == pytest.approx(1 / 3)  # agent 0's weight on agent 1
        assert w.weights[0, 0] == pytest.approx(1 / 3)
        assert w.rho == pytest.approx(1 / 3)
        assert not w.weights.flags.writeable  # checked once, so held read-only

    def test_complete_values(self, complete5):
        w = po.metropolis_weights(complete5)
        assert np.allclose(w.weights, 0.2)
        assert w.rho == pytest.approx(0.2)

    def test_two_agents(self):
        w = po.metropolis_weights(po.Topology.family("path", 2))
        assert np.allclose(w.weights, 0.5)

    def test_self_inclusive_switch(self, cycle5):
        w = po.metropolis_weights(cycle5, self_inclusive_degree=True)
        assert w.weights[1, 0] == pytest.approx(1 / 4)
        assert np.allclose(cycle5.fuse_slots.column_sums(w.weights), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.integers(2, 7), st.integers(8, 30)), st.integers(0, 10_000),
           st.booleans())
    def test_doubly_stochastic_with_matching_support(self, n, seed, self_inclusive):
        topo = random_connected_topology(np.random.default_rng(seed), n)
        w = po.metropolis_weights(topo, self_inclusive)
        slots = topo.fuse_slots
        assert np.max(np.abs(slots.column_sums(w.weights) - 1)) < 1e-12
        assert np.max(np.abs(w.weights.sum(axis=0) - 1)) < 1e-12
        senders, receivers = topo.sender_edges
        reverse = np.lexsort((senders, receivers))  # row e holds the edge back along e
        edge_weights = slots.edge_weights(w.weights)
        assert np.max(np.abs(edge_weights - edge_weights[reverse])) < 1e-15
        assert np.all(w.weights[slots.live] > 1e-12)
        assert np.all(w.weights[~slots.live] == 0.0)
        positive = w.weights[w.weights > 0]
        assert w.rho == pytest.approx(float(positive.min()))
        # rows of fewer than 8 entries numpy sums in order, as the slots do
        assert_matches_dense(topo, self_inclusive, exact_self=n <= 7)

    @pytest.mark.parametrize("self_inclusive", [False, True])
    @pytest.mark.parametrize("family, n, exact_self", [
        ("cycle", 5, True), ("cycle", 9, True), ("cycle", 1000, True),
        ("path", 2, True), ("path", 30, True), ("petersen", 10, True),
        ("star", 9, False), ("star", 30, False),
        ("complete", 8, False), ("complete", 40, False),
    ])
    def test_matches_dense_construction(self, family, n, exact_self, self_inclusive):
        assert_matches_dense(po.Topology.family(family, n), self_inclusive, exact_self)

    def test_self_weights_exact_on_every_graph_up_to_five_agents(self):
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(2 ** len(pairs)):
                try:
                    topology = po.Topology.from_edges(
                        n, [e for b, e in enumerate(pairs) if mask >> b & 1])
                except DisconnectedError:
                    continue
                for self_inclusive in (False, True):
                    assert_matches_dense(topology, self_inclusive, exact_self=True)


class TestConnectivity:
    def test_examples(self, cycle5, complete5):
        assert po.vertex_connectivity(complete5) == 4
        assert po.vertex_connectivity(cycle5) == 2
        assert po.vertex_connectivity(po.Topology.family("path", 3)) == 1
        assert po.vertex_connectivity(po.Topology.family("petersen", 10)) == 3

    def test_min_degree_examples(self, cycle5, complete5):
        assert cycle5.degrees().min() == 2
        assert complete5.degrees().min() == 4
        assert po.Topology.family("star", 5).degrees().min() == 1

    def test_long_cycle(self):
        assert po.vertex_connectivity(po.Topology.family("cycle", 80)) == 2

    def test_components_of_the_induced_graph(self):
        cycle6 = po.Topology.family("cycle", 6)
        assert components(cycle6) == [[0, 1, 2, 3, 4, 5]]
        assert components(cycle6, excluded=[0, 3]) == [[1, 2], [4, 5]]
        assert components(po.Topology.family("star", 4), excluded=[0]) == [[1], [2], [3]]
        assert components(cycle6, excluded=range(6)) == []

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

