import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import privopt as po
import privopt.noise as noise
from privopt.noise import (FsObjectiveError, RandomStreams, draw_noise_functions,
                           noise_gradient_bounds, noise_offsets, obfuscate)
from privopt.polynomials import derivative_sups, pad_coeffs

from conftest import quartic_objectives, random_connected_topology, reference_sups


@pytest.fixture
def streams():
    return RandomStreams(42)


def _nb(topology, k, delta, streams, dim):
    """Round k's (E, dim) shares, drawn as a block of one round."""
    return po.draw_nb_shares(topology, k, 1, delta, streams, dim)[0]


def _lb(topology, matrix, delta, k, streams, dim):
    """Round k's (E, dim) lb perturbations under ``matrix``, as a block of one round."""
    edge_weights = topology.fuse_slots.edge_weights(matrix.weights)
    return po.draw_lb_perturbation(topology, edge_weights, delta, k, 1, streams, dim)[0]


class TestNbShares:
    def test_round_one_is_zero(self, cycle5, streams):
        shares = po.draw_nb_shares(cycle5, 1, 3, delta=5.0, streams=streams, dim=1)
        assert shares.shape == (3, 10, 1) and np.all(shares[0] == 0.0)
        assert np.all(shares[1:] != 0.0)

    def test_zero_delta_is_zero_every_round(self, cycle5, streams):
        shares = po.draw_nb_shares(cycle5, 2, 9, delta=0.0, streams=streams, dim=2)
        assert shares.shape == (9, 10, 2) and np.all(shares == 0.0)

    def test_norm_bound(self, cycle5, streams):
        shares = po.draw_nb_shares(cycle5, 7, 20, delta=1.0, streams=streams, dim=1)
        norms = np.linalg.norm(shares, axis=-1)
        assert norms.max() <= 1.0 / 10.0 + 1e-15  # delta/(2n) with n=5

    def test_reproducible(self, cycle5):
        a = _nb(cycle5, 5, 2.0, RandomStreams(9), dim=3)
        b = _nb(cycle5, 5, 2.0, RandomStreams(9), dim=3)
        np.testing.assert_array_equal(a, b)

    def test_scales_linearly_with_delta(self, cycle5):
        small = _nb(cycle5, 3, 1.0, RandomStreams(5), dim=1)
        large = _nb(cycle5, 3, 15.0, RandomStreams(5), dim=1)
        np.testing.assert_allclose(large, 15.0 * small, rtol=1e-12)

    def test_rejects_empty_or_zeroth_round_blocks(self, cycle5, streams):
        with pytest.raises(ValueError, match="1-indexed"):
            po.draw_nb_shares(cycle5, 0, 1, 1.0, streams, dim=1)
        with pytest.raises(ValueError, match="at least one round"):
            po.draw_nb_shares(cycle5, 2, 0, 1.0, streams, dim=1)


class TestNbPerturbation:
    def test_all_zero_shares(self, cycle5, streams):
        shares = po.draw_nb_shares(cycle5, 1, 1, 1.0, streams, dim=1)
        np.testing.assert_array_equal(po.nb_perturbation(shares, cycle5), np.zeros((1, 5, 1)))

    def test_two_agent_hand_case(self):
        duo = po.Topology.family("path", 2)
        shares = np.array([[[0.25], [0.0]], [[0.0], [-0.5]]])  # edges (0, 1) and (1, 0)
        d = po.nb_perturbation(shares, duo)
        np.testing.assert_array_equal(d[0], [[-0.25], [0.25]])
        np.testing.assert_array_equal(d[1], [[-0.5], [0.5]])

    def test_rejects_shares_off_the_edges(self, cycle5):
        with pytest.raises(ValueError, match=r"shares have shape \(1, 9, 1\)"):
            po.nb_perturbation(np.zeros((1, 9, 1)), cycle5)
        with pytest.raises(ValueError, match="expected"):
            po.nb_perturbation(np.zeros((10, 1)), cycle5)

    def test_sums_in_edge_order_from_zero(self, complete5):
        # np.add.at's order: each agent's sums start at +0.0 and add its rows in edge order
        senders, receivers = complete5.sender_edges
        shares = RandomStreams(3).generator("nb_direction", 0).standard_normal((4, 20, 2))
        shares *= 10.0 ** RandomStreams(3).generator("nb_radius", 0).integers(-9, 9, shares.shape)
        shares[1] = -0.0
        received, sent = np.zeros((2, 4, 5, 2))
        np.add.at(received, (slice(None), receivers), shares)
        np.add.at(sent, (slice(None), senders), shares)
        assert (po.nb_perturbation(shares, complete5).tobytes()
                == (received - sent).tobytes())

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31), st.integers(2, 12))
    def test_network_sum_cancels(self, seed, k):
        topo = po.Topology.family("cycle", 5)
        shares = po.draw_nb_shares(topo, k, 3, 15.0, RandomStreams(seed), dim=2)
        d = po.nb_perturbation(shares, topo)
        assert np.abs(d.sum(axis=1)).max() < 1e-12
        assert np.linalg.norm(d, axis=-1).max() <= 15.0 + 1e-12


class TestLbPerturbation:
    def test_zero_delta(self, cycle5, streams):
        w = po.metropolis_weights(cycle5)
        d = _lb(cycle5, w, 0.0, 3, streams, dim=1)
        assert np.all(d == 0.0)

    def test_single_neighbor_forces_zero(self, streams):
        duo = po.Topology.family("path", 2)
        w = po.metropolis_weights(duo)
        d = _lb(duo, w, 5.0, 2, streams, dim=1)
        assert np.abs(d).max() < 1e-15

    def test_self_entry_zero_and_support(self, complete5, streams):
        # one row per directed edge, none for an agent's message to itself
        w = po.metropolis_weights(complete5)
        d = _lb(complete5, w, 2.0, 4, streams, dim=2)
        senders, receivers = complete5.sender_edges
        assert d.shape == (20, 2) and np.all(senders != receivers)
        assert np.all(np.linalg.norm(d, axis=1) > 0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31), st.floats(0.1, 20.0))
    def test_weighted_sum_and_bound(self, seed, delta):
        topo = po.Topology.family("complete", 5)
        w = po.metropolis_weights(topo)
        d = _lb(topo, w, delta, 2, RandomStreams(seed), dim=2)
        senders, receivers = topo.sender_edges
        weighted = np.zeros((5, 2))
        b = topo.fuse_slots.entries(w.weights)
        np.add.at(weighted, senders, b[receivers, senders, None] * d)
        assert np.abs(weighted).max() < 1e-12
        assert np.linalg.norm(d, axis=1).max() <= delta + 1e-12

    def test_rejects_weights_of_another_shape(self, cycle5, streams):
        # one weights row for the whole run: a (count, E) block of per-round rows is refused
        for shape in ((4, 10), (3, 10), (9,)):
            with pytest.raises(ValueError, match=rf"edge weights have shape \({shape[0]},"):
                po.draw_lb_perturbation(cycle5, np.full(shape, 0.5), 1.0, 2, 4, streams, dim=1)


def _nb_rounds(topology, rounds, streams, delta=1.0, dim=2, block=1):
    """Shares of the consecutive ``rounds``, drawn ``block`` rounds at a time."""
    first, stop = rounds[0], rounds[-1] + 1
    return np.concatenate([po.draw_nb_shares(topology, k, min(block, stop - k), delta, streams, dim)
                           for k in range(first, stop, block)])


def _lb_rounds(topology, rounds, streams, delta=1.0, dim=2, block=1):
    """Metropolis lb perturbations of the consecutive ``rounds``, drawn
    ``block`` rounds at a time."""
    edge_weights = topology.fuse_slots.edge_weights(po.metropolis_weights(topology).weights)
    first, stop = rounds[0], rounds[-1] + 1
    return np.concatenate([po.draw_lb_perturbation(topology, edge_weights, delta, k,
                                                   min(block, stop - k), streams, dim)
                           for k in range(first, stop, block)])


class TestStreamContract:
    """The draws of round k depend only on the seed, the purpose, the agent,
    its degree, the dimension and k."""

    ROUNDS = range(1, 76)

    def test_agent_draws_depend_only_on_its_neighbourhood(self, cycle5):
        # agent 2 has neighbours {1, 3} and weights 1/3 on both graphs
        path5 = po.Topology.family("path", 5)
        for draw in (_nb_rounds, _lb_rounds):
            on_path = draw(path5, self.ROUNDS, RandomStreams(3))
            on_cycle = draw(cycle5, self.ROUNDS, RandomStreams(3))
            from_path = on_path[:, path5.sender_edges[0] == 2]
            from_cycle = on_cycle[:, cycle5.sender_edges[0] == 2]
            assert from_cycle.shape[1] == 2 and np.any(from_cycle != 0.0)
            np.testing.assert_array_equal(from_path, from_cycle)

    @pytest.mark.parametrize("draw", [_nb_rounds, _lb_rounds])
    def test_block_size_does_not_change_draws(self, draw):
        for topology in (po.Topology.family("complete", 5), po.Topology.family("star", 9)):
            whole = draw(topology, self.ROUNDS, RandomStreams(8), block=len(self.ROUNDS))
            for block in (1, 7):
                blocked = draw(topology, self.ROUNDS, RandomStreams(8), block=block)
                assert blocked.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("draw", [_nb_rounds, _lb_rounds])
    def test_round_drawn_alone_matches_sequential_run(self, cycle5, draw):
        streams = RandomStreams(4)
        sequential = draw(cycle5, self.ROUNDS, streams)
        for k in (2, 33, 70):
            alone = draw(cycle5, [k], RandomStreams(4))[0]
            np.testing.assert_array_equal(alone, sequential[k - 1])
            # an earlier round from streams that have moved past it
            np.testing.assert_array_equal(draw(cycle5, [k], streams)[0], sequential[k - 1])

    def test_lb_scales_by_shrink_factor_ratio(self, complete5):
        w = po.metropolis_weights(complete5)
        # raw draws lie in [-1, 1]^2, so deviations stay below 15 and the
        # delta=15 family is the unshrunk deviation itself
        wide = _lb(complete5, w, 15.0, 6, RandomStreams(2), dim=2)
        narrow = _lb(complete5, w, 1.0, 6, RandomStreams(2), dim=2)
        senders = complete5.sender_edges[0]
        norms = np.linalg.norm(wide, axis=1)
        max_norm = np.array([norms[senders == j].max() for j in range(5)])
        factor = np.minimum(1.0, 1.0 / max_norm)
        assert np.any(factor < 1.0)
        np.testing.assert_allclose(narrow, wide * factor[senders, None], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
    def test_rejects_bad_noise_bound(self, cycle5, streams, bad):
        w = po.metropolis_weights(cycle5)
        with pytest.raises(ValueError):
            _nb(cycle5, 2, bad, streams, dim=1)
        with pytest.raises(ValueError):
            _lb(cycle5, w, bad, 2, streams, dim=1)
        with pytest.raises(ValueError):
            draw_noise_functions(cycle5, bad, 4, streams)


def test_draws_are_rows_of_sender_edges():
    """Row e of the shares and of the lb perturbations belongs to directed edge
    e = (senders[e], receivers[e])."""
    complete4 = po.Topology.family("complete", 4)
    senders, receivers = complete4.sender_edges
    shares = _nb(complete4, 3, 2.0, RandomStreams(5), dim=2)
    assert shares.shape == (12, 2)
    expected = np.zeros((4, 2))
    for e, (j, i) in enumerate(zip(senders, receivers)):
        expected[i] += shares[e]
        expected[j] -= shares[e]
    np.testing.assert_allclose(po.nb_perturbation(shares[None], complete4)[0], expected,
                               rtol=0, atol=1e-15)
    # every sender weighs its three receivers differently, so the local balance
    # holds only with each row paired with its own receiver: on the complete
    # graph slot k of every agent holds sender k, and agent i gives sender j
    # the weight c[(i - j) % 4]
    assert (complete4.fuse_slots.senders == np.arange(4)[:, None]).all()
    c = np.array([0.4, 0.3, 0.2, 0.1])
    weights = c[(np.arange(4)[None, :] - np.arange(4)[:, None]) % 4]
    w = po.FusionMatrix(complete4, weights)
    d = _lb(complete4, w, 1.0, 3, RandomStreams(5), dim=2)
    assert d.shape == (12, 2)
    balance = np.zeros((4, 2))
    for e, (j, i) in enumerate(zip(senders, receivers)):
        balance[j] += weights[j, i] * d[e]
    assert np.abs(balance).max() < 1e-15


def reference_offsets(noise, topology):
    """The per-agent neighbour loop that ``noise_offsets`` replaces: from
    zero, add the rows the agent receives, then subtract the rows it sends,
    each in ascending neighbour order."""
    row = {(j, i): e for e, (j, i) in enumerate(zip(*[a.tolist() for a in topology.sender_edges]))}
    out = []
    for j in range(topology.n):
        acc = np.zeros(noise.shape[1:], dtype=noise.dtype)
        for i in topology.neighbors(j):
            if i != j:
                acc = acc + noise[row[(i, j)]]
        for i in topology.neighbors(j):
            if i != j:
                acc = acc - noise[row[(j, i)]]
        out.append(acc)
    return np.array(out)


class TestNoiseFunctions:
    def test_zero_coefficient_bound(self, cycle5, streams):
        fns = draw_noise_functions(cycle5, 0.0, 8, streams)
        assert fns.shape == (10, 1, 9) and np.all(fns == 0.0)

    def test_degree_cap_zero_gives_constants(self, cycle5, streams):
        fns = draw_noise_functions(cycle5, 1.0, 0, streams)
        assert fns.shape == (10, 1, 1)

    def test_gradient_bounds_finite(self, cycle5, streams):
        fns = draw_noise_functions(cycle5, 0.5, 8, streams)
        for coeffs in fns:
            assert np.isfinite(derivative_sups(coeffs, [-30.0], [30.0])).all()
        grad, curv = noise_gradient_bounds(fns, cycle5, [-30.0], [30.0])
        assert grad > 0.0 and curv > 0.0 and np.isfinite(grad) and np.isfinite(curv)

    @pytest.mark.parametrize("family,n,dim", [("cycle", 5, 1), ("star", 6, 2), ("petersen", 10, 1)])
    def test_gradient_bounds_sum_each_agents_functions_in_edge_order(self, family, n, dim):
        """Bit for bit what summing every function's bounds once per endpoint
        gives, agent by agent in edge order, each bound by the per-row rule."""
        topology = po.Topology.family(family, n)
        fns = draw_noise_functions(topology, 0.75, 6, RandomStreams(n), dim)
        lower, upper = [-3.0] * dim, [2.0] * dim
        incident = {}
        for e, ends in enumerate(zip(*[a.tolist() for a in topology.sender_edges])):
            for agent in ends:
                incident.setdefault(agent, []).append(reference_sups(fns[e], lower, upper))
        grad = max(sum(s[0] for s in sups) for sups in incident.values())
        curv = max(sum(s[1] for s in sups) for sups in incident.values())
        assert noise_gradient_bounds(fns, topology, lower, upper) == (grad, curv)

    def test_coefficient_magnitude(self, cycle5, streams):
        fns = draw_noise_functions(cycle5, 0.25, 6, streams)
        assert np.abs(fns).max() <= 0.25

    def test_rows_are_each_senders_stream_in_receiver_order(self, cycle5):
        fns = draw_noise_functions(cycle5, 0.5, 3, RandomStreams(9), dim=2)
        senders = cycle5.sender_edges[0]
        for j in range(5):
            rng = RandomStreams(9).generator("fs_coeff", j, 0)
            for row in np.flatnonzero(senders == j):
                raw = rng.uniform(-0.5, 0.5, size=(2, 4))
                expected = np.clip(np.round(raw / noise.COEFF_GRID) * noise.COEFF_GRID, -0.5, 0.5)
                np.testing.assert_array_equal(fns[row], expected)


class TestNoiseOffsets:
    def test_bit_identical_to_the_neighbour_loop(self):
        rng = np.random.default_rng(2024)
        for case in range(300):
            topology = random_connected_topology(rng, int(rng.integers(2, 26)))
            dim = int(rng.integers(1, 3))
            delta = float(10.0 ** rng.uniform(-3, 6))
            if case % 2:
                fns = draw_noise_functions(topology, delta, int(rng.integers(0, 9)),
                                           RandomStreams(case), dim)
            else:  # off the coefficient grid, so the additions round
                fns = rng.uniform(-delta, delta, (topology.sender_edges[0].size, dim, 5))
            offsets = noise_offsets(fns, topology)
            assert offsets.tobytes() == reference_offsets(fns, topology).tobytes(), case

    def test_exact_on_integer_arrays(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            topology = random_connected_topology(rng, int(rng.integers(2, 15)))
            ints = rng.integers(-2 ** 62, 2 ** 62, (topology.sender_edges[0].size, 2, 3))
            exact = ints.astype(object) * 2 ** 1000 + 1  # far beyond float precision
            offsets = noise_offsets(exact, topology)
            assert offsets.dtype == object
            assert np.array_equal(offsets, reference_offsets(exact, topology))
            assert all(v == 0 for v in offsets.sum(axis=0).ravel())


class TestObfuscate:
    def test_zero_noise_identity(self, cycle5):
        objs = quartic_objectives()
        fns = draw_noise_functions(cycle5, 0.0, 8, RandomStreams(0))
        out = obfuscate(objs, fns, cycle5)
        for before, after in zip(objs, out):
            np.testing.assert_array_equal(after.poly.coeffs[:, :before.poly.width],
                                          before.poly.coeffs)
            assert np.all(after.poly.coeffs[:, before.poly.width:] == 0.0)

    def test_two_agent_hand_case(self):
        duo = po.Topology.family("path", 2)
        objs = [po.PolynomialObjective([0, 0, 1]), po.PolynomialObjective([0, 0, 2])]
        fns = np.array([[[0.0, 1.0]],    # edge (0, 1): agent 0 sends x
                        [[0.0, 0.0]]])   # edge (1, 0)
        out = obfuscate(objs, fns, duo)
        np.testing.assert_array_equal(out[0].poly.coeffs, [[0.0, -1.0, 1.0]])
        np.testing.assert_array_equal(out[1].poly.coeffs, [[0.0, 1.0, 2.0]])

    def test_sum_preserved_on_quartic_family(self, cycle5):
        objs = quartic_objectives()
        fns = draw_noise_functions(cycle5, 0.5, 8, RandomStreams(7))
        out = obfuscate(objs, fns, cycle5)
        width = out[0].poly.width
        total = sum(pad_coeffs(o.poly.coeffs, width) for o in out)
        # Σ f_i coefficientwise: x^2 and x^4 coefficients are each 3.5
        expected = np.zeros((1, width))
        expected[0, 2] = 3.5
        expected[0, 4] = 3.5
        assert np.abs(total - expected).max() < 1e-12

    def test_offsets_sum_to_zero(self, complete5):
        fns = draw_noise_functions(complete5, 1.0, 8, RandomStreams(3))
        offs = noise_offsets(fns, complete5)
        assert offs.shape == (5, 1, 9)
        assert np.abs(offs.sum(axis=0)).max() < 1e-12

    def test_additive_group_action(self, cycle5):
        objs = quartic_objectives()
        first = draw_noise_functions(cycle5, 0.5, 8, RandomStreams(1))
        second = draw_noise_functions(cycle5, 0.5, 8, RandomStreams(2))
        once_then_twice = obfuscate(obfuscate(objs, first, cycle5), second, cycle5)
        at_once = obfuscate(objs, first + second, cycle5)
        for a, b in zip(once_then_twice, at_once):
            assert np.abs(a.poly.coeffs - b.poly.coeffs).max() < 1e-12

    def test_rejects_non_polynomial(self, cycle5):
        objs = quartic_objectives()[:4] + [po.LogisticObjective(seed=1, dim=1)]
        with pytest.raises(FsObjectiveError):
            obfuscate(objs, np.zeros((10, 1, 1)), cycle5)


def test_draws_are_bit_reproducible(cycle5):
    a = draw_noise_functions(cycle5, 0.7, 8, RandomStreams(123))
    b = draw_noise_functions(cycle5, 0.7, 8, RandomStreams(123))
    assert a.shape == (10, 1, 9)
    assert a.tobytes() == b.tobytes()
