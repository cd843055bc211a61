import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import privopt as po
import privopt.noise as noise
from privopt.noise import (FsObjectiveError, MissingShareError, RandomStreams,
                           ShareTable, draw_noise_functions, noise_gradient_bounds,
                           noise_offsets, obfuscate)
from privopt.polynomials import SeparablePolynomial

from conftest import quartic_objectives


@pytest.fixture
def streams():
    return RandomStreams(42)


class TestNbShares:
    def test_round_one_is_zero(self, cycle5, streams):
        shares = po.draw_nb_shares(cycle5, 1, delta=5.0, streams=streams, dim=1)
        assert np.all(shares.table == 0.0)

    def test_zero_delta_is_zero_every_round(self, cycle5, streams):
        for k in (2, 3, 10):
            shares = po.draw_nb_shares(cycle5, k, delta=0.0, streams=streams, dim=2)
            assert np.all(shares.table == 0.0)

    def test_norm_bound(self, cycle5, streams):
        shares = po.draw_nb_shares(cycle5, 7, delta=1.0, streams=streams, dim=1)
        norms = np.linalg.norm(shares.table, axis=2)
        assert norms.max() <= 1.0 / 10.0 + 1e-15  # delta/(2n) with n=5

    def test_reproducible(self, cycle5):
        a = po.draw_nb_shares(cycle5, 5, 2.0, RandomStreams(9), dim=3)
        b = po.draw_nb_shares(cycle5, 5, 2.0, RandomStreams(9), dim=3)
        np.testing.assert_array_equal(a.table, b.table)


    def test_scales_linearly_with_delta(self, cycle5):
        small = po.draw_nb_shares(cycle5, 3, 1.0, RandomStreams(5), dim=1)
        large = po.draw_nb_shares(cycle5, 3, 15.0, RandomStreams(5), dim=1)
        np.testing.assert_allclose(large.table, 15.0 * small.table, rtol=1e-12)


class TestNbPerturbation:
    def test_all_zero_shares(self, cycle5, streams):
        shares = po.draw_nb_shares(cycle5, 1, 1.0, streams, dim=1)
        np.testing.assert_array_equal(po.nb_perturbation(shares, cycle5), np.zeros((5, 1)))

    def test_two_agent_hand_case(self):
        duo = po.Topology.family("path", 2)
        u = np.array([0.25])
        shares = ShareTable.from_pairs(duo, 1, {(0, 1): u, (1, 0): np.zeros(1)})
        d = po.nb_perturbation(shares, duo)
        np.testing.assert_array_equal(d[0], -u)
        np.testing.assert_array_equal(d[1], u)

    def test_missing_share_raises(self):
        duo = po.Topology.family("path", 2)
        with pytest.raises(MissingShareError):
            ShareTable.from_pairs(duo, 1, {(0, 1): np.zeros(1)})

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31), st.integers(2, 12))
    def test_network_sum_cancels(self, seed, k):
        topo = po.Topology.family("cycle", 5)
        shares = po.draw_nb_shares(topo, k, 15.0, RandomStreams(seed), dim=2)
        d = po.nb_perturbation(shares, topo)
        assert np.abs(d.sum(axis=0)).max() < 1e-12
        assert np.linalg.norm(d, axis=1).max() <= 15.0 + 1e-12


class TestLbPerturbation:
    def test_zero_delta(self, cycle5, streams):
        w = po.metropolis_weights(cycle5)
        d = po.draw_lb_perturbation(cycle5, w, 0.0, 3, streams, dim=1)
        assert np.all(d == 0.0)

    def test_single_neighbor_forces_zero(self, streams):
        duo = po.Topology.family("path", 2)
        w = po.metropolis_weights(duo)
        d = po.draw_lb_perturbation(duo, w, 5.0, 2, streams, dim=1)
        assert np.abs(d).max() < 1e-15

    def test_self_entry_zero_and_support(self, complete5, streams):
        w = po.metropolis_weights(complete5)
        d = po.draw_lb_perturbation(complete5, w, 2.0, 4, streams, dim=2)
        for j in range(5):
            assert np.all(d[j, j] == 0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31), st.floats(0.1, 20.0))
    def test_weighted_sum_and_bound(self, seed, delta):
        topo = po.Topology.family("complete", 5)
        w = po.metropolis_weights(topo)
        d = po.draw_lb_perturbation(topo, w, delta, 2, RandomStreams(seed), dim=2)
        weighted = np.einsum("ij,jid->jd", w.entries, d)
        assert np.abs(weighted).max() < 1e-12
        assert np.linalg.norm(d, axis=2).max() <= delta + 1e-12


def _nb_rounds(topology, rounds, streams, delta=1.0, dim=2):
    return np.stack([po.draw_nb_shares(topology, k, delta, streams, dim).table
                     for k in rounds])


def _lb_rounds(topology, rounds, streams, delta=1.0, dim=2):
    w = po.metropolis_weights(topology)
    return np.stack([po.draw_lb_perturbation(topology, w, delta, k, streams, dim)
                     for k in rounds])


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
            assert np.any(on_cycle[:, 2] != 0.0)
            np.testing.assert_array_equal(on_path[:, 2], on_cycle[:, 2])

    @pytest.mark.parametrize("draw", [_nb_rounds, _lb_rounds])
    def test_block_size_does_not_change_draws(self, complete5, monkeypatch, draw):
        blocked = draw(complete5, self.ROUNDS, RandomStreams(8))
        monkeypatch.setattr(noise, "ROUND_BLOCK", 1)
        single = draw(complete5, self.ROUNDS, RandomStreams(8))
        np.testing.assert_array_equal(blocked, single)

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
        wide = po.draw_lb_perturbation(complete5, w, 15.0, 6, RandomStreams(2), dim=2)
        narrow = po.draw_lb_perturbation(complete5, w, 1.0, 6, RandomStreams(2), dim=2)
        max_norm = np.linalg.norm(wide, axis=2).max(axis=1)
        factor = np.minimum(1.0, 1.0 / max_norm)
        assert np.any(factor < 1.0)
        np.testing.assert_allclose(narrow, wide * factor[:, None, None], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
    def test_rejects_bad_noise_bound(self, cycle5, streams, bad):
        w = po.metropolis_weights(cycle5)
        with pytest.raises(ValueError):
            po.draw_nb_shares(cycle5, 2, bad, streams, dim=1)
        with pytest.raises(ValueError):
            po.draw_lb_perturbation(cycle5, w, bad, 2, streams, dim=1)
        with pytest.raises(ValueError):
            draw_noise_functions(cycle5, bad, 4, streams)


class TestNoiseFunctions:
    def test_zero_coefficient_bound(self, cycle5, streams):
        fns = draw_noise_functions(cycle5, 0.0, 8, streams)
        assert all(np.all(p.coeffs == 0.0) for p in fns.values())

    def test_degree_cap_zero_gives_constants(self, cycle5, streams):
        fns = draw_noise_functions(cycle5, 1.0, 0, streams)
        assert all(p.width == 1 for p in fns.values())

    def test_gradient_bounds_finite(self, cycle5, streams):
        fns = draw_noise_functions(cycle5, 0.5, 8, streams)
        for p in fns.values():
            assert np.isfinite(p.gradient_sup_norm([-30.0], [30.0]))
        grad, curv = noise_gradient_bounds(fns, [-30.0], [30.0])
        assert grad > 0.0 and curv > 0.0 and np.isfinite(grad) and np.isfinite(curv)

    def test_coefficient_magnitude(self, cycle5, streams):
        fns = draw_noise_functions(cycle5, 0.25, 6, streams)
        for p in fns.values():
            assert np.abs(p.coeffs).max() <= 0.25


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
        fns = {(0, 1): SeparablePolynomial([0.0, 1.0]),   # agent 0 sends x
               (1, 0): SeparablePolynomial([0.0, 0.0])}
        out = obfuscate(objs, fns, duo)
        np.testing.assert_array_equal(out[0].poly.coeffs, [[0.0, -1.0, 1.0]])
        np.testing.assert_array_equal(out[1].poly.coeffs, [[0.0, 1.0, 2.0]])

    def test_sum_preserved_on_quartic_family(self, cycle5):
        objs = quartic_objectives()
        fns = draw_noise_functions(cycle5, 0.5, 8, RandomStreams(7))
        out = obfuscate(objs, fns, cycle5)
        width = out[0].poly.width
        total = sum(o.poly.padded(width).coeffs for o in out)
        # Σ f_i coefficientwise: x^2 and x^4 coefficients are each 3.5
        expected = np.zeros((1, width))
        expected[0, 2] = 3.5
        expected[0, 4] = 3.5
        assert np.abs(total - expected).max() < 1e-12

    def test_offsets_sum_to_zero(self, complete5):
        fns = draw_noise_functions(complete5, 1.0, 8, RandomStreams(3))
        offs = noise_offsets(fns, complete5, 9)
        total = sum(p.coeffs for p in offs)
        assert np.abs(total).max() < 1e-12

    def test_additive_group_action(self, cycle5):
        objs = quartic_objectives()
        first = draw_noise_functions(cycle5, 0.5, 8, RandomStreams(1))
        second = draw_noise_functions(cycle5, 0.5, 8, RandomStreams(2))
        combined = {e: first[e] + second[e] for e in first}
        once_then_twice = obfuscate(obfuscate(objs, first, cycle5), second, cycle5)
        at_once = obfuscate(objs, combined, cycle5)
        for a, b in zip(once_then_twice, at_once):
            assert np.abs(a.poly.coeffs - b.poly.coeffs).max() < 1e-12

    def test_rejects_non_polynomial(self, cycle5):
        objs = quartic_objectives()[:4] + [po.LogisticObjective(seed=1, dim=1)]
        with pytest.raises(FsObjectiveError):
            obfuscate(objs, {}, cycle5)


def test_draws_are_bit_reproducible(cycle5):
    a = draw_noise_functions(cycle5, 0.7, 8, RandomStreams(123))
    b = draw_noise_functions(cycle5, 0.7, 8, RandomStreams(123))
    assert a.keys() == b.keys()
    for e in a:
        np.testing.assert_array_equal(a[e].coeffs, b[e].coeffs)
