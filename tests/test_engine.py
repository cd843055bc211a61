import hashlib
import json
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest

import privopt as po
from privopt.configs import RunConfig, execute
from privopt.analysis import audit_invariants
from privopt.engine import (ScheduleError, StepSchedule, TraceError, _slot_fuse,
                            block_rounds, dgd_step, encode_array, recorded_rounds)
from privopt.graphs import GraphError
from privopt.polynomials import derivative, interval_extrema

from conftest import (INTERIOR_INIT, decoded, edit_array, reference_dgd, run, run_doc,
                      save_trace, with_entry)
from test_golden import canonical_traces

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
DERIVED = ("messages", "fused", "fused_true", "fused_noise")
# the keys of a trace document: the run config, what the run drew or chose,
# the recorded states and the digest
DOCUMENT_KEYS = {"version", "config", "noise", "states", "final_states", "digest"}


@pytest.fixture(scope="module")
def short_runs(quartic_problem, cycle5, inv_sqrt):
    """One short run per algorithm, shared across tests in this module."""
    kw = dict(max_iter=400, init=INTERIOR_INIT)
    return {
        "dgd": run("dgd", quartic_problem, cycle5, inv_sqrt, **kw),
        "nb": run("rss_nb", quartic_problem, cycle5, inv_sqrt, delta=1.0, seed=3, **kw),
        "lb": run("rss_lb", quartic_problem, cycle5, inv_sqrt, delta=1.0, seed=3, **kw),
        "fs": run("fs", quartic_problem, cycle5, inv_sqrt, delta_coeff=0.5, d_max=8, seed=3,
                  **kw),
    }


class TestStepSchedule:
    def test_inv_sqrt(self):
        s = StepSchedule(kind="inv_sqrt")
        assert s.steps(4)[[0, 3]].tolist() == [1.0, 0.5]
        assert s.convergent

    def test_inv_k(self):
        s = StepSchedule(kind="inv_k", a=2.0, b=3.0)
        assert s.steps(1).tolist() == [0.5]
        assert s.convergent

    def test_constant_flagged_non_convergent(self):
        s = StepSchedule(kind="constant", a=0.05)
        assert s.steps(10).tolist() == [0.05] * 10
        assert not s.convergent

    def test_non_increasing(self):
        for s in (StepSchedule("inv_sqrt"), StepSchedule("inv_k", a=1.0, b=2.0)):
            steps = s.steps(500)
            assert np.all(np.diff(steps) <= 0)

    def test_unknown_kind(self):
        with pytest.raises(ScheduleError):
            StepSchedule(kind="geometric")


class TestRecordedRounds:
    def test_full(self):
        np.testing.assert_array_equal(recorded_rounds(5, 1), [1, 2, 3, 4, 5])

    def test_downsampled_keeps_pairs_and_ends(self):
        keep = set(recorded_rounds(100, 10).tolist())
        assert 1 in keep and 100 in keep
        assert {11, 21, 31}.issubset(keep)
        # each audited round has its successor for consecutive-round checks
        assert {12, 22, 32}.issubset(keep)


class TestDgd:
    def test_single_agent_matches_scalar_descent(self, wide_box, inv_sqrt):
        problem = po.GlobalProblem(objectives=[po.PolynomialObjective([0, 0, 1])],
                                   feasible=wide_box)
        solo = po.Topology.from_edges(1, [])
        trace = run("dgd", problem, solo, inv_sqrt, max_iter=60, init=np.array([[10.0]]))
        # independent scalar recursion: x <- clip(x - a*2x)
        x = 10.0
        for k in range(1, 61):
            x = float(np.clip(x - (1.0 / np.sqrt(k)) * 2.0 * x, -30.0, 30.0))
        assert trace.final_states[0, 0] == pytest.approx(x, abs=1e-12)
        mags = np.abs(np.concatenate([trace.states[:, 0, 0], trace.final_states[:, 0]]))
        assert np.all(np.diff(mags[1:]) <= 1e-12)  # monotone once steps shrink below 1

    def test_fixed_point_at_shared_optimum(self, wide_box, cycle5, inv_sqrt):
        problem = po.GlobalProblem(objectives=[po.PolynomialObjective([0, 0, 1])] * 5,
                                   feasible=wide_box)
        init = np.zeros((5, 1))
        trace = run("dgd", problem, cycle5, inv_sqrt, max_iter=50, init=init)
        assert np.all(trace.states == 0.0)
        assert np.all(trace.final_states == 0.0)

    def test_suboptimality_drops(self, short_runs, quartic_problem, quartic_optimum):
        trace = short_runs["dgd"]
        _, f_star = quartic_optimum
        final = float(quartic_problem.total_value(trace.final_states.mean(axis=0))) - f_star
        early = max(float(quartic_problem.total_value(trace.states[r].mean(axis=0))) - f_star
                    for r in range(1, 10))
        assert final < 1e-6
        assert final <= early
        spread = np.linalg.norm(trace.states - trace.states.mean(axis=1, keepdims=True), axis=2)
        assert spread[-1].max() < spread[0].max()

    def test_states_stay_feasible(self, short_runs, wide_box):
        for trace in short_runs.values():
            assert np.all(trace.states >= wide_box.lower - 0.0)
            assert np.all(trace.states <= wide_box.upper + 0.0)


class TestReductionIdentities:
    def test_zero_delta_nb_equals_dgd(self, quartic_problem, cycle5, inv_sqrt):
        a = run("dgd", quartic_problem, cycle5, inv_sqrt, 300, init=INTERIOR_INIT)
        b = run("rss_nb", quartic_problem, cycle5, inv_sqrt, 300, delta=0.0, init=INTERIOR_INIT,
                seed=9)
        assert a.state_digest() == b.state_digest()

    def test_zero_delta_lb_equals_dgd(self, quartic_problem, cycle5, inv_sqrt):
        a = run("dgd", quartic_problem, cycle5, inv_sqrt, 300, init=INTERIOR_INIT)
        b = run("rss_lb", quartic_problem, cycle5, inv_sqrt, 300, delta=0.0, init=INTERIOR_INIT,
                seed=9)
        assert a.state_digest() == b.state_digest()

    def test_zero_noise_fs_equals_dgd(self, quartic_problem, cycle5, inv_sqrt):
        a = run("dgd", quartic_problem, cycle5, inv_sqrt, 300, init=INTERIOR_INIT)
        b = run("fs", quartic_problem, cycle5, inv_sqrt, 300, delta_coeff=0.0, d_max=8,
                init=INTERIOR_INIT, seed=9)
        assert a.state_digest() == b.state_digest()


class TestDeterminism:
    def test_same_seed_same_digest(self, quartic_problem, cycle5, inv_sqrt):
        kw = dict(delta=1.0, init=INTERIOR_INIT, seed=7)
        a = run("rss_nb", quartic_problem, cycle5, inv_sqrt, 200, **kw)
        b = run("rss_nb", quartic_problem, cycle5, inv_sqrt, 200, **kw)
        assert a.state_digest() == b.state_digest()
        np.testing.assert_array_equal(a.perturbations, b.perturbations)

    def test_different_seed_differs(self, quartic_problem, cycle5, inv_sqrt):
        a, b = (run("rss_nb", quartic_problem, cycle5, inv_sqrt, 200, delta=1.0,
                    init=INTERIOR_INIT, seed=seed) for seed in (7, 8))
        assert a.state_digest() != b.state_digest()


class TestTraceStructure:
    def test_round_count_matches_max_iter(self, short_runs):
        for trace in short_runs.values():
            assert trace.round_index.size == trace.max_iter
            assert trace.states.shape[0] == trace.max_iter

    def test_nb_perturbation_sums_cancel(self, short_runs):
        d = short_runs["nb"].perturbations
        assert np.abs(d.sum(axis=1)).max() < 1e-12

    def test_lb_weighted_sums_cancel(self, short_runs, cycle5):
        trace = short_runs["lb"]
        senders, receivers = cycle5.sender_edges
        b = cycle5.fuse_slots.entries(trace.weights)
        weighted = np.zeros((trace.round_index.size, 5, 1))
        for e, (j, i) in enumerate(zip(senders, receivers)):
            weighted[:, j] += b[i, j] * trace.perturbations[:, e]
        assert np.abs(weighted).max() < 1e-12

    def test_lb_message_support(self, short_runs, cycle5):
        trace = short_runs["lb"]
        assert trace.perturbations.shape == (400, 10, 1)  # one row per directed edge
        assert trace.messages.shape == (400, 10, 1)
        senders, receivers = cycle5.sender_edges
        sent = trace.messages - trace.states[:, senders]
        np.testing.assert_allclose(sent, trace.steps[:, None, None] * trace.perturbations,
                                   rtol=0, atol=1e-15)
        # an agent's own slot and its pads read the zero row past the edges
        slots = cycle5.fuse_slots
        off_edges = slots.senders == np.arange(5)
        assert np.all(slots.edges[off_edges] == senders.size)
        assert np.all(senders[slots.edges[~off_edges]] == slots.senders[~off_edges])
        assert np.all(receivers[slots.edges[~off_edges]] == np.nonzero(~off_edges)[1])

    def test_fusion_preserves_average(self, short_runs):
        for trace in short_runs.values():
            drift = np.abs(trace.fused_true.mean(axis=1) - trace.states.mean(axis=1))
            assert drift.max() < 1e-12

    def test_fused_noise_sums_to_zero(self, short_runs):
        for name in ("nb", "lb"):
            e = short_runs[name].fused_noise
            assert np.abs(e.sum(axis=1)).max() < 1e-12

    def test_json_round_trip_preserves_digest(self, short_runs, tmp_path):
        for name, trace in short_runs.items():
            path = tmp_path / f"{name}.json"
            save_trace(trace, path)
            loaded = po.ExecutionTrace.load(path)
            assert loaded.state_digest() == trace.state_digest()
            assert loaded.algorithm == trace.algorithm
            np.testing.assert_array_equal(loaded.final_states, trace.final_states)

    def test_downsampled_trace_has_audit_pairs(self, quartic_problem, cycle5, inv_sqrt):
        trace = run("rss_nb", quartic_problem, cycle5, inv_sqrt, 200, delta=1.0,
                    init=INTERIOR_INIT, seed=1, record_every=25)
        idx = set(trace.round_index.tolist())
        assert 1 in idx and 200 in idx
        audited = [k for k in idx if k + 1 in idx or k == 200]
        assert len(audited) >= 8


@pytest.fixture(scope="module")
def quad_problem():
    mats = [np.diag([2.0 + i, 1.0 + 0.5 * i]) for i in range(5)]
    vecs = [np.array([0.5 * i - 1.0, 1.0 - 0.3 * i]) for i in range(5)]
    return po.GlobalProblem(
        objectives=[po.QuadraticObjective(m, v) for m, v in zip(mats, vecs)],
        feasible=po.Box([-4.0, -4.0], [4.0, 4.0]))


def test_locally_balanced_needs_a_neighbor(wide_box, inv_sqrt):
    problem = po.GlobalProblem(objectives=[po.PolynomialObjective([0, 0, 1])],
                               feasible=wide_box)
    solo = po.Topology.from_edges(1, [])
    with pytest.raises(ValueError):
        run("rss_lb", problem, solo, inv_sqrt, 5, delta=1.0, init=np.array([[1.0]]), seed=0)


class TestMultivariateRuns:

    @pytest.mark.parametrize("algorithm", ["rss_nb", "rss_lb"])
    def test_invariants_and_lemmas_in_two_dimensions(self, quad_problem, cycle5,
                                                     inv_sqrt, algorithm):
        from privopt.analysis import (audit_invariants, check_lemma1, check_lemma2,
                                      effective_bounds)

        init = np.stack([np.linspace(-1, 1, 5), np.linspace(1, -1, 5)], axis=1)
        trace = run(algorithm, quad_problem, cycle5, inv_sqrt, 500, delta=2.0, init=init, seed=14)
        assert audit_invariants(trace).passed
        bounds = effective_bounds(trace)
        assert check_lemma1(trace, bounds).passed
        x_star, _ = po.solve_centralized(quad_problem)
        assert check_lemma2(trace, x_star).passed
        final = quad_problem.total_value(trace.final_states.mean(axis=0))
        _, f_star = po.solve_centralized(quad_problem)
        assert float(final) - f_star < 1e-2


class TestSelfInclusiveWeights:
    def test_lazy_matrix_keeps_invariants(self, quartic_problem, cycle5, inv_sqrt,
                                          quartic_optimum, tmp_path):
        from privopt.analysis import audit_invariants, check_lemma1, check_lemma2, effective_bounds

        lazy = po.metropolis_weights(cycle5, self_inclusive_degree=True)
        trace = run("rss_lb", quartic_problem, cycle5, inv_sqrt, 300, delta=1.0,
                    init=INTERIOR_INIT, seed=6, metropolis_self_inclusive=True)
        assert trace.config["metropolis_self_inclusive"]
        report = audit_invariants(trace)
        assert report.passed, report.violations
        bounds = effective_bounds(trace)
        assert bounds.rho == pytest.approx(0.25)
        assert check_lemma1(trace, bounds).passed
        assert check_lemma2(trace, quartic_optimum[0]).passed
        save_trace(trace, tmp_path / "t.json")
        loaded = po.ExecutionTrace.load(tmp_path / "t.json")
        assert_bit_equal(loaded.weights, lazy.weights)
        assert loaded.config == trace.config


class TestFunctionSharing:
    def test_requires_polynomial_objectives(self, wide_box, cycle5, inv_sqrt):
        problem = po.GlobalProblem(
            objectives=[po.LogisticObjective(seed=i, dim=1) for i in range(5)],
            feasible=po.Box([-5.0], [5.0]))
        with pytest.raises(po.ConfigError, match="function sharing requires polynomial"):
            run("fs", problem, cycle5, inv_sqrt, 10, delta_coeff=0.5, d_max=8)

    def test_obfuscated_sum_matches_original(self, short_runs):
        trace = short_runs["fs"]
        total = trace.obfuscated.sum(axis=0)
        expected = np.zeros_like(total)
        expected[0, 2] = 3.5
        expected[0, 4] = 3.5
        assert np.abs(total - expected).max() < 1e-9

    def test_nonconvex_obfuscation_still_converges(self, quartic_problem, cycle5,
                                                   inv_sqrt, quartic_optimum):
        # hand-built noise: agent 0 receives -x^4, making its local objective
        # concave in the quartic direction, while the sum is untouched
        from privopt.noise import obfuscate

        fns = np.zeros((10, 1, 9))  # one row per directed edge; edge 0 is (0, 1)
        fns[0, 0, 4] = 2.0  # agent 0 sheds +2x^4
        obfuscated = obfuscate(quartic_problem.objectives, fns, cycle5)
        floor = interval_extrema(derivative(obfuscated[0].poly.coeffs, 2), -30.0, 30.0)[0].min()
        assert floor < 0  # genuinely non-convex on the box
        sub = po.GlobalProblem(objectives=obfuscated, feasible=quartic_problem.feasible,
                               validate_convexity=False)
        _, final_states = reference_dgd(sub, po.metropolis_weights(cycle5), inv_sqrt, 3000,
                                        INTERIOR_INIT)
        _, f_star = quartic_optimum
        final = float(quartic_problem.total_value(final_states.mean(axis=0))) - f_star
        assert final < 1e-3

    def test_trace_records_noise_and_bounds(self, short_runs):
        trace = short_runs["fs"]
        assert (trace.delta_coeff, trace.d_max, trace.delta) == (0.5, 8, 0.0)
        assert trace.noise.shape == (10, 1, 9)  # both directions of 5 cycle edges
        grad_bound, smoothness = trace.gradient_bounds
        assert grad_bound > trace.problem.constants()[0] and smoothness > 0

    def test_random_noise_run_converges_to_optimum(self, quartic_problem, cycle5,
                                                   inv_sqrt, quartic_optimum):
        trace = run("fs", quartic_problem, cycle5, inv_sqrt, 3000, delta_coeff=0.1, d_max=4,
                    init=INTERIOR_INIT, seed=13)
        _, f_star = quartic_optimum
        final = float(quartic_problem.total_value(trace.final_states.mean(axis=0))) - f_star
        assert final < 1e-3
        assert abs(trace.final_states.mean()) < 0.05  # consensus near the optimum


def _fuse_reference(b, messages):
    """The dense fuse: row j is sum_i B[j, i] * messages[i, j] over all n senders.

    ``messages`` must be a materialized (n, n, D) array, as the engine's
    message buffer was: on a broadcast view with a zero stride, einsum adds
    the senders in another order and can differ in the last bit."""
    return np.einsum("ji,ijd->jd", b, messages)


def per_round_reference(trace) -> dict:
    """The derived arrays by the dense fuse of the (n, n, D) message tensors,
    one round at a time."""
    n, dim = trace.n, trace.dim
    per_edge = trace.algorithm == "rss_lb"
    out = {name: [] for name in DERIVED}
    for r in range(trace.round_index.size):
        x, alpha = trace.states[r], trace.steps[r]
        b = trace.topology.fuse_slots.entries(trace.weights)
        d = trace.perturbations[r]
        if per_edge:
            noise = np.zeros((n, n, dim))
            for e, (j, i) in enumerate(zip(*trace.topology.sender_edges)):
                noise[j, i] = d[e]
        else:
            noise = np.repeat(d[:, None, :], n, axis=1)
        spread = np.repeat(x[:, None, :], n, axis=1)
        msgs = spread + alpha * noise
        out["messages"].append(msgs[trace.topology.sender_edges] if per_edge else msgs[:, 0, :])
        out["fused"].append(_fuse_reference(b, msgs))
        out["fused_true"].append(_fuse_reference(b, spread))
        out["fused_noise"].append(_fuse_reference(b, noise))
    return {name: np.array(rows) for name, rows in out.items()}


def assert_bit_equal(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def _derived_cases(quartic_problem, quad_problem, cycle5, inv_sqrt):
    lazy = dict(init=INTERIOR_INIT, metropolis_self_inclusive=True)
    init2 = np.stack([np.linspace(-1, 1, 5), np.linspace(1, -1, 5)], axis=1)
    cases = dict(canonical_traces())
    for name in ("rss_nb", "rss_lb"):
        cases[f"{name}/lazy"] = run(name, quartic_problem, cycle5, inv_sqrt, 60, delta=1.0,
                                    seed=6, **lazy)
        cases[f"{name}/record_every"] = run(name, quad_problem, cycle5, inv_sqrt, 90, delta=2.0,
                                            init=init2, seed=14, record_every=7)
    cases["dgd/lazy"] = run("dgd", quartic_problem, cycle5, inv_sqrt, 60, **lazy)
    cases["fs/record_every"] = run("fs", quartic_problem, cycle5, inv_sqrt, 90, delta_coeff=0.1,
                                   d_max=4, init=INTERIOR_INIT, seed=5, record_every=7)
    return cases


class TestDerivedArrays:
    """messages, fused, fused_true and fused_noise are derived from the primary
    arrays; they must equal the per-round engine formulas bit for bit."""

    @pytest.fixture(scope="class")
    def cases(self, quartic_problem, quad_problem, cycle5, inv_sqrt):
        return _derived_cases(quartic_problem, quad_problem, cycle5, inv_sqrt)

    def test_cases_cover_lazy_weights_and_downsampling(self, cases):
        assert sum(t.config["metropolis_self_inclusive"] for t in cases.values()) == 3
        assert sum(not t.complete for t in cases.values()) == 3

    @pytest.mark.parametrize("reload", [False, True], ids=["memory", "reloaded"])
    def test_bit_identical_to_per_round_formulas(self, cases, reload, tmp_path):
        for name, trace in cases.items():
            if reload:
                save_trace(trace, tmp_path / "t.json")
                trace = po.ExecutionTrace.load(tmp_path / "t.json")
            expected = per_round_reference(trace)
            for attr in DERIVED:
                assert_bit_equal(getattr(trace, attr), expected[attr])

    def test_reload_keeps_primary_arrays(self, cases, tmp_path):
        for trace in cases.values():
            save_trace(trace, tmp_path / "t.json")
            loaded = po.ExecutionTrace.load(tmp_path / "t.json")
            for attr in ("round_index", "steps", "states", "perturbations", "final_states",
                         "weights"):
                assert_bit_equal(getattr(loaded, attr), getattr(trace, attr))
            if trace.shares is None:
                assert loaded.shares is None
            else:
                assert_bit_equal(loaded.shares, trace.shares)

    def test_derived_arrays_are_cached_and_read_only(self, short_runs):
        trace = short_runs["lb"]
        for attr in DERIVED:
            value = getattr(trace, attr)
            assert getattr(trace, attr) is value
            assert not value.flags.writeable
        assert trace.messages.shape == (400, 10, 1)  # on the directed edges
        assert short_runs["nb"].messages.shape == (400, 5, 1)


def _random_connected(n, extra, rng):
    """A random spanning tree on n agents plus ``extra`` random edges."""
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = sorted(int(a) for a in rng.choice(n, 2, replace=False))
        edges.add((u, v))
    return po.Topology.from_edges(n, edges)


def _signed_zeros(rng, shape, share=0.3):
    """Random values with about ``share`` of them replaced by +0.0 or -0.0."""
    values = rng.standard_normal(shape)
    zero = rng.random(shape) < share
    values[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    return values


class TestSlotFuse:
    """The slot fuse adds each agent's in-neighbours in ascending order from
    +0.0, so it equals the dense fuse over all n senders bit for bit."""

    TOPOLOGIES = {
        "cycle": po.Topology.family("cycle", 7),
        "path": po.Topology.family("path", 6),
        "star": po.Topology.family("star", 9),
        "complete": po.Topology.family("complete", 6),
        "petersen": po.Topology.family("petersen", 10),
        "random": _random_connected(23, 30, np.random.default_rng(0)),
    }

    @staticmethod
    def _slot_weights(topology, rng, rounds_shape):
        """Random nonnegative (..., K, n) slot weights, some of them exact
        zeros, +0.0 on the pads."""
        slots = topology.fuse_slots
        shape = rounds_shape + slots.senders.shape
        weights = rng.random(shape) * (rng.random(shape) > 0.1)
        return np.where(slots.live, weights, 0.0)

    @staticmethod
    def _slot_messages(topology, dense):
        """(..., K, n, D) slot gather of (..., n, n, D) messages [i, j] from i to j."""
        slots = topology.fuse_slots
        return dense[..., slots.senders, np.arange(topology.n), :]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_matches_dense_fuse(self, name, dim):
        topology = self.TOPOLOGIES[name]
        n = topology.n
        rng = np.random.default_rng([dim, n])
        for _ in range(20):
            w = self._slot_weights(topology, rng, ())
            dense = _signed_zeros(rng, (n, n, dim))
            dense[:, rng.integers(0, n)] = -0.0  # one agent receives only -0
            fused = _slot_fuse(w, self._slot_messages(topology, dense))
            assert_bit_equal(fused, _fuse_reference(topology.fuse_slots.entries(w), dense))

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_weights_series_matches_per_round_dense_fuse(self, name):
        topology = self.TOPOLOGIES[name]
        n, rounds, dim = topology.n, 6, 2
        rng = np.random.default_rng([7, n])
        series = self._slot_weights(topology, rng, (rounds,))
        dense = _signed_zeros(rng, (rounds, n, n, dim))
        fused = _slot_fuse(series, self._slot_messages(topology, dense))
        expected = np.array([_fuse_reference(topology.fuse_slots.entries(series[r]), dense[r])
                             for r in range(rounds)])
        assert_bit_equal(fused, expected)

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_entries_invert_weights(self, name):
        # the pads of the star and path point at the agent's own column, so
        # scattering them would overwrite its self weight
        topology = self.TOPOLOGIES[name]
        rng = np.random.default_rng([11, topology.n])
        series = self._slot_weights(topology, rng, (3,))
        slots = topology.fuse_slots
        n = topology.n
        for weights in series:
            dense = slots.entries(weights)
            gathered = np.where(slots.live, dense[np.arange(n), slots.senders], 0.0)
            assert_bit_equal(gathered, weights)
            assert np.count_nonzero(dense) == np.count_nonzero(weights)

    def test_slot_table_lists_ascending_in_neighbours(self):
        for topology in self.TOPOLOGIES.values():
            slots = topology.fuse_slots
            assert slots.senders.shape == (topology.degrees().max() + 1, topology.n)
            for j in range(topology.n):
                hood = topology.neighbors(j)
                assert tuple(slots.senders[slots.live[:, j], j]) == hood
                assert np.all(slots.senders[~slots.live[:, j], j] == j)


class TestSupportGuard:
    """The slots hold only the self-inclusive neighbourhoods, so a fusion
    matrix with a weight off them is refused when it is built."""

    def test_fixed_matrix_off_support_raises(self):
        path5 = po.Topology.family("path", 5)
        weights = po.metropolis_weights(path5).weights.copy()
        weights[tuple(np.argwhere(~path5.fuse_slots.live)[0])] = 1e-13
        with pytest.raises(GraphError, match="pad slot, off the self-inclusive neighbourhoods"):
            po.FusionMatrix(path5, weights)



def test_fuse_memory_grows_with_edges_not_agent_pairs(inv_sqrt):
    """No step from building the weights to auditing a trace holds an (n, n)
    array or an (n, n, D) message tensor: on a 3000-cycle, building the
    Metropolis weights, four rounds of each algorithm, a to_json_dict ->
    from_json_dict round trip of each trace and its invariants audit each
    peak below a quarter of one (n, n) float64 matrix."""
    n = 3000
    topology = po.Topology.family("cycle", n)
    problem = po.GlobalProblem(
        objectives=[po.QuadraticObjective([[1.0 + i % 3]], [0.1 * (i % 7) - 0.3]) for i in range(n)],
        feasible=po.Box([-10.0], [10.0]))
    limit = n * n * 8 / 4

    def traced(what, step):
        tracemalloc.start()
        try:
            result = step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, f"{what} peaked at {peak / 2**20:.1f} MB"
        return result

    traced("metropolis_weights", lambda: po.metropolis_weights(topology))
    for name, keys in (("dgd", {}), ("rss_nb", {"delta": 1.0, "seed": 1}),
                       ("rss_lb", {"delta": 1.0, "seed": 1})):
        trace = traced(name, lambda: run(name, problem, topology, inv_sqrt, 4, **keys))
        traced(f"{name} round trip",
               lambda: po.ExecutionTrace.from_json_dict(trace.to_json_dict()))
        assert traced(f"{name} audit", lambda: audit_invariants(trace)).passed


def _sparse_quadratic_problem(n):
    return po.GlobalProblem(
        objectives=[po.QuadraticObjective(np.eye(2) * (1.0 + 0.1 * i), [0.2 * i - 1.0, 0.5])
                    for i in range(n)],
        feasible=po.Box([-4.0, -4.0], [4.0, 4.0]))


def _per_round_run(problem, topology, schedule, algorithm, delta, max_iter, init, seed,
                   matrix, step=dgd_step):
    """States and final state of a dgd or rss run stepped one round at a time
    by ``step``, each round's noise drawn alone: the reference for the
    engine's round blocks."""
    slots, dim = topology.fuse_slots, problem.dim
    streams = po.RandomStreams(seed)
    x, states = np.array(init, dtype=float), []
    weights = matrix.weights
    for k, alpha in enumerate(schedule.steps(max_iter), start=1):
        if algorithm == "dgd":
            msgs = x[slots.senders]
        elif algorithm == "rss_nb":
            shares = po.draw_nb_shares(topology, k, 1, delta, streams, dim)
            msgs = (x + alpha * po.nb_perturbation(shares, topology)[0])[slots.senders]
        else:
            noise = po.draw_lb_perturbation(topology, slots.edge_weights(weights), delta,
                                            k, 1, streams, dim)[0]
            noise = np.concatenate([noise, np.zeros((1, dim))])
            msgs = x[slots.senders] + alpha * noise[slots.edges]
        states.append(x)
        x = step(problem, weights, msgs, alpha, k)
    return np.array(states), x


def _isfinite_step(problem, weights, messages, alpha, k):
    """The step with the finiteness check it had before the one-sum gate:
    fuse, descend and ``np.clip`` into fresh arrays, then ``np.isfinite`` of
    every entry."""
    fused = _slot_fuse(weights, messages)
    box = problem.feasible
    x_next = np.clip(fused - alpha * problem.agent_gradients(fused), box.lower, box.upper)
    if not np.isfinite(x_next).all():
        raise po.engine.NonFiniteError(f"round {k}: a next state is not finite")
    return x_next


class TestRoundBlocks:
    """The engine draws noise a block of ``block_rounds`` rounds at a time;
    nothing a run records or does may show where the blocks begin."""

    @pytest.mark.parametrize("algorithm", ["rss_nb", "rss_lb"])
    def test_recorded_noise_is_each_rounds_own_draw(self, cycle5, inv_sqrt, algorithm):
        problem = _sparse_quadratic_problem(5)
        block = block_rounds(10, 2)
        max_iter = 2 * block + 30  # two interior block boundaries
        trace = run(algorithm, problem, cycle5, inv_sqrt, max_iter, delta=1.0, seed=9,
                    record_every=7)
        assert trace.round_index[-1] == max_iter and trace.round_index.size > 2 * max_iter // 7
        streams, edge_weights = po.RandomStreams(9), cycle5.fuse_slots.edge_weights(trace.weights)
        for row, k in enumerate(trace.round_index):
            if algorithm == "rss_nb":
                shares = po.draw_nb_shares(cycle5, k, 1, 1.0, streams, 2)
                assert_bit_equal(trace.shares[row], shares[0])
                assert_bit_equal(trace.perturbations[row], po.nb_perturbation(shares, cycle5)[0])
            else:
                noise = po.draw_lb_perturbation(cycle5, edge_weights, 1.0, k, 1, streams, 2)
                assert_bit_equal(trace.perturbations[row], noise[0])

    @pytest.mark.parametrize("reload", [False, True], ids=["memory", "reloaded"])
    def test_derived_nb_perturbations_are_the_added_noise(self, cycle5, inv_sqrt, monkeypatch,
                                                          reload, tmp_path):
        """A down-sampled rss_nb trace stores the shares; the perturbations it
        derives from them are the ones the run added, block after block."""
        added = []

        def spy(shares, topology):
            added.append(po.nb_perturbation(shares, topology))
            return added[-1]

        monkeypatch.setattr(po.engine, "nb_perturbation", spy)
        max_iter = 3 * block_rounds(10, 2) + 5
        trace = run("rss_nb", _sparse_quadratic_problem(5), cycle5, inv_sqrt, max_iter,
                    delta=1.0, seed=9, record_every=7)
        monkeypatch.undo()
        assert len(added) == 4  # the run's noise blocks
        if reload:
            save_trace(trace, tmp_path / "t.json")
            trace = po.ExecutionTrace.load(tmp_path / "t.json")
        assert_bit_equal(trace.perturbations, np.concatenate(added)[trace.round_index - 1])

    @pytest.mark.parametrize("reload", [False, True], ids=["memory", "reloaded"])
    @pytest.mark.parametrize("record_every", [1, 7])
    def test_fs_obfuscated_is_the_runs_problem(self, quartic_problem, complete5, inv_sqrt,
                                               monkeypatch, record_every, reload, tmp_path):
        """An fs trace derives its obfuscated objectives; they are the
        coefficients of the sub-problem the run descended on."""
        obfuscated = []

        def spy(objectives, noise, topology):
            obfuscated.extend(po.obfuscate(objectives, noise, topology))
            return obfuscated

        monkeypatch.setattr(po.engine, "obfuscate", spy)
        trace = run("fs", quartic_problem, complete5, inv_sqrt, 30, delta_coeff=0.5, d_max=8,
                    init=INTERIOR_INIT, seed=4, record_every=record_every)
        monkeypatch.undo()
        if reload:
            save_trace(trace, tmp_path / "t.json")
            trace = po.ExecutionTrace.load(tmp_path / "t.json")
        assert_bit_equal(trace.obfuscated, np.stack([obj.poly.coeffs for obj in obfuscated]))

    @pytest.mark.parametrize("algorithm", ["rss_nb", "rss_lb"])
    def test_blocks_match_a_per_round_run(self, inv_sqrt, algorithm):
        n, max_iter = 100, 200
        topology = po.Topology.family("cycle", n)
        assert block_rounds(2 * n, 2) < max_iter // 2
        problem = _sparse_quadratic_problem(n)
        lazy = po.metropolis_weights(topology, self_inclusive_degree=True)
        trace = run(algorithm, problem, topology, inv_sqrt, max_iter, delta=1.0, seed=4,
                    metropolis_self_inclusive=True)
        states, final = _per_round_run(problem, topology, inv_sqrt, algorithm, 1.0, max_iter,
                                       trace.init, 4, lazy)
        assert_bit_equal(trace.states, states)
        assert_bit_equal(trace.final_states, final)
        assert trace.state_digest() == po.engine.digest_states(
            max_iter, trace.round_index, trace.init, states, final)

    @pytest.mark.parametrize("algorithm", ["dgd", "rss_nb", "rss_lb"])
    @pytest.mark.parametrize("bad", [7, 81, 83])
    def test_non_finite_state_names_its_own_round(self, inv_sqrt, algorithm, bad, monkeypatch):
        n = 100
        topology = po.Topology.family("cycle", n)
        assert block_rounds(2 * n, 2) == 81  # round 81 ends the first block, 83 is inside the next
        keys = {} if algorithm == "dgd" else {"delta": 1.0, "seed": 1}
        config = RunConfig.from_dict(run_doc(algorithm, _sparse_quadratic_problem(n), topology,
                                             inv_sqrt, 200, record_every=50, **keys))
        # the agent gradients are NaN at one evaluation, the bad-th
        calls, gradients = [], po.GlobalProblem.agent_gradients

        def failing(problem, x):
            calls.append(None)
            out = gradients(problem, x)
            return out * np.nan if len(calls) == bad else out

        monkeypatch.setattr(po.GlobalProblem, "agent_gradients", failing)
        with pytest.raises(po.engine.NonFiniteError, match=f"^round {bad}: "):
            with np.errstate(invalid="ignore"):
                execute(config)
        assert len(calls) == bad


class TestFinitenessGate:
    @pytest.mark.parametrize("algorithm", ["dgd", "rss_nb", "rss_lb"])
    def test_overflowing_state_sum_is_not_an_error(self, cycle5, inv_sqrt, algorithm):
        """On a +-1e308 box, descents that push every agent against the upper
        wall keep the states finite, but their sum overflows to inf every
        round. The run neither fails nor warns, and it matches a per-round
        reference that checks every entry."""
        init = np.full((5, 1), 1e308)
        metropolis = po.metropolis_weights(cycle5)
        keys = {} if algorithm == "dgd" else {"delta": 1.0, "seed": 6}
        with np.errstate(over="ignore", invalid="ignore"):  # the convexity grid overflows
            problem = po.GlobalProblem(
                objectives=[po.PolynomialObjective([0.0, -1.0 - j]) for j in range(5)],
                feasible=po.Box([-1e308], [1e308]))
            config = RunConfig.from_dict(run_doc(algorithm, problem, cycle5, inv_sqrt, 70,
                                                 init=init, **keys))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = execute(config)
        with np.errstate(over="ignore", invalid="ignore"):
            states, final = _per_round_run(problem, cycle5, inv_sqrt, algorithm, 1.0, 70, init,
                                           6, metropolis, step=_isfinite_step)
            sums = np.add.reduce(np.concatenate([trace.states, trace.final_states[None]]),
                                 axis=(1, 2))
        assert np.isinf(sums).all() and np.isfinite(trace.states).all()
        assert_bit_equal(trace.states, states)
        assert_bit_equal(trace.final_states, final)


class TestTraceFile:
    def test_rounds_hold_only_primary_arrays(self, short_runs):
        for name, trace in short_runs.items():
            doc = trace.to_json_dict()
            assert set(doc) == DOCUMENT_KEYS
            assert (doc["noise"] is None) == (name == "dgd")

    def test_config_round_trips(self, short_runs):
        """An API-built trace's config is the canonical dict of its run
        arguments: loading it through ``RunConfig`` gives it back, with the
        digest."""
        for name, trace in short_runs.items():
            doc = json.loads(json.dumps(trace.to_json_dict()))
            assert RunConfig.from_dict(doc["config"]).canonical_dict() == trace.config
            loaded = po.ExecutionTrace.from_json_dict(doc)
            assert loaded.config == trace.config
            assert loaded.state_digest() == trace.state_digest()
            assert (loaded.seed, loaded.delta) == ({"dgd": (None, 0.0), "nb": (3, 1.0),
                                                    "lb": (3, 1.0), "fs": (3, 0.0)}[name])
            assert loaded.init.tolist() == INTERIOR_INIT.tolist()

    def test_specs_with_an_enforce_convex_member_still_load(self, short_runs):
        """Trace files of earlier releases carry ``"enforce_convex": true`` in
        every polynomial objective spec. Such a member is ignored: the trace
        loads with the same problem and state digest."""
        for trace in short_runs.values():
            doc = json.loads(json.dumps(trace.to_json_dict()))
            for spec in doc["config"]["objectives"]:
                assert set(spec) == {"kind", "coeffs"}
                spec["enforce_convex"] = True
            loaded = po.ExecutionTrace.from_json_dict(doc)
            assert loaded.problem.to_spec() == trace.problem.to_spec()
            assert loaded.state_digest() == trace.state_digest()

    def test_canonical_dict_of_the_required_keys_pins_every_default(self):
        required = {"algorithm": "dgd", "topology": {"family": "cycle", "n": 3},
                    "objectives": [{"kind": "polynomial", "coeffs": [0, 0, 1]}] * 3,
                    "feasible": {"lower": [-1], "upper": [1]},
                    "schedule": {"kind": "inv_sqrt"}, "max_iter": 10}
        config = RunConfig.from_dict(required)
        # the key order is the one every trace file stores
        assert list(config.canonical_dict().items()) == list({
            **required, "delta": 0.0, "delta_coeff": 0.0, "d_max": 8, "seed": 0,
            "record_every": 1, "metropolis_self_inclusive": False}.items())
        assert config.init is None and config.output_basename == "run"

    def test_default_init_is_not_stored(self, quartic_problem, cycle5, inv_sqrt):
        trace = run("dgd", quartic_problem, cycle5, inv_sqrt, 5)
        assert "init" not in trace.config
        loaded = po.ExecutionTrace.from_json_dict(json.loads(json.dumps(trace.to_json_dict())))
        assert_bit_equal(loaded.init, po.default_init(quartic_problem.feasible, 5))
        assert loaded.state_digest() == trace.state_digest()

    def test_config_from_a_config_file(self):
        """A run of a config file records the config of its arguments: the
        objectives as the problem writes them, the topology as its edges."""
        config = RunConfig.from_file(CONFIGS / "poly_cycle_run.json")
        trace = execute(config)
        problem = config.build_problem()
        assert trace.problem is problem
        assert {k: trace.config[k] for k in ("objectives", "feasible")} == problem.to_spec()
        assert trace.config["topology"] == config.build_topology().to_spec()
        assert {k: trace.config[k] for k in ("algorithm", "max_iter", "delta", "seed")} == {
            k: getattr(config, k) for k in ("algorithm", "max_iter", "delta", "seed")}

    def test_edge_arrays_on_sparse_cycle(self, inv_sqrt):
        n = 12
        topology = po.Topology.family("cycle", n)
        problem = _sparse_quadratic_problem(n)
        assert topology.sender_edges[0].size == 2 * n
        nb = run("rss_nb", problem, topology, inv_sqrt, 30, delta=1.0, seed=2, record_every=10)
        lb = run("rss_lb", problem, topology, inv_sqrt, 30, delta=1.0, seed=2, record_every=10)
        r_count = nb.round_index.size
        for trace, attr in ((nb, "shares"), (lb, "perturbations")):
            stored = decoded(trace.to_json_dict()["noise"])
            assert stored.shape == (r_count, 2 * n, 2)
            assert_bit_equal(stored, getattr(trace, attr))
        assert nb.perturbations.shape == (r_count, n, 2)

    def test_version_2_document_raises(self, short_runs):
        doc = short_runs["nb"].to_json_dict()
        doc["version"] = 2
        with pytest.raises(TraceError, match="unsupported trace version: 2"):
            po.ExecutionTrace.from_json_dict(doc)

    def test_version_3_document_raises(self, short_runs):
        doc = short_runs["fs"].to_json_dict()
        doc["version"] = 3
        with pytest.raises(TraceError, match="unsupported trace version: 3"):
            po.ExecutionTrace.from_json_dict(doc)

    def test_zero_perturbations_are_not_stored(self, short_runs):
        for name, trace in short_runs.items():
            loaded = po.ExecutionTrace.from_json_dict(json.loads(json.dumps(trace.to_json_dict())))
            assert_bit_equal(loaded.perturbations, trace.perturbations)
            assert (not trace.perturbations.any()) == (name in ("dgd", "fs"))

    def test_weights_are_derived_from_the_config(self, quartic_problem, cycle5, inv_sqrt):
        """A trace stores no weights: loading derives the config's Metropolis
        matrix, of either kind, and the audit accepts the trace with it."""
        for algorithm in ("rss_nb", "rss_lb"):
            for self_inclusive in (False, True):
                trace = run(algorithm, quartic_problem, cycle5, inv_sqrt, 60, delta=1.0,
                            init=INTERIOR_INIT, seed=5, metropolis_self_inclusive=self_inclusive)
                doc = json.loads(json.dumps(trace.to_json_dict()))
                assert "weights" not in doc
                loaded = po.ExecutionTrace.from_json_dict(doc)
                assert_bit_equal(loaded.weights,
                                 po.metropolis_weights(cycle5, self_inclusive).weights)
                report = audit_invariants(loaded)
                assert report.passed, report.violations

    # sha256 of json.dumps([index, step, states]) of the rounds of each shipped
    # config's trace as number lists, taken before the trace dropped its
    # derived arrays
    SHIPPED = {
        "poly_cycle_run.json": "318670403f3a8ba5048c6ae048ce880353c311314f3225ed0f874389b70d8b9f",
        "fs_complete_run.json": "c776a16163e3901ac718d1d5015cd31d889e83d83a5c52ce6a0cb46b87e598fd",
    }

    @pytest.mark.parametrize("config", sorted(SHIPPED))
    def test_shipped_config_lists_unchanged(self, config):
        trace = execute(RunConfig.from_file(CONFIGS / config))
        states = decoded(trace.to_json_dict()["states"])
        text = json.dumps([trace.round_index.tolist(), trace.steps.tolist(), states.tolist()])
        assert hashlib.sha256(text.encode()).hexdigest() == self.SHIPPED[config]


class TestLoadChecks:
    """A trace whose arrays do not fit its header raises TraceError on load."""

    @pytest.fixture(scope="class")
    def docs(self, quartic_problem, cycle5, inv_sqrt):
        kw = dict(init=INTERIOR_INIT, seed=4, record_every=5)
        return {
            "dgd": run("dgd", quartic_problem, cycle5, inv_sqrt, 30, init=INTERIOR_INIT),
            "rss_nb": run("rss_nb", quartic_problem, cycle5, inv_sqrt, 30, delta=1.0, **kw),
            "rss_lb": run("rss_lb", quartic_problem, cycle5, inv_sqrt, 30, delta=1.0, **kw),
            "fs": run("fs", quartic_problem, cycle5, inv_sqrt, 30, delta_coeff=0.5, d_max=8, **kw),
        }

    @staticmethod
    def _doc(trace):
        return json.loads(json.dumps(trace.to_json_dict()))

    @pytest.mark.parametrize("algorithm", ["dgd", "rss_nb", "rss_lb", "fs"])
    def test_untouched_documents_load(self, docs, algorithm):
        trace = docs[algorithm]
        loaded = po.ExecutionTrace.from_json_dict(self._doc(trace))
        assert loaded.state_digest() == trace.state_digest()

    @pytest.mark.parametrize("algorithm, key, change, match", [
        ("rss_lb", "states", lambda v: v.tolist(), "states is not an encoded array"),
        ("rss_lb", "states", lambda v: {**encode_array(v), "base64": "*" + encode_array(v)["base64"][1:]},
         "states is not valid base64"),
        ("rss_lb", "states", lambda v: {**encode_array(v[:-1]), "shape": list(v.shape)},
         r"states holds \d+ bytes, expected \d+"),
    ])
    def test_mismatch_raises(self, docs, algorithm, key, change, match):
        doc = self._doc(docs[algorithm])
        edit_array(doc, (key,), change)
        with pytest.raises(TraceError, match=match):
            po.ExecutionTrace.from_json_dict(doc)

    @pytest.mark.parametrize("algorithm, change, match", [
        ("rss_nb", lambda v: v[:, :-1], r"noise has shape \(13, 9, 1\), expected \(13, 10, 1\)"),
        ("rss_nb", lambda v: None, "noise is not an encoded array"),
        ("rss_lb", lambda v: v[:, :-1], r"noise has shape \(13, 9, 1\), expected \(13, 10, 1\)"),
        ("rss_lb", lambda v: with_entry(v, (2, 3, 0), np.inf), "noise holds a non-finite value"),
        ("fs", lambda v: v[..., :-1], r"noise has shape \(10, 1, 8\), expected \(10, 1, 9\)"),
        ("fs", lambda v: v[:-1], r"noise has shape \(9, 1, 9\), expected \(10, 1, 9\)"),
        ("fs", lambda v: with_entry(v, (4, 0, 1), np.nan), "noise holds a non-finite value"),
        ("dgd", lambda v: np.zeros((30, 10, 1)), "dgd draws no noise, so its trace stores none"),
    ])
    def test_noise_checked(self, docs, algorithm, change, match):
        doc = self._doc(docs[algorithm])
        edit_array(doc, ("noise",), change)
        with pytest.raises(TraceError, match=match):
            po.ExecutionTrace.from_json_dict(doc)

    def test_fs_noise_in_another_edge_order_fails_the_audit(self, docs):
        # The edge order of fs noise is the topology's, so it is not stored and
        # a reordered array loads; the obfuscated objectives it yields no longer
        # explain the recorded states.
        doc = self._doc(docs["fs"])
        assert audit_invariants(po.ExecutionTrace.from_json_dict(doc)).passed
        edit_array(doc, ("noise",), lambda v: v[::-1])
        report = audit_invariants(po.ExecutionTrace.from_json_dict(doc))
        assert [v["invariant"] for v in report.violations] == ["gradient_noise_perspective"]

    def test_header_arrays_checked(self, docs):
        doc = self._doc(docs["dgd"])
        edit_array(doc, ("final_states",), lambda v: v[:-1])
        with pytest.raises(TraceError, match=r"final_states has shape \(4, 1\)"):
            po.ExecutionTrace.from_json_dict(doc)

    @pytest.mark.parametrize("key, value, match", [
        ("record_every", 0, "record_every must be a positive integer, got 0"),
        ("record_every", -3, "record_every must be a positive integer, got -3"),
        ("record_every", 1.0, "record_every must be a positive integer, got 1.0"),
        ("max_iter", 0, "max_iter must be a positive integer, got 0"),
        ("max_iter", "30", "max_iter must be a positive integer"),
        ("seed", "abc", "seed must be a non-negative integer, got 'abc'"),
        ("seed", -1.5, "seed must be a non-negative integer, got -1.5"),
        ("seed", -1, "seed must be a non-negative integer, got -1"),
        ("d_max", True, "d_max must be a non-negative integer, got True"),
        ("schedule", [], "schedule: AttributeError"),
        ("algorithm", "sgd", "unknown algorithm 'sgd'"),
    ])
    def test_header_values_checked(self, docs, key, value, match):
        doc = self._doc(docs["rss_nb"])
        doc["config"][key] = value
        with pytest.raises(TraceError, match="config: " + match):
            po.ExecutionTrace.from_json_dict(doc)

    CONFIG_CASES = {
        "missing_states": (lambda d: d.pop("states"), "a trace document holds the keys"),
        "unknown_key": (lambda d: d.update(provenance={}), "a trace document holds the keys"),
        "config_not_an_object": (lambda d: d.update(config=[]),
                                 "config: run config must be a JSON object"),
        "delta_coeff_string": (lambda d: d["config"].update(delta_coeff="abc"),
                               "config: delta_coeff must be a JSON number, got 'abc'"),
        "self_inclusive_string": (
            lambda d: d["config"].update(metropolis_self_inclusive="false"),
            "config: metropolis_self_inclusive must be a JSON bool, got 'false'"),
        "init_outside_the_box": (lambda d: d["config"].update(init=[[0.0]] * 4 + [[31.0]]),
                                 "config: init must lie in the feasible box"),
        "missing_objective": (lambda d: d["config"]["objectives"].pop(),
                              "config: one objective per agent is required"),
        "nonconvex_objective": (lambda d: d["config"]["objectives"][2].update(coeffs=[0, 0, -1]),
                                "config: agent 2: polynomial objective is non-convex"),
        "objective_without_coeffs": (lambda d: d["config"]["objectives"][2].pop("coeffs"),
                                     "config: problem: KeyError: 'coeffs'"),
    }

    @pytest.mark.parametrize("case", sorted(CONFIG_CASES))
    def test_config_checked(self, docs, case):
        change, match = self.CONFIG_CASES[case]
        doc = self._doc(docs["fs"])
        change(doc)
        with pytest.raises(TraceError, match=match):
            po.ExecutionTrace.from_json_dict(doc)

    @pytest.mark.parametrize("algorithm", ["dgd", "rss_nb", "rss_lb", "fs"])
    def test_arrays_checked_against_the_config(self, docs, algorithm):
        """A config of another dimension, or of another agent count, does
        not fit the stored arrays."""
        doc = self._doc(docs[algorithm])
        config = doc["config"]
        config.update(objectives=[{"kind": "polynomial", "coeffs": [[0, 0, 1]] * 2}] * 5,
                      feasible={"lower": [-30, -30], "upper": [30, 30]},
                      init=np.repeat(INTERIOR_INIT, 2, axis=1).tolist())
        with pytest.raises(TraceError, match=r"states has shape \(\d+, 5, 1\), expected "
                                             r"\(\d+, 5, 2\)"):
            po.ExecutionTrace.from_json_dict(doc)
        doc = self._doc(docs[algorithm])
        config = doc["config"]
        config.update(topology=po.Topology.family("cycle", 6).to_spec(),
                      objectives=config["objectives"] + config["objectives"][:1],
                      init=config["init"] + [[0.0]])
        with pytest.raises(TraceError, match=r"states has shape \(\d+, 5, 1\), expected "
                                             r"\(\d+, 6, 1\)"):
            po.ExecutionTrace.from_json_dict(doc)

    @pytest.mark.parametrize("change, match", [
        (lambda c: c.update(d_max=7), r"noise has shape \(10, 1, 9\), expected \(10, 1, 8\)"),
    ])
    def test_fs_noise_checked(self, docs, change, match):
        doc = self._doc(docs["fs"])
        change(doc["config"])
        with pytest.raises(TraceError, match=match):
            po.ExecutionTrace.from_json_dict(doc)

    def test_fs_problem_must_be_polynomial(self, docs):
        # refused by the config's validation, before the arrays and the digest
        doc = self._doc(docs["fs"])
        doc["config"]["objectives"][1].update(kind="logistic", seed=1, dim=1)
        with pytest.raises(TraceError, match="^config: agent 1: function sharing requires "
                                             "polynomial local objectives, got 'logistic'$"):
            po.ExecutionTrace.from_json_dict(doc)

    def test_fs_obfuscated_objectives_must_be_finite(self, docs):
        doc = self._doc(docs["fs"])
        doc["config"]["objectives"][0]["coeffs"] = [0.0, 0.0, float("inf")]
        with pytest.raises(TraceError, match="the obfuscated objectives hold a non-finite value"):
            po.ExecutionTrace.from_json_dict(json.loads(json.dumps(doc)))


class TestTraceRoundTrip:
    """Saving and loading gives back every array bit for bit."""

    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("lazy", [False, True], ids=["fixed", "lazy"])
    @pytest.mark.parametrize("algorithm", ["dgd", "rss_nb", "rss_lb", "fs"])
    def test_arrays_bit_identical(self, algorithm, lazy, record_every, quartic_problem,
                                  cycle5, inv_sqrt, tmp_path):
        init = with_entry(INTERIOR_INIT, (2, 0), -0.0)
        keys = {"dgd": {}, "rss_nb": {"delta": 1.0, "seed": 2}, "rss_lb": {"delta": 1.0, "seed": 2},
                "fs": {"delta_coeff": 0.5, "d_max": 8, "seed": 2}}[algorithm]
        trace = run(algorithm, quartic_problem, cycle5, inv_sqrt, 30, init=init,
                    metropolis_self_inclusive=lazy, record_every=record_every, **keys)
        assert np.signbit(trace.states[0, 2, 0]) and trace.states[0, 2, 0] == 0
        save_trace(trace, tmp_path / "t.json")
        loaded = po.ExecutionTrace.load(tmp_path / "t.json")
        for attr in ("init", "round_index", "steps", "states", "perturbations", "final_states",
                     "noise", "shares", "obfuscated", "weights"):
            if getattr(trace, attr) is None:
                assert getattr(loaded, attr) is None
            else:
                assert getattr(loaded, attr).tobytes() == getattr(trace, attr).tobytes(), attr
        assert loaded.config == trace.config
        assert loaded.config["metropolis_self_inclusive"] == lazy
        assert loaded.state_digest() == trace.state_digest()
