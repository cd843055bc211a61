import dataclasses

import numpy as np
import pytest

import privopt as po
from privopt.analysis import (_linear_quantiles, audit_invariants, bound_params,
                              check_consensus, check_lemma1, check_lemma2, check_theorem3,
                              check_transition_matrix, compute_metrics,
                              effective_bounds, theorem3_horizons,
                              weighted_average_suboptimality)
from privopt.engine import ScheduleError

from conftest import INTERIOR_INIT, run


@pytest.fixture(scope="module")
def nb_run(quartic_problem, cycle5, inv_sqrt):
    return run("rss_nb", quartic_problem, cycle5, inv_sqrt, 2000, delta=1.0, init=INTERIOR_INIT,
               seed=3)


@pytest.fixture(scope="module")
def dgd_run(quartic_problem, cycle5, inv_sqrt):
    return run("dgd", quartic_problem, cycle5, inv_sqrt, 2000, init=INTERIOR_INIT)


@pytest.fixture(scope="module")
def each_algorithm(quartic_problem, cycle5, inv_sqrt):
    kw = dict(max_iter=200, init=INTERIOR_INIT)
    return {"dgd": run("dgd", quartic_problem, cycle5, inv_sqrt, **kw),
            "rss_nb": run("rss_nb", quartic_problem, cycle5, inv_sqrt, delta=1.0, seed=5, **kw),
            "rss_lb": run("rss_lb", quartic_problem, cycle5, inv_sqrt, delta=1.0, seed=5, **kw),
            "fs": run("fs", quartic_problem, cycle5, inv_sqrt, delta_coeff=0.5, d_max=8, seed=5,
                      **kw)}


class TestReadersTakeTheTrace:
    """Every reader takes a trace alone, so a trace read back from its
    document gives the results of the run's own trace."""

    @staticmethod
    def reports(trace, x_star):
        reports = [audit_invariants(trace), check_lemma1(trace, effective_bounds(trace)),
                   check_lemma2(trace, x_star), check_consensus(trace)]
        if trace.algorithm == "rss_nb":
            reports.append(check_theorem3([trace]))
        return [rep.to_dict() for rep in reports]

    @pytest.mark.parametrize("algorithm", ["dgd", "rss_nb", "rss_lb", "fs"])
    def test_reloaded_trace_reads_the_same(self, each_algorithm, algorithm, quartic_optimum):
        trace = each_algorithm[algorithm]
        loaded = po.ExecutionTrace.from_json_dict(trace.to_json_dict())
        x_star = quartic_optimum[0]
        assert self.reports(loaded, x_star) == self.reports(trace, x_star)
        ours, theirs = compute_metrics(trace), compute_metrics(loaded)
        for column in dataclasses.fields(ours):
            assert np.array_equal(getattr(theirs, column.name), getattr(ours, column.name))

    def test_theorem3_compares_runs_of_one_problem(self, dgd_run, wide_box, cycle5, inv_sqrt):
        # the problem is compared by value: a reloaded trace's is another object
        reloaded = po.ExecutionTrace.from_json_dict(dgd_run.to_json_dict())
        assert check_theorem3([dgd_run, reloaded], optimum_value=0.0).checked == 2
        other = po.GlobalProblem(objectives=[po.PolynomialObjective([0, 0, 1])] * 5,
                                 feasible=wide_box)
        trace = run("dgd", other, cycle5, inv_sqrt, 50, init=INTERIOR_INIT)
        with pytest.raises(ValueError, match="problems differ"):
            check_theorem3([dgd_run, trace], optimum_value=0.0)


class TestTraceReuse:
    def test_bounds_reuse_the_checked_fusion_matrix(self, nb_run, monkeypatch):
        built = []
        check = po.FusionMatrix.__post_init__
        monkeypatch.setattr(po.FusionMatrix, "__post_init__",
                            lambda self: (built.append(self), check(self)))
        bounds = effective_bounds(nb_run)
        assert built == []
        assert bounds.rho == nb_run.fusion.rho == po.metropolis_weights(nb_run.topology).rho

    def test_disagreement_is_computed_once_and_read_only(self, nb_run):
        mean, max_dis = nb_run.disagreement
        assert nb_run.disagreement[0] is mean and nb_run.disagreement[1] is max_dis
        assert not mean.flags.writeable and not max_dis.flags.writeable
        _, states = nb_run.states_with_final()
        expected = np.linalg.norm(states - states.mean(axis=1)[:, None, :], axis=2).max(axis=1)
        assert np.array_equal(mean, states.mean(axis=1))
        assert np.array_equal(max_dis.view(np.int64), expected.view(np.int64))


class TestBoundParams:
    def test_cycle_values(self, cycle5, quartic_problem):
        w = po.metropolis_weights(cycle5)
        p = bound_params(cycle5, w, quartic_problem.constants(), delta=1.0)
        assert p.rho == pytest.approx(1 / 3)
        assert p.contraction == pytest.approx(1 - (1 / 3) / 100)
        assert p.envelope == pytest.approx(p.contraction ** -2)
        assert 0 < p.contraction < 1 and p.envelope > 1

    def test_complete_values(self, complete5, quartic_problem):
        w = po.metropolis_weights(complete5)
        p = bound_params(complete5, w, quartic_problem.constants(), delta=0.0)
        assert p.rho == pytest.approx(0.2)
        assert p.contraction == pytest.approx(0.998)

    def test_two_agents(self, wide_box):
        duo = po.Topology.family("path", 2)
        problem = po.GlobalProblem(objectives=[po.PolynomialObjective([0, 0, 1])] * 2,
                                   feasible=wide_box)
        p = bound_params(duo, po.metropolis_weights(duo), problem.constants(), delta=0.0)
        assert p.rho == pytest.approx(0.5)
        assert p.contraction == pytest.approx(1 - 0.5 / 16)

    def test_constants_cover_gradients(self, cycle5, quartic_problem):
        w = po.metropolis_weights(cycle5)
        p = bound_params(cycle5, w, quartic_problem.constants(), delta=0.0)
        assert p.grad_bound == pytest.approx(108060.0)  # 2*30 + 4*30^3 for x^2+x^4
        assert p.grad_smoothness == pytest.approx(10802.0)


class TestComputeMetrics:
    def test_all_agents_at_same_point(self, quartic_problem, cycle5, inv_sqrt,
                                      quartic_optimum):
        trace = run("dgd", quartic_problem, cycle5, inv_sqrt, 20, init=np.zeros((5, 1)))
        x_star, f_star = quartic_optimum
        metrics = compute_metrics(trace, x_star, f_star)
        assert metrics.max_disagreement.size == 21 and np.all(metrics.max_disagreement == 0.0)

    def test_growth_coeff_specializes_at_zero_delta(self, dgd_run, quartic_optimum):
        x_star, f_star = quartic_optimum
        metrics = compute_metrics(dgd_run, x_star, f_star)
        bounds = effective_bounds(dgd_run)
        np.testing.assert_allclose(
            metrics.growth_coeff[:50],
            metrics.step[:50] * bounds.grad_smoothness * metrics.max_disagreement[:50],
            rtol=1e-6, atol=1e-12)

    def test_suboptimality_trends_down(self, nb_run, quartic_optimum):
        x_star, f_star = quartic_optimum
        subopt = compute_metrics(nb_run, x_star, f_star).suboptimality
        early = subopt[1:20].max()
        late = subopt[-1]
        assert late < 1e-4 and late < early

    def test_zero_delta_metric_series_identical_across_algorithms(
            self, quartic_problem, cycle5, inv_sqrt, quartic_optimum):
        x_star, f_star = quartic_optimum
        kw = dict(max_iter=150, init=INTERIOR_INIT)
        series = []
        for trace in (run("dgd", quartic_problem, cycle5, inv_sqrt, **kw),
                      run("rss_nb", quartic_problem, cycle5, inv_sqrt, delta=0.0, seed=1, **kw),
                      run("rss_lb", quartic_problem, cycle5, inv_sqrt, delta=0.0, seed=2, **kw)):
            metrics = compute_metrics(trace, x_star, f_star)
            series.append(np.stack([metrics.suboptimality, metrics.max_disagreement,
                                    metrics.eta2]))
        assert np.array_equal(series[0], series[1]) and np.array_equal(series[0], series[2])


class TestLemma1:
    def test_single_agent(self, wide_box, inv_sqrt):
        problem = po.GlobalProblem(objectives=[po.PolynomialObjective([0, 0, 1])],
                                   feasible=wide_box)
        solo = po.Topology.from_edges(1, [])
        trace = run("dgd", problem, solo, inv_sqrt, 100, init=np.array([[5.0]]))
        report = check_lemma1(trace, effective_bounds(trace))
        assert report.passed and report.checked == 100

    @pytest.mark.parametrize("delta", [0.0, 1.0, 15.0])
    def test_zero_violations_on_cycle(self, quartic_problem, cycle5, inv_sqrt, delta):
        trace = run("rss_nb", quartic_problem, cycle5, inv_sqrt, 1500, delta=delta,
                    init=INTERIOR_INIT, seed=1)
        report = check_lemma1(trace, effective_bounds(trace))
        assert report.passed, report.violations[:3]

    def test_detects_fabricated_violation(self, nb_run):
        bounds = effective_bounds(nb_run)
        shrunk = po.BoundParams(n=bounds.n, rho=bounds.rho, contraction=1e-9,
                                envelope=1.0, grad_bound=0.0, grad_smoothness=0.0,
                                delta=0.0)
        report = check_lemma1(nb_run, shrunk)
        assert not report.passed


class TestLemma2:
    def test_zero_violations(self, nb_run, quartic_optimum):
        report = check_lemma2(nb_run, quartic_optimum[0])
        assert report.passed, report.violations[:3]
        assert report.checked == 2000

    def test_dgd_specialization(self, dgd_run, quartic_optimum):
        report = check_lemma2(dgd_run, quartic_optimum[0])
        assert report.passed

    def test_stationary_run(self, wide_box, cycle5, inv_sqrt):
        problem = po.GlobalProblem(objectives=[po.PolynomialObjective([0, 0, 1])] * 5,
                                   feasible=wide_box)
        trace = run("dgd", problem, cycle5, inv_sqrt, 200, init=np.zeros((5, 1)))
        report = check_lemma2(trace, np.zeros(1))
        assert report.passed

    def test_reference_point_must_be_feasible(self, nb_run):
        with pytest.raises(ValueError):
            check_lemma2(nb_run, np.array([99.0]))


class TestConsensus:
    def test_quartic_run_reaches_consensus(self, dgd_run):
        report = check_consensus(dgd_run, threshold=1e-3)
        assert report.passed and report.details["status"] == "passed"
        assert report.details["tail_max"] < 1e-3

    def test_single_agent_is_zero(self, wide_box, inv_sqrt):
        problem = po.GlobalProblem(objectives=[po.PolynomialObjective([0, 0, 1])],
                                   feasible=wide_box)
        solo = po.Topology.from_edges(1, [])
        trace = run("dgd", problem, solo, inv_sqrt, 50, init=np.array([[5.0]]))
        report = check_consensus(trace)
        assert report.details["tail_max"] == 0.0

    def test_constant_schedule_reported_not_failed(self, quartic_problem, cycle5):
        sched = po.StepSchedule(kind="constant", a=0.002)
        trace = run("rss_nb", quartic_problem, cycle5, sched, 400, delta=10.0, init=INTERIOR_INIT,
                    seed=2)
        report = check_consensus(trace, threshold=1e-9)
        assert report.details["status"] in ("schedule-non-convergent", "passed")
        assert report.passed  # non-convergent schedule is not an error

    @pytest.mark.parametrize("tail_fraction", [0.0, 2.0, float("nan")])
    def test_tail_fraction_outside_the_unit_interval_raises(self, dgd_run, tail_fraction):
        with pytest.raises(ValueError, match=r"tail_fraction must lie in \(0, 1\), got "):
            check_consensus(dgd_run, tail_fraction=tail_fraction)


class TestTheorem3:
    def test_envelope_and_monotone_constant(self, quartic_problem, cycle5, inv_sqrt,
                                            quartic_optimum):
        # optimum-started runs isolate the noise-driven term of the envelope;
        # from a generic start the noise-independent transient dominates it
        runs = [run("rss_nb", quartic_problem, cycle5, inv_sqrt, 3000, delta=d,
                    init=np.zeros((5, 1)), seed=4)
                for d in (0.0, 1.0, 15.0)]
        report = check_theorem3(runs, optimum_value=quartic_optimum[1])
        assert report.passed, report.violations
        fits = report.details["fits"]
        cs = [f["fitted_constant"] for f in fits]
        assert cs[0] <= cs[1] + 1e-12 <= cs[2] + 2e-12

    def test_single_agent_small_constant(self, wide_box, inv_sqrt):
        problem = po.GlobalProblem(objectives=[po.PolynomialObjective([0, 0, 1])],
                                   feasible=wide_box)
        solo = po.Topology.from_edges(1, [])
        trace = run("dgd", problem, solo, inv_sqrt, 2000, init=np.array([[1.0]]))
        report = check_theorem3([trace], optimum_value=0.0)
        assert report.passed
        assert report.details["fits"][0]["envelope_constant"] < 10.0

    def test_wrong_schedule_raises(self, quartic_problem, cycle5):
        sched = po.StepSchedule(kind="inv_k", a=1.0, b=1.0)
        trace = run("dgd", quartic_problem, cycle5, sched, 200, init=INTERIOR_INIT)
        with pytest.raises(ScheduleError):
            check_theorem3([trace], optimum_value=0.0)

    def test_weighted_average_is_convex_combination(self, dgd_run, quartic_problem):
        horizons = theorem3_horizons(dgd_run.max_iter)
        steps = dgd_run.steps
        for t in horizons[:4]:
            weights = steps[:t] / steps[:t].sum()
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            avg = (dgd_run.states[:t] * weights[:, None, None]).sum(axis=0)
            assert quartic_problem.feasible.contains(avg, tol=1e-12)

    def test_requires_complete_trace(self, quartic_problem, cycle5, inv_sqrt):
        trace = run("dgd", quartic_problem, cycle5, inv_sqrt, 200, init=INTERIOR_INIT,
                    record_every=10)
        with pytest.raises(ValueError):
            weighted_average_suboptimality(trace, 0.0, np.array([50]))


class TestTransitionMatrix:
    def test_cycle_envelope_and_decay(self, cycle5):
        report = check_transition_matrix(po.metropolis_weights(cycle5), 2000)
        assert report.passed, report.violations[:3]
        assert report.details["final_deviation"] < 1e-10

    def test_single_agent(self):
        solo = po.Topology.from_edges(1, [])
        w = po.metropolis_weights(solo)
        report = check_transition_matrix(w, 5)
        assert report.passed
        assert report.details["final_deviation"] == 0.0

    def test_complete_graph_is_uniform_immediately(self, complete5):
        w = po.metropolis_weights(complete5)
        report = check_transition_matrix(w, 50)
        assert report.passed
        # uniform up to one ulp: the diagonal is a floating-point remainder
        assert np.max(np.abs(w.weights - 0.2)) <= 1e-16


class TestInvariantAudit:
    def test_passes_on_all_algorithms(self, quartic_problem, cycle5, inv_sqrt):
        kw = dict(max_iter=300, init=INTERIOR_INIT)
        traces = [
            run("dgd", quartic_problem, cycle5, inv_sqrt, **kw),
            run("rss_nb", quartic_problem, cycle5, inv_sqrt, delta=1.0, seed=5, **kw),
            run("rss_lb", quartic_problem, cycle5, inv_sqrt, delta=1.0, seed=5, **kw),
            run("fs", quartic_problem, cycle5, inv_sqrt, delta_coeff=0.5, d_max=8, seed=5, **kw),
        ]
        for trace in traces:
            report = audit_invariants(trace)
            assert report.passed, (trace.algorithm, report.violations)
            assert report.details["perspective_worst_gap"] < 1e-12

    def test_detects_corrupted_state(self, nb_run):
        import copy
        bad = copy.deepcopy(nb_run)
        bad.states[100, 2, 0] = 99.0  # outside the box
        report = audit_invariants(bad)
        assert not report.passed
        assert any(v["invariant"] == "states_feasible" for v in report.violations)


QUANTILES = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


def _quantile_battery():
    """Seeded arrays of sizes 1-60 and 2000: spread values of magnitude 1e-5
    to 1e12, and rounded values full of ties, signed zeros among them."""
    rng = np.random.default_rng(23)
    for size in [*range(1, 61), 2000]:
        for magnitude in (1e-5, 1e-2, 1.0, 1e3, 1e7, 1e12):
            yield rng.normal(size=size) * magnitude
            ties = np.round(rng.normal(size=size)) * magnitude
            yield np.where(rng.random(size) < 0.5, -ties, ties)  # -0.0 and +0.0
        yield np.where(rng.random(size) < 0.5, -0.0, 0.0)
        yield np.where(rng.random(size) < 0.1, np.nan, rng.normal(size=size))


class TestLinearQuantiles:
    def test_matches_numpy_bit_for_bit(self):
        arrays = list(_quantile_battery())
        assert len(arrays) == 61 * 14
        for values in arrays:
            before = values.copy()
            ours = _linear_quantiles(values, QUANTILES)
            assert np.array_equal(values.view(np.int64), before.view(np.int64))  # not partitioned
            numpys = np.quantile(values, QUANTILES)
            assert np.array_equal(ours.view(np.int64), numpys.view(np.int64)), values

    def test_theorem3_horizons_are_sorted_and_distinct(self):
        for max_iter in (10, 11, 57, 200, 2000, 10 ** 6):
            hs = theorem3_horizons(max_iter)
            points = np.round(np.logspace(1, np.log10(max_iter), 20)).astype(int)
            expected = sorted(set(points[points >= 10].tolist()))
            assert hs.dtype == np.int64 and hs.tolist() == expected


def _dict_pairing_audit(trace):
    """The perspective identity's checked count and worst gap by the
    dict-and-list pairing of each recorded round with its recorded successor."""
    idx, states = trace.states_with_final()
    pos = {int(r): i for i, r in enumerate(idx)}
    pairs = [(r, pos[int(k) + 1]) for r, k in enumerate(trace.round_index)
             if int(k) + 1 in pos]
    sub = trace.problem
    if trace.algorithm == "fs":
        sub = po.GlobalProblem(objectives=[po.PolynomialObjective(c) for c in trace.obfuscated],
                               feasible=trace.problem.feasible, validate_convexity=False)
    grads = sub.agent_gradients(trace.fused)
    alt = trace.problem.feasible.project(
        trace.fused_true - trace.steps[:, None, None] * (grads - trace.fused_noise))
    rows = np.array([r for r, _ in pairs])
    nxt = np.array([p for _, p in pairs])
    gaps = np.abs(alt[rows] - states[nxt]).max(axis=(1, 2))
    return idx.size + len(pairs), float(gaps.max())


class TestInvariantPairing:
    @pytest.mark.parametrize("record_every", [1, 2, 7])
    @pytest.mark.parametrize("algorithm", ["dgd", "rss_nb", "rss_lb", "fs"])
    def test_matches_the_dict_pairing(self, quartic_problem, cycle5, inv_sqrt, algorithm,
                                      record_every):
        keys = {"dgd": {}, "rss_nb": {"delta": 1.0, "seed": 5},
                "rss_lb": {"delta": 1.0, "seed": 5},
                "fs": {"delta_coeff": 0.5, "d_max": 8, "seed": 5}}[algorithm]
        max_iter = 101  # a multiple of neither 2 nor 7
        trace = run(algorithm, quartic_problem, cycle5, inv_sqrt, max_iter, init=INTERIOR_INIT,
                    record_every=record_every, **keys)
        report = audit_invariants(trace)
        checked, worst = _dict_pairing_audit(trace)
        assert report.passed, report.violations
        assert report.checked == checked
        assert report.details["perspective_worst_gap"] == worst
