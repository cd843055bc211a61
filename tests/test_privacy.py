import dataclasses
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

import privopt as po
from privopt.engine import NonFiniteError
from privopt.graphs import DisconnectedError
from privopt.noise import noise_gradient_bounds
from privopt.privacy import (AlternativeInstance, NonFsTraceError, NotACutError,
                             TargetSetError, exact_add, exact_max_abs, exact_pad,
                             exact_sub, from_exact, necessity_demo, replay_digest,
                             to_exact)

from conftest import INTERIOR_INIT, quartic_objectives, reference_dgd, run


def make_problem(n=5, box=None):
    objs = [quartic_objectives()[i % 5] for i in range(n)]
    return po.GlobalProblem(objectives=objs, feasible=box or po.Box([-30.0], [30.0]))


def fs_trace(topology, seed=11, delta_coeff=0.5, max_iter=200, **options):
    problem = make_problem(topology.n)
    sched = po.StepSchedule(kind="inv_sqrt")
    n = topology.n
    init = np.linspace(-1.0, 1.0, n)[:, None]
    return problem, run("fs", problem, topology, sched, max_iter, delta_coeff=delta_coeff,
                        d_max=8, init=init, seed=seed, **options)


def sequential_replay_digest(view):
    """Reference for ``replay_digest``: re-run DGD round by round on the
    obfuscated objectives from the view's recipe."""
    recipe = view.recipe
    problem = po.GlobalProblem(
        objectives=[po.PolynomialObjective(view.obfuscated[j]) for j in range(view.topology.n)],
        feasible=po.Box.from_spec(recipe["feasible"]), validate_convexity=False)
    weights = po.metropolis_weights(view.topology,
                                    self_inclusive_degree=recipe["metropolis_self_inclusive"])
    return reference_dgd(problem, weights, po.StepSchedule.from_spec(recipe["schedule"]),
                         recipe["max_iter"], recipe["init"], recipe["record_every"])[0]


def replay_verdicts(view):
    """Whether the replay and its round-by-round reference each reproduce the
    trace digest."""
    return (replay_digest(view) == view.trace_digest,
            sequential_replay_digest(view) == view.trace_digest)


def truth_coeffs(trace):
    return {j: np.atleast_2d(np.asarray(s["coeffs"], dtype=float))
            for j, s in enumerate(trace.config["objectives"])}


def edge_rows(topology):
    """Row of each directed edge (sender, receiver) in ``sender_edges``."""
    return {(j, i): e for e, (j, i) in
            enumerate(zip(*[a.tolist() for a in topology.sender_edges]))}


@pytest.fixture(scope="module")
def k5_case(complete5):
    problem, trace = fs_trace(complete5)
    view = po.extract_view(trace, coalition=[3, 4])
    return problem, trace, view


def as_fractions(exact):
    return [Fraction(int(v), 2 ** 1074) for v in np.ravel(exact)]


class TestExactLayer:
    """The exact integers, in units of 2**-1074, against a ``Fraction``
    reference."""

    EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1, -0.1, 1 / 3,
                1.7976931348623157e308, -1.7976931348623157e308]

    def test_round_trip_is_bit_exact(self):
        values = np.array(self.EXTREMES)
        exact = to_exact(values)
        assert exact.dtype == object and exact.shape == (1, values.size)
        assert as_fractions(exact) == [Fraction(v) for v in self.EXTREMES]
        # both signed zeros are the value 0, as fractions are; every other
        # value comes back with its own bits
        assert from_exact(exact).tobytes() == np.where(values == 0.0, 0.0, values).tobytes()
        assert exact_max_abs(exact) == 1.7976931348623157e308

    def test_sums_and_differences_equal_the_fraction_sums(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a, b = (rng.uniform(-1, 1, (2, 3, 5)) * 10.0 ** rng.uniform(-320, 300, (2, 3, 5))
                    for _ in range(2))
            fa, fb = as_fractions(to_exact(a)), as_fractions(to_exact(b))
            assert fa == [Fraction(v) for v in a.ravel()]
            total, diff = exact_add(to_exact(a), to_exact(b)), exact_sub(to_exact(a), to_exact(b))
            assert as_fractions(total) == [x + y for x, y in zip(fa, fb)]
            assert as_fractions(diff) == [x - y for x, y in zip(fa, fb)]
            assert from_exact(total).tobytes() == np.array(
                [float(x + y) for x, y in zip(fa, fb)]).reshape(a.shape).tobytes()
            assert exact_max_abs(diff) == float(max(abs(x - y) for x, y in zip(fa, fb)))

    def test_pad_adds_exact_zeros(self):
        padded = exact_pad(to_exact([[0.1, 3e-310]]), 4)
        assert as_fractions(padded) == [Fraction(0.1), Fraction(3e-310), 0, 0]

    # The checker's verdicts when it computed on tuples of Fractions.
    @pytest.mark.parametrize("family,residual", [("complete", 8.326672684688674e-17),
                                                 ("cycle", 1.3877787807814457e-16)])
    def test_off_grid_objectives_keep_their_residuals(self, family, residual):
        """Objectives off the 2**-26 noise grid: the obfuscated sums round,
        so the tree solve leaves the exact, tiny residual of its inputs."""
        rows = [[0.1, 0.0, 1 / 3], [3e-310, 0.1, 1.0, 0.0, 0.1], [1 / 3, 3e-310, 0.1, 0.0, 0.1],
                [3e-310, 1 / 3, 0.5, 0.0, 1 / 3], [0.0, 0.0, 1 / 3]]
        problem = po.GlobalProblem(objectives=[po.PolynomialObjective(r) for r in rows],
                                   feasible=po.Box([-30.0], [30.0]))
        trace = run("fs", problem, po.Topology.family(family, 5),
                    po.StepSchedule(kind="inv_sqrt"), 200, delta_coeff=0.5, d_max=8,
                    init=np.linspace(-1, 1, 5)[:, None], seed=11)
        view = po.extract_view(trace, [3])
        alt = np.zeros((1, 9))
        alt[0, :3] = rows[0]
        alt[0, 2] += 0.1
        alt[0, 4] = 1 / 3
        objectives = po.complete_alternative_objectives(problem, [3], [0], {0: alt}, d_max=8)
        inst = po.construct_alternative(view, objectives, extras_seed=3)
        report = po.verify_indistinguishable(view, inst)
        assert inst.solve_residual == residual
        assert report.max_residual == residual
        assert report.passed and report.digest_ok is True and report.first_mismatch is None


class TestExtractView:
    def test_empty_coalition_sees_only_obfuscated(self, cycle5):
        _, trace = fs_trace(cycle5)
        view = po.extract_view(trace, coalition=[])
        assert len(view.obfuscated) == 5
        assert not view.observed.any() and not view.noise.any()
        assert view.coalition_objectives == {}

    def test_full_coalition_sees_everything(self, cycle5):
        _, trace = fs_trace(cycle5)
        view = po.extract_view(trace, coalition=range(5))
        assert view.observed.all()  # every directed edge
        np.testing.assert_array_equal(view.noise, trace.noise)
        assert len(view.coalition_objectives) == 5

    def test_incident_edge_count_on_cycle(self, cycle5):
        _, trace = fs_trace(cycle5)
        view = po.extract_view(trace, coalition=[0, 2])
        # non-adjacent pair on the cycle touches 4 undirected edges
        assert view.observed.sum() == 8
        senders, receivers = cycle5.sender_edges
        undirected = {tuple(sorted(e)) for e in zip(senders[view.observed].tolist(),
                                                     receivers[view.observed].tolist())}
        assert len(undirected) == 4
        np.testing.assert_array_equal(view.noise[view.observed],
                                      trace.noise[view.observed])
        assert not view.noise[~view.observed].any()

    def test_rejects_non_fs_trace(self, quartic_problem, cycle5, inv_sqrt):
        trace = run("dgd", quartic_problem, cycle5, inv_sqrt, 50, init=INTERIOR_INIT)
        with pytest.raises(NonFsTraceError):
            po.extract_view(trace, coalition=[0])


class TestCompleteAlternativeObjectives:
    def test_identity_when_targets_keep_their_functions(self, k5_case):
        problem, trace, _ = k5_case
        truth = truth_coeffs(trace)
        out = po.complete_alternative_objectives(problem, [3, 4], target=[], alternatives={}, d_max=8)
        for j, coeffs in truth.items():
            assert exact_max_abs(exact_sub(out[j], exact_pad(to_exact(coeffs), 9))) == 0.0

    def test_free_agent_absorbs_residual(self, k5_case):
        problem, trace, _ = k5_case
        bump = np.zeros((1, 9))
        bump[0, 2] = 1.0  # target proposes f_1 + x^2
        truth = truth_coeffs(trace)
        alt1 = exact_add(exact_pad(to_exact(truth[1]), 9), to_exact(bump))
        out = po.complete_alternative_objectives(problem, [3, 4], target=[1],
                                                 alternatives={1: from_exact(alt1)}, d_max=8)
        free = from_exact(out[0]) - np.pad(truth[0], ((0, 0), (0, 9 - truth[0].shape[1])))
        np.testing.assert_allclose(free, -bump, atol=0)

    def test_good_sum_preserved_exactly(self, k5_case):
        problem, trace, _ = k5_case
        rng = np.random.default_rng(0)
        alt = np.round(rng.uniform(-1, 1, (1, 9)) * 2 ** 20) / 2 ** 20
        out = po.complete_alternative_objectives(problem, [3, 4], target=[2],
                                                 alternatives={2: alt}, d_max=8)
        truth = truth_coeffs(trace)
        total_alt = exact_pad(to_exact(np.zeros((1, 1))), 9)
        total_true = exact_pad(to_exact(np.zeros((1, 1))), 9)
        for j in (0, 1, 2):
            total_alt = exact_add(total_alt, out[j])
            total_true = exact_add(total_true, exact_pad(to_exact(truth[j]), 9))
        assert exact_max_abs(exact_sub(total_alt, total_true)) == 0.0

    def test_empty_free_set_rejected(self, k5_case):
        problem, _, _ = k5_case
        with pytest.raises(TargetSetError):
            po.complete_alternative_objectives(problem, [3, 4], target=[0, 1, 2],
                                               alternatives={0: [[0.0]], 1: [[0.0]], 2: [[0.0]]},
                                               d_max=8)

    def test_degree_cap_enforced(self, k5_case):
        problem, _, _ = k5_case
        too_wide = np.zeros((1, 12))
        too_wide[0, 11] = 1.0
        with pytest.raises(ValueError):
            po.complete_alternative_objectives(problem, [3, 4], target=[0],
                                               alternatives={0: too_wide}, d_max=8)


class TestConstructAlternative:
    def test_identity_reproduces_original_noise(self, k5_case):
        problem, trace, view = k5_case
        objectives = po.complete_alternative_objectives(problem, [3, 4], target=[],
                                                        alternatives={}, d_max=8)
        inst = po.construct_alternative(view, objectives, extras=trace.noise)
        assert inst.solve_residual == 0.0
        np.testing.assert_array_equal(from_exact(inst.noise), trace.noise)

    def test_alternative_passes_verification(self, k5_case):
        problem, trace, view = k5_case
        bump = np.zeros((1, 9))
        bump[0, 4] = 1.0
        truth = truth_coeffs(trace)
        alt0 = truth[0].copy()
        alt0 = np.pad(alt0, ((0, 0), (0, 9 - alt0.shape[1])))
        alt0 += bump  # agent 0 pretends to hold f_0 + x^4
        objectives = po.complete_alternative_objectives(problem, [3, 4], target=[0],
                                                        alternatives={0: alt0}, d_max=8)
        inst = po.construct_alternative(view, objectives, extras_seed=5)
        report = po.verify_indistinguishable(view, inst)
        assert report.passed
        assert report.max_residual == 0.0
        assert report.digest_ok is True

    def test_cycle_single_adversary(self, cycle5):
        problem, trace = fs_trace(cycle5, seed=21)
        view = po.extract_view(trace, coalition=[2])
        bump = np.zeros((1, 9))
        bump[0, 4] = 0.5
        truth = truth_coeffs(trace)
        alt = np.pad(truth[0], ((0, 0), (0, 9 - truth[0].shape[1]))) + bump
        objectives = po.complete_alternative_objectives(problem, [2], target=[0],
                                                        alternatives={0: alt}, d_max=8)
        inst = po.construct_alternative(view, objectives, extras_seed=1)
        assert po.verify_indistinguishable(view, inst).passed

    def test_disconnecting_coalition_raises(self, cycle5):
        problem, trace = fs_trace(cycle5, seed=22)
        view = po.extract_view(trace, coalition=[0, 2])
        objectives = po.complete_alternative_objectives(problem, [0, 2], target=[],
                                                        alternatives={}, d_max=8)
        with pytest.raises(DisconnectedError):
            po.construct_alternative(view, objectives)

    def test_coalition_objectives_must_match_view(self, k5_case):
        problem, trace, view = k5_case
        objectives = po.complete_alternative_objectives(problem, [3, 4], target=[],
                                                        alternatives={}, d_max=8)
        tampered = objectives.copy()
        tampered[3] = exact_add(objectives[3], to_exact(np.full((1, 9), 0.5)))
        with pytest.raises(ValueError):
            po.construct_alternative(view, tampered)

    def test_tree_solve_matches_incidence_least_squares(self, k5_case):
        """Dual route: the exact leaf elimination agrees with a float
        pseudoinverse solve of the incidence system on the spanning tree."""
        problem, trace, view = k5_case
        objectives = po.complete_alternative_objectives(problem, [3, 4], target=[],
                                                        alternatives={}, d_max=8)
        inst = po.construct_alternative(view, objectives, extras_seed=13)
        good = [0, 1, 2]
        tree = list(inst.tree_edges)
        # build residual b_j = f_hat_j - g_j - known flows, unknowns on tree edges
        noise_f = from_exact(inst.noise)
        row = edge_rows(view.topology)
        b = []
        for j in good:
            r = view.obfuscated[j].astype(float).copy()
            r -= from_exact(inst.objectives[j])
            for i in view.topology.neighbors(j):
                if i == j:
                    continue
                if (i, j) not in tree:
                    r -= noise_f[row[(i, j)]]
                if (j, i) not in tree:
                    r += noise_f[row[(j, i)]]
            b.append(r.ravel())
        b = np.array(b)
        a = np.zeros((len(good), len(tree)))
        for c, (u, v) in enumerate(tree):
            a[good.index(v), c] = 1.0   # inflow at the head
            a[good.index(u), c] = -1.0  # outflow at the tail
        solution, *_ = np.linalg.lstsq(a, b, rcond=None)
        for c, e in enumerate(tree):
            np.testing.assert_allclose(solution[c], noise_f[row[e]].ravel(), atol=1e-8)


class TestVerifyNegativeControls:
    def corrupt(self, inst, row, coeff_index, amount=1e-3):
        noise = inst.noise.copy()
        noise[row, 0, coeff_index] += to_exact(amount)[0, 0]
        return AlternativeInstance(objectives=inst.objectives, noise=noise,
                                   dim=inst.dim, width=inst.width,
                                   tree_edges=inst.tree_edges)

    def test_single_coefficient_corruptions_all_detected(self, k5_case):
        problem, trace, view = k5_case
        objectives = po.complete_alternative_objectives(problem, [3, 4], target=[],
                                                        alternatives={}, d_max=8)
        inst = po.construct_alternative(view, objectives, extras_seed=2)
        for row in range(len(inst.noise)):
            for c in range(inst.width):
                bad = self.corrupt(inst, row, c)
                report = po.verify_indistinguishable(view, bad, rerun=False)
                assert not report.passed, (row, c)
                assert report.first_mismatch is not None

    def test_corrupted_objective_detected(self, k5_case):
        problem, trace, view = k5_case
        objectives = po.complete_alternative_objectives(problem, [3, 4], target=[],
                                                        alternatives={}, d_max=8)
        inst = po.construct_alternative(view, objectives, extras_seed=2)
        tampered = inst.objectives.copy()
        tampered[1] = exact_add(inst.objectives[1],
                                to_exact(np.eye(1, 9, 3) * 1e-3))
        bad = AlternativeInstance(objectives=tampered, noise=inst.noise,
                                  dim=inst.dim, width=inst.width)
        report = po.verify_indistinguishable(view, bad, rerun=False)
        assert not report.passed
        assert report.first_mismatch["kind"] == "obfuscated_function"


class TestGroupStructure:
    def test_composing_instance_deltas_is_valid(self, k5_case):
        problem, trace, view = k5_case
        base_map = po.complete_alternative_objectives(problem, [3, 4], target=[],
                                                      alternatives={}, d_max=8)
        identity = po.construct_alternative(view, base_map, extras=trace.noise)
        truth = truth_coeffs(trace)

        def variant(agent, power, scale, seed):
            bump = np.zeros((1, 9))
            bump[0, power] = scale
            alt = np.pad(truth[agent], ((0, 0), (0, 9 - truth[agent].shape[1]))) + bump
            m = po.complete_alternative_objectives(problem, [3, 4], target=[agent],
                                                   alternatives={agent: alt}, d_max=8)
            return po.construct_alternative(view, m, extras_seed=seed)

        first = variant(0, 4, 1.0, seed=3)
        second = variant(1, 2, 0.25, seed=4)
        composed_objs = exact_add(first.objectives,
                                  exact_sub(second.objectives, identity.objectives))
        composed_noise = exact_add(first.noise, exact_sub(second.noise, identity.noise))
        composed = AlternativeInstance(objectives=composed_objs, noise=composed_noise,
                                       dim=1, width=9)
        report = po.verify_indistinguishable(view, composed, rerun=False)
        assert report.passed and report.max_residual == 0.0


class TestNecessityDemo:
    def test_cycle_cut_recovers_component_sums(self, cycle5):
        problem, trace = fs_trace(cycle5, seed=31)
        view = po.extract_view(trace, coalition=[0, 2])
        report = necessity_demo(view, truth_coeffs(trace))
        assert report.passed
        members = sorted(tuple(c["members"]) for c in report.components)
        assert members == [(1,), (3, 4)]
        assert all(c["residual"] <= 1e-9 for c in report.components)

    def test_star_center_isolates_every_leaf(self):
        star = po.Topology.family("star", 5)
        problem, trace = fs_trace(star, seed=32)
        view = po.extract_view(trace, coalition=[0])
        report = necessity_demo(view, truth_coeffs(trace))
        assert report.passed
        assert sorted(tuple(c["members"]) for c in report.components) == \
            [(1,), (2,), (3,), (4,)]

    def test_complete_graph_pair_is_not_a_cut(self, k5_case):
        problem, trace, view = k5_case
        with pytest.raises(NotACutError):
            necessity_demo(view, truth_coeffs(trace))


class TestRandomizedTrials:
    @pytest.mark.parametrize("family,n,max_coalition", [
        ("complete", 5, 3),
        ("petersen", 10, 2),
    ])
    def test_construct_then_verify(self, family, n, max_coalition):
        topology = po.Topology.family(family, n)
        problem, trace = fs_trace(topology, seed=100 + n)
        rng = np.random.default_rng(n)
        truth = truth_coeffs(trace) if n == 5 else None
        for trial in range(8):
            size = int(rng.integers(1, max_coalition + 1))
            coalition = sorted(rng.choice(n, size=size, replace=False).tolist())
            good = sorted(set(range(n)) - set(coalition))
            target = [int(rng.choice(good[:-1]))] if len(good) > 1 else []
            alts = {}
            if target:
                bump = np.round(rng.uniform(-1, 1, (1, 9)) * 2 ** 20) / 2 ** 20
                alts[target[0]] = bump
            view = po.extract_view(trace, coalition)
            objs = po.complete_alternative_objectives(problem, coalition, target,
                                                      alts, d_max=8)
            inst = po.construct_alternative(view, objs, extras_seed=trial)
            report = po.verify_indistinguishable(view, inst)
            assert report.passed, (coalition, target, report.first_mismatch)
            assert report.max_residual <= 1e-9
            assert report.digest_ok is True


def test_separable_multivariate_instance(complete5):
    # two-dimensional separable objectives: one polynomial row per coordinate
    rows = [
        [[0, 0, 1, 0, 0], [0, 0, 0.5, 0, 0]],
        [[0, 0, 0, 0, 1], [0, 0, 1, 0, 0]],
        [[0, 0, 1, 0, 1], [0, 0, 0.25, 0, 0]],
        [[0, 0, 1, 0, 0.5], [0, 0, 2, 0, 0]],
        [[0, 0, 0.5, 0, 1], [0, 0, 1, 0, 0]],
    ]
    problem = po.GlobalProblem(
        objectives=[po.PolynomialObjective(r) for r in rows],
        feasible=po.Box([-10.0, -10.0], [10.0, 10.0]))
    init = np.stack([np.linspace(-1, 1, 5), np.linspace(1, -1, 5)], axis=1)
    trace = run("fs", problem, complete5, po.StepSchedule(kind="inv_sqrt"), 150, delta_coeff=0.25,
                d_max=6, init=init, seed=41)
    view = po.extract_view(trace, coalition=[4])
    bump = np.zeros((2, 7))
    bump[1, 2] = 0.5  # alternative differs in the second coordinate
    alt = np.zeros((2, 7))
    alt[:, :5] = np.asarray(rows[0], dtype=float)
    objectives = po.complete_alternative_objectives(problem, [4], target=[0],
                                                    alternatives={0: alt + bump}, d_max=6)
    inst = po.construct_alternative(view, objectives, extras_seed=9)
    verdict = po.verify_indistinguishable(view, inst)
    assert verdict.passed and verdict.max_residual == 0.0 and verdict.digest_ok


def test_fs_trace_on_n10_runs(quartic_problem):
    # petersen topology needs ten objectives; reuse the quartic family twice
    topology = po.Topology.family("petersen", 10)
    objs = quartic_objectives() + quartic_objectives()
    problem = po.GlobalProblem(objectives=objs, feasible=po.Box([-30.0], [30.0]))
    init = np.linspace(-1.0, 1.0, 10)[:, None]
    trace = run("fs", problem, topology, po.StepSchedule(kind="inv_sqrt"), 100, delta_coeff=0.5,
                d_max=8, init=init, seed=77)
    view = po.extract_view(trace, coalition=[1, 6])
    objectives = po.complete_alternative_objectives(problem, [1, 6], target=[],
                                                    alternatives={}, d_max=8)
    inst = po.construct_alternative(view, objectives, extras_seed=0)
    report = po.verify_indistinguishable(view, inst)
    assert report.passed and report.digest_ok is True


REPLAY_GRAPHS = (("complete", 5), ("cycle", 5), ("star", 5), ("petersen", 10))


@pytest.mark.parametrize("family,n", REPLAY_GRAPHS)
def test_fs_bounds_are_derived_from_the_problem_and_the_noise(family, n):
    """The lemma constants of an fs trace are the problem's constants plus
    the noise functions' gradient bounds, bit for bit, in the run's trace and
    in the trace read back from its document."""
    problem, trace = fs_trace(po.Topology.family(family, n), max_iter=20)
    box = problem.feasible
    noise_grad, noise_curv = noise_gradient_bounds(trace.noise, trace.topology,
                                                   box.lower, box.upper)
    grad, curv = problem.constants()
    loaded = po.ExecutionTrace.from_json_dict(json.loads(json.dumps(trace.to_json_dict())))
    for read in (trace, loaded):
        bounds = po.effective_bounds(read)
        assert (bounds.grad_bound, bounds.grad_smoothness, bounds.delta) == (
            grad + noise_grad, curv + noise_curv, 0.0)


class TestReplay:
    """``replay_digest`` checks every recorded transition at once; it must
    reach the verdict of a round-by-round replay."""

    @pytest.mark.parametrize("record_every", [1, 3, 7, 50])
    @pytest.mark.parametrize("family,n", REPLAY_GRAPHS)
    def test_digest_equals_sequential_replay(self, family, n, record_every):
        # 199 rounds: not a multiple of any down-sampling step, so the last gap is short
        _, trace = fs_trace(po.Topology.family(family, n), max_iter=199,
                            record_every=record_every)
        view = po.extract_view(trace, coalition=[0])
        assert replay_digest(view) == sequential_replay_digest(view) == view.trace_digest

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_ulp_change_in_an_obfuscated_coefficient(self, complete5, record_every):
        _, trace = fs_trace(complete5, max_iter=199, record_every=record_every)
        view = po.extract_view(trace, coalition=[3, 4])
        verdicts = []
        for agent in range(5):
            for coeff in (1, 2, 4, 8):
                bumped = view.obfuscated[agent].copy()
                bumped[0, coeff] = np.nextafter(bumped[0, coeff], np.inf)
                tampered = dataclasses.replace(
                    view, obfuscated={**view.obfuscated, agent: bumped})
                fast, reference = replay_verdicts(tampered)
                assert fast == reference, (agent, coeff)
                verdicts.append(fast)
        assert not all(verdicts)  # some of these ulps must change the dynamics

    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("where", ["middle", "final"])
    def test_changed_recorded_state(self, cycle5, record_every, where):
        # a consistently tampered trace: the state changes and its digest with it
        _, trace = fs_trace(cycle5, max_iter=199, record_every=record_every)
        if where == "middle":
            states = trace.states.copy()
            states[trace.states.shape[0] // 2, 1, 0] += 1e-9
            trace = dataclasses.replace(trace, states=states)
        else:
            trace = dataclasses.replace(trace, final_states=trace.final_states + 1e-9)
        view = po.extract_view(trace, coalition=[2])
        assert replay_verdicts(view) == (False, False)

    def test_init_outside_the_box_raises_as_the_reference(self, cycle5):
        _, trace = fs_trace(cycle5)
        view = po.extract_view(trace, coalition=[2])
        outside = dataclasses.replace(view, recipe={**view.recipe, "init": [[40.0]] * 5})
        for replay in (replay_digest, sequential_replay_digest):
            with pytest.raises(ValueError, match="feasible set"):
                replay(outside)

    def test_non_finite_replay_raises_as_the_reference(self, cycle5):
        # derivative coefficients 4e308 and -3e308 overflow to inf and -inf,
        # and inf - inf is NaN at every positive fused point
        _, trace = fs_trace(cycle5)
        view = po.extract_view(trace, coalition=[2])
        obfuscated = {}
        for agent, coeffs in view.obfuscated.items():
            coeffs = coeffs.copy()
            coeffs[0, 3:5] = (-1e308, 1e308)
            obfuscated[agent] = coeffs
        blown = dataclasses.replace(view, obfuscated=obfuscated)
        with np.errstate(over="ignore", invalid="ignore"):
            for replay in (replay_digest, sequential_replay_digest):
                with pytest.raises(NonFiniteError, match="round 1:"):
                    replay(blown)


class TestSelfInclusiveWeights:
    """A run fused by the self-inclusive Metropolis matrix: the recipe names
    that matrix, and the replay builds and uses it."""

    def test_lazy_weights_trace_passes(self, cycle5):
        lazy = po.metropolis_weights(cycle5, self_inclusive_degree=True)
        for record_every in (1, 3):
            problem, trace = fs_trace(cycle5, metropolis_self_inclusive=True,
                                      record_every=record_every)
            view = po.extract_view(trace, coalition=[2])
            assert view.recipe["metropolis_self_inclusive"] is True
            assert np.array_equal(trace.weights, lazy.weights)
            assert replay_digest(view) == sequential_replay_digest(view) == view.trace_digest
            alt = np.pad(truth_coeffs(trace)[0], ((0, 0), (0, 6))) + np.eye(1, 9, 4) * 0.5
            objectives = po.complete_alternative_objectives(problem, [2], target=[0],
                                                            alternatives={0: alt}, d_max=8)
            inst = po.construct_alternative(view, objectives, extras_seed=1)
            report = po.verify_indistinguishable(view, inst)
            assert report.passed and report.max_residual == 0.0 and report.digest_ok is True

    @pytest.mark.parametrize("self_inclusive", [False, True])
    def test_flipped_recipe_flag_fails_the_digest(self, cycle5, self_inclusive):
        # the other Metropolis matrix fuses other points, so the replay departs
        problem, trace = fs_trace(cycle5, metropolis_self_inclusive=self_inclusive)
        view = po.extract_view(trace, coalition=[2])
        flipped = dataclasses.replace(
            view, recipe={**view.recipe, "metropolis_self_inclusive": not self_inclusive})
        assert replay_verdicts(view) == (True, True)
        assert replay_verdicts(flipped) == (False, False)
        alt = np.pad(truth_coeffs(trace)[0], ((0, 0), (0, 6))) + np.eye(1, 9, 4) * 0.5
        objectives = po.complete_alternative_objectives(problem, [2], target=[0],
                                                        alternatives={0: alt}, d_max=8)
        inst = po.construct_alternative(flipped, objectives, extras_seed=1)
        report = po.verify_indistinguishable(flipped, inst)
        assert report.max_residual == 0.0 and report.digest_ok is False and not report.passed


def _connected(topology, agents):
    agents = set(agents)
    start = min(agents)
    seen, stack = {start}, [start]
    while stack:
        u = stack.pop()
        for v in topology.neighbors(u):
            if v in agents and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen == agents


@pytest.mark.parametrize("family,n,largest", [
    ("complete", 5, 3), ("cycle", 5, 3), ("star", 5, 3), ("petersen", 10, 4)])
def test_privacy_certificate_over_small_coalitions(family, n, largest):
    """The function-sharing privacy theorem, coalition by coalition: every
    coalition of at most ``largest`` agents (on the 5-agent graphs, every one
    that leaves two agents or more). If the rest stays connected, an
    alternative instance passes with zero residual and a matching replay
    digest. If the coalition is a vertex cut, the construction fails and the
    view yields each isolated component's objective sum exactly. The smallest
    cut has ``vertex_connectivity`` members; the complete graph has none."""
    topology = po.Topology.family(family, n)
    problem, trace = fs_trace(topology, seed=300 + n)
    truth = truth_coeffs(trace)
    smallest_cut = None
    for size in range(largest + 1):
        for coalition in itertools.combinations(range(n), size):
            view = po.extract_view(trace, coalition)
            good = [j for j in range(n) if j not in coalition]
            if not _connected(topology, good):
                with pytest.raises(DisconnectedError):
                    po.construct_alternative(view, po.complete_alternative_objectives(
                        problem, coalition, [], {}, d_max=8))
                report = necessity_demo(view, truth)
                assert report.passed and len(report.components) >= 2, coalition
                assert all(c["residual"] == 0.0 for c in report.components), coalition
                smallest_cut = size if smallest_cut is None else smallest_cut
                continue
            target = good[-1]
            alt = np.pad(truth[target], ((0, 0), (0, 9 - truth[target].shape[1])))
            alt = alt + np.eye(1, 9, 2 + size % 3) * 0.25
            objectives = po.complete_alternative_objectives(problem, coalition, [target],
                                                            {target: alt}, d_max=8)
            inst = po.construct_alternative(view, objectives, extras_seed=size)
            report = po.verify_indistinguishable(view, inst)
            assert report.passed, (coalition, report.first_mismatch)
            assert report.max_residual == 0.0 and report.digest_ok is True, coalition
    if family == "complete":
        assert smallest_cut is None
    else:
        assert smallest_cut == po.vertex_connectivity(topology)
