import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

import privopt as po
from privopt.objectives import (ConvexityError, DimensionMismatchError,
                                estimate_constants, solve_centralized)

from conftest import quartic_objectives


def finite_difference(obj, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for d in range(x.size):
        e = np.zeros_like(x)
        e[d] = h
        out[d] = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
    return out


def box_mesh(box, points_per_dim):
    """Regular grid over the box, corners included, flattened to (m, D)."""
    axes = [np.linspace(lo, hi, points_per_dim) for lo, hi in zip(box.lower, box.upper)]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


class TestEvaluate:
    def test_square_at_two(self):
        assert po.PolynomialObjective([0, 0, 1]).value([2.0]) == 4.0

    def test_mixed_quartic_at_zero(self):
        assert po.PolynomialObjective([0, 0, 1, 0, 1]).value([0.0]) == 0.0

    def test_scaled_sum_at_one(self):
        # 2.5(x^2 + x^4) evaluated at 1
        assert po.PolynomialObjective([0, 0, 2.5, 0, 2.5]).value([1.0]) == 5.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            po.PolynomialObjective([[0, 1], [0, 1]]).value([1.0])


class TestGradient:
    @pytest.mark.parametrize("coeffs,x,expected", [
        ([0, 0, 0, 0, 1], 1.0, 4.0),      # quartic at 1
        ([0, 0, 1], 0.0, 0.0),            # stationary point
        ([0, 0, 1, 0, 0.5], 2.0, 20.0),   # 2x + 2x^3 at 2
    ])
    def test_examples_against_finite_differences(self, coeffs, x, expected):
        obj = po.PolynomialObjective(coeffs)
        g = obj.gradient([x])[0]
        assert g == pytest.approx(expected, rel=1e-12)
        assert g == pytest.approx(finite_difference(obj, [x])[0], rel=1e-6)

    def test_quadratic_and_logistic_match_finite_differences(self):
        rng = np.random.default_rng(5)
        quad = po.QuadraticObjective([[2.0, 0.3], [0.3, 1.0]], [0.5, -1.0], 2.0)
        logi = po.LogisticObjective(seed=4, dim=2)
        for obj in (quad, logi):
            for _ in range(20):
                x = rng.uniform(-2, 2, size=2)
                np.testing.assert_allclose(obj.gradient(x), finite_difference(obj, x),
                                           rtol=1e-5, atol=1e-7)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_random_interior_points(self, seed):
        rng = np.random.default_rng(seed)
        obj = quartic_objectives()[int(rng.integers(0, 5))]
        x = rng.uniform(-29, 29, size=1)
        analytic = obj.gradient(x)
        numeric = finite_difference(obj, x)
        assert np.abs(analytic - numeric).max() <= 1e-6 * max(1.0, np.abs(analytic).max())


def _spd_quadratics(rng, n, dim):
    objectives = []
    for _ in range(n):
        a = rng.normal(size=(dim, dim))
        q = a @ a.T + 0.1 * np.eye(dim)
        objectives.append(po.QuadraticObjective(0.5 * (q + q.T), rng.normal(size=dim)))
    return objectives


def _obfuscated_d2():
    """fs objectives on complete-5 with D=2 and d_max=8 (width 9), not convex."""
    base = [po.PolynomialObjective([c + [0.0] * (5 - len(c)), [0.0, 0.0, 1.0, 0.0, 0.0]])
            for c in ([0, 0, 1], [0, 0, 0, 0, 1], [0, 0, 1, 0, 1], [0, 0, 1, 0, 0.5],
                      [0, 0, 0.5, 0, 1])]
    topology = po.Topology.family("complete", 5)
    noise = po.draw_noise_functions(topology, 0.5, 8, po.RandomStreams(3), 2)
    return po.obfuscate(base, noise, topology)


AGENT_GRADIENT_CASES = {
    "quartic-widths-3-5": (lambda rng: quartic_objectives(), 1, 30.0),
    "fs-obfuscated-d2-width9": (lambda rng: _obfuscated_d2(), 2, 3.0),
    "quadratic-d1": (lambda rng: _spd_quadratics(rng, 6, 1), 1, 10.0),
    "quadratic-d2": (lambda rng: _spd_quadratics(rng, 6, 2), 2, 10.0),
    "quadratic-d3": (lambda rng: _spd_quadratics(rng, 6, 3), 3, 10.0),
    "quadratic-d4": (lambda rng: _spd_quadratics(rng, 6, 4), 4, 10.0),
    "logistic-d2": (lambda rng: [po.LogisticObjective(s, dim=2) for s in range(4)], 2, 5.0),
    "mixed-d2": (lambda rng: [po.PolynomialObjective([[0, 0, 1, 0], [0, 1, 0, 0.5]]),
                              *_spd_quadratics(rng, 2, 2), po.LogisticObjective(1, dim=2)],
                 2, 5.0),
}


class TestAgentGradients:
    """``GlobalProblem.agent_gradients`` against the per-agent loop over
    ``Objective.gradient``, bit for bit."""

    @staticmethod
    def _problem(case):
        make, dim, reach = AGENT_GRADIENT_CASES[case]
        rng = np.random.default_rng(17)
        problem = po.GlobalProblem(objectives=make(rng), feasible=po.Box([-reach] * dim, [reach] * dim),
                                   validate_convexity=False)
        return problem, rng, reach

    @pytest.mark.parametrize("case", sorted(AGENT_GRADIENT_CASES))
    @pytest.mark.parametrize("lead", [(), (7,), (3, 4)], ids=["n-D", "R-n-D", "R1-R2-n-D"])
    def test_matches_per_objective_gradients(self, case, lead):
        problem, rng, reach = self._problem(case)
        points = rng.uniform(-reach, reach, size=lead + (problem.n, problem.dim))
        points[..., -1, 0] = 0.0  # exact zeros exercise signed-zero handling
        expected = np.stack([obj.gradient(points[..., j, :])
                             for j, obj in enumerate(problem.objectives)], axis=-2)
        got = problem.agent_gradients(points)
        assert got.shape == points.shape
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("case", ["quartic-widths-3-5", "fs-obfuscated-d2-width9",
                                      "quadratic-d3"])
    def test_stacked_gradient_is_batch_independent(self, case):
        """A point's gradient is the same alone as inside a batch of rounds,
        so the audit recomputes the engine's gradients exactly."""
        problem, rng, reach = self._problem(case)
        points = rng.uniform(-reach, reach, size=(5, problem.n, problem.dim))
        batched = problem.agent_gradients(points)
        for r in range(points.shape[0]):
            assert np.array_equal(batched[r], problem.agent_gradients(points[r]))
            for j, obj in enumerate(problem.objectives):
                assert np.array_equal(batched[r, j], obj.gradient(points[r, j]))

    @pytest.mark.parametrize("case", ["quartic-widths-3-5", "fs-obfuscated-d2-width9",
                                      "quadratic-d2"])
    def test_stacked_kinds_skip_the_per_objective_loop(self, case, monkeypatch):
        problem, rng, reach = self._problem(case)
        points = rng.uniform(-reach, reach, size=(problem.n, problem.dim))
        expected = problem.agent_gradients(points)

        def per_objective(self, x):
            raise AssertionError("per-objective gradient called")
        for kind in (po.PolynomialObjective, po.QuadraticObjective):
            monkeypatch.setattr(kind, "gradient", per_objective)
        assert np.array_equal(problem.agent_gradients(points), expected)

    @pytest.mark.parametrize("case", sorted(AGENT_GRADIENT_CASES))
    def test_wrong_shape_raises(self, case):
        problem, _, _ = self._problem(case)
        n, dim = problem.n, problem.dim
        for shape in [(n, dim + 1), (n + 1, dim), (n - 1, dim), (4, n, dim + 1), (n * dim,)]:
            with pytest.raises(DimensionMismatchError):
                problem.agent_gradients(np.zeros(shape))

    def test_objectives_are_a_frozen_tuple(self):
        objectives = quartic_objectives()
        problem = po.GlobalProblem(objectives=objectives, feasible=po.Box([-30.0], [30.0]))
        assert isinstance(problem.objectives, tuple)
        objectives.append(po.PolynomialObjective([0, 0, 1]))
        assert problem.n == 5
        with pytest.raises(AttributeError):
            problem.objectives = tuple(objectives)


def _sparse_cycle_quadratics(rng, n=200):
    """Diagonal quadratics with curvature in [0.5, 2] and minimiser in [-5, 5]^2."""
    objectives = []
    for _ in range(n):
        curvature, minimiser = rng.uniform(0.5, 2.0, 2), rng.uniform(-5.0, 5.0, 2)
        objectives.append(po.QuadraticObjective(np.diag(curvature), -curvature * minimiser))
    return objectives


TOTALS_CASES = dict(
    AGENT_GRADIENT_CASES,
    **{"sparse-cycle-quadratics-200": (_sparse_cycle_quadratics, 2, 10.0),
       # more than 8 agents: numpy's pairwise summation would reorder these sums
       "quartic-d1-n9": (lambda rng: (quartic_objectives() * 2)[:9], 1, 30.0),
       "quartic-d1-n200": (lambda rng: quartic_objectives() * 40, 1, 30.0),
       "quadratic-d1-n200": (lambda rng: _spd_quadratics(rng, 200, 1), 1, 10.0),
       # at x = -0.0 every agent's value (first case) or gradient (second) is
       # -0.0 before the sums over coordinates and agents, which make it +0.0
       "signed-zero-values": (lambda rng: [po.PolynomialObjective([-0.0, -0.0, -0.0, 1.0])] * 3,
                              1, 1.0),
       "signed-zero-gradients": (lambda rng: [po.PolynomialObjective([0.0, -0.0, 1.0])] * 3,
                                 1, 1.0)})


def _identical(got, expected) -> bool:
    """Equal bit for bit, signed zeros included."""
    got, expected = np.asarray(got), np.asarray(expected)
    return (got.shape == expected.shape and np.array_equal(got, expected)
            and np.array_equal(np.signbit(got), np.signbit(expected)))


class TestProblemTotals:
    """``total_value``, ``total_gradient`` and ``agent_constants`` against the
    per-objective loop they replace, bit for bit."""

    @staticmethod
    def _problem(case):
        make, dim, reach = TOTALS_CASES[case]
        rng = np.random.default_rng(23)
        problem = po.GlobalProblem(objectives=make(rng), feasible=po.Box([-reach] * dim, [reach] * dim),
                                   validate_convexity=False)
        return problem, rng, reach

    @pytest.mark.parametrize("case", sorted(TOTALS_CASES))
    @pytest.mark.parametrize("lead", [(), (7,), (3, 4)], ids=["D", "R-D", "R1-R2-D"])
    def test_totals_match_per_objective_sums(self, case, lead):
        problem, rng, reach = self._problem(case)
        points = rng.uniform(-reach, reach, size=lead + (problem.dim,))
        if lead:
            # signed zeros: a total of -0.0 terms is +0.0, as 0 + (-0.0) is
            points[0] = -0.0
            points[-1, ..., 0] = 0.0
        for name in ("value", "gradient"):
            expected = sum(getattr(obj, name)(points) for obj in problem.objectives)
            got = getattr(problem, f"total_{name}")(points)
            assert _identical(got, expected), name

    @pytest.mark.parametrize("case", ["quartic-d1-n9", "quartic-d1-n200", "fs-obfuscated-d2-width9"])
    @pytest.mark.parametrize("lead", [(4097,), (60, 70), (1, 5000)])
    def test_large_batches_match_per_objective_sums(self, case, lead):
        """Batches of more than ``_BLOCK_VALUES`` agent values go in blocks."""
        problem, rng, reach = self._problem(case)
        points = rng.uniform(-reach, reach, size=lead + (problem.dim,))
        expected = sum(obj.value(points) for obj in problem.objectives)
        assert _identical(problem.total_value(points), expected)

    @pytest.mark.parametrize("case", sorted(TOTALS_CASES))
    def test_agent_constants_match_estimate_constants(self, case):
        problem, _, _ = self._problem(case)
        pairs = [estimate_constants(obj, problem.feasible) for obj in problem.objectives]
        grad_bounds, smoothness = problem.agent_constants
        assert _identical(grad_bounds, [p[0] for p in pairs])
        assert _identical(smoothness, [p[1] for p in pairs])
        assert problem.constants() == (max(p[0] for p in pairs), max(p[1] for p in pairs))

    @pytest.mark.parametrize("case", ["quartic-widths-3-5", "sparse-cycle-quadratics-200",
                                      "logistic-d2"])
    def test_constants_computed_once_and_stacks_built_lazily(self, case, monkeypatch):
        problem, _, _ = self._problem(case)
        assert not {"_coefficients", "_derivatives", "_affine", "agent_constants"} & set(vars(problem))
        calls = []
        estimate = po.objectives.estimate_constants
        monkeypatch.setattr(po.objectives, "estimate_constants",
                            lambda obj, box: calls.append(obj) or estimate(obj, box))
        first = problem.constants()
        solve_centralized(problem)
        assert problem.constants() == first
        batched = case == "sparse-cycle-quadratics-200"
        assert len(calls) == (0 if batched else problem.n)

    @pytest.mark.parametrize("case", ["quadratic-d1", "logistic-d1"])
    def test_fallback_values_are_batch_independent(self, case):
        """A batch of two points gives each point's own value."""
        rng = np.random.default_rng(4)
        objectives = (_spd_quadratics(rng, 6, 1) if case == "quadratic-d1"
                      else [po.LogisticObjective(s, dim=1) for s in range(4)])
        problem = po.GlobalProblem(objectives=objectives, feasible=po.Box([-10.0], [10.0]))
        for _ in range(200):
            pair = rng.uniform(-10.0, 10.0, size=(2, 1))
            both = problem.total_value(pair)
            assert _identical(both, [problem.total_value(pair[0]), problem.total_value(pair[1])])

    def test_wrong_dimension_raises(self):
        problem, _, _ = self._problem("quartic-widths-3-5")
        for name in ("total_value", "total_gradient"):
            with pytest.raises(DimensionMismatchError):
                getattr(problem, name)(np.zeros((3, 2)))


class TestProjection:
    def test_clamp(self, wide_box):
        assert wide_box.project(np.array([40.0]))[0] == 30.0

    def test_identity_inside(self, wide_box):
        assert wide_box.project(np.array([12.5]))[0] == 12.5

    def test_componentwise(self):
        box = po.Box([-1.0, -1.0], [1.0, 1.0])
        np.testing.assert_array_equal(box.project(np.array([2.0, -3.0])), [1.0, -1.0])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_nonexpansive_and_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        lower = rng.uniform(-5, 0, dim)
        box = po.Box(lower, lower + rng.uniform(0.1, 5, dim))
        x, y = rng.uniform(-20, 20, dim), rng.uniform(-20, 20, dim)
        px, py = box.project(x), box.project(y)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-15
        np.testing.assert_array_equal(box.project(px), px)

    def test_bit_identical_to_np_clip(self):
        """``Box.project`` clamps with the ``ndarray.clip`` method: the bits of
        ``np.clip`` for signed zeros in points and bounds, NaN and +-inf, with
        a leading batch axis, and into ``out`` as well."""
        values = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 5e-324, -5e-324, np.nan, np.inf, -np.inf]
        bounds = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, 1.0), (-0.0, 1.0),
                  (-1.0, 0.0), (-1.0, -0.0), (-2.0, 2.0)]
        points = np.array(values)[:, None, None] + np.zeros((1, 3, len(bounds)))  # (11, 3, D)
        points[:, 1] = -points[:, 1]
        points[:, 2] = np.roll(points[:, 2], 5, axis=0)
        box = po.Box([b[0] for b in bounds], [b[1] for b in bounds])
        expected = np.clip(points, box.lower, box.upper)
        assert box.project(points).tobytes() == expected.tobytes()
        for row in points:  # no batch axis
            assert box.project(row).tobytes() == np.clip(row, box.lower, box.upper).tobytes()
        out = points.copy()
        assert box.project(out, out=out) is out
        assert out.tobytes() == expected.tobytes()

    def test_thousand_random_pairs(self):
        rng = np.random.default_rng(12)
        box = po.Box([-2.0, 0.5, -7.0], [1.0, 3.0, -1.0])
        x = rng.uniform(-20, 20, size=(1000, 3))
        y = rng.uniform(-20, 20, size=(1000, 3))
        px, py = box.project(x), box.project(y)
        assert np.all(np.linalg.norm(px - py, axis=1)
                      <= np.linalg.norm(x - y, axis=1) + 1e-15)
        np.testing.assert_array_equal(box.project(px), px)


class TestConvexity:
    def test_rejects_concave_polynomial(self, wide_box):
        with pytest.raises(ConvexityError):
            po.GlobalProblem(objectives=[po.PolynomialObjective([0, 0, -1.0])],
                             feasible=wide_box)

    def test_rejects_indefinite_quadratic(self):
        box = po.Box([-1.0, -1.0], [1.0, 1.0])
        with pytest.raises(ConvexityError):
            po.GlobalProblem(objectives=[po.QuadraticObjective([[1, 0], [0, -1]], [0, 0])],
                             feasible=box)

    def test_names_the_first_indefinite_quadratic(self):
        # one stacked eigvalsh checks every quadratic; the error names the
        # first non-convex agent, of whichever kind, and a quadratic's
        # smallest eigenvalue, as the per-agent check does
        box = po.Box([-1.0, -1.0], [1.0, 1.0])
        objectives = [po.QuadraticObjective(np.eye(2) * (1 + j), [0, 0]) for j in range(6)]
        objectives[2] = po.QuadraticObjective([[1, 2], [2, 1]], [0, 0])  # eigenvalues -1, 3
        objectives[4] = po.QuadraticObjective([[-2, 0], [0, 1]], [0, 0])
        objectives[5] = po.PolynomialObjective([[0, 0, -1]] * 2)
        with pytest.raises(ConvexityError) as raised:
            po.GlobalProblem(objectives=objectives, feasible=box)
        message = "quadratic matrix is not positive semidefinite (min eigenvalue -1.000e+00)"
        assert str(raised.value) == f"agent 2: {message}"
        with pytest.raises(ConvexityError) as alone:
            objectives[2].ensure_convex_on(box)
        assert str(alone.value) == message
        objectives[1] = objectives[5]
        with pytest.raises(ConvexityError, match="^agent 1: polynomial objective is non-convex"):
            po.GlobalProblem(objectives=objectives, feasible=box)

    def test_enforce_convex_false_is_allowed(self, wide_box):
        obj = po.PolynomialObjective([0, 0, 1, 0, -0.1], enforce_convex=False)
        po.GlobalProblem(objectives=[obj], feasible=wide_box, validate_convexity=False)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_segment_inequality(self, seed):
        rng = np.random.default_rng(seed)
        objs = quartic_objectives() + [po.LogisticObjective(seed=1, dim=1)]
        obj = objs[int(rng.integers(0, len(objs)))]
        x, y = rng.uniform(-5, 5, size=(2, 1))
        t = float(rng.random())
        lhs = obj.value(t * x + (1 - t) * y)
        rhs = t * obj.value(x) + (1 - t) * obj.value(y)
        assert lhs <= rhs + 1e-9


class TestSolveCentralized:
    def test_quartic_problem_optimum(self, quartic_problem):
        x_star, f_star = solve_centralized(quartic_problem)
        assert abs(x_star[0]) < 1e-6
        assert abs(f_star) < 1e-12

    def test_single_square(self, wide_box):
        problem = po.GlobalProblem(objectives=[po.PolynomialObjective([0, 0, 1])],
                                   feasible=wide_box)
        x_star, f_star = solve_centralized(problem)
        assert abs(x_star[0]) < 1e-8

    def test_boundary_optimum(self):
        # (x-5)^2 on [-1, 1]: optimum pinned at the upper bound
        problem = po.GlobalProblem(objectives=[po.PolynomialObjective([25.0, -10.0, 1.0])],
                                   feasible=po.Box([-1.0], [1.0]))
        x_star, f_star = solve_centralized(problem)
        assert x_star[0] == pytest.approx(1.0, abs=1e-9)
        grid = np.linspace(-1, 1, 20001)[:, None]
        assert f_star <= float(problem.total_value(grid).min()) + 1e-9

    def test_quartic_family_optimum_is_exact(self, quartic_problem):
        """The summed quartic's critical point 0 is the optimum, bit for bit."""
        x_star, f_star = solve_centralized(quartic_problem)
        assert x_star.tobytes() == np.zeros(1).tobytes()
        assert f_star == 0.0 and not np.signbit(f_star)

    def test_reaches_the_closed_form_minimum(self):
        """Two agents of x^4/4 + x^2/2 - 5x/8 on [-2, 1]: the summed
        derivative 2x^3 + 2x - 5/4 has the one real root 1/2, so f* is
        2 f(1/2) = -0.34375 exactly, which the descent alone misses by an ulp."""
        objective = po.PolynomialObjective([0.0, -0.625, 0.5, 0.0, 0.25])
        problem = po.GlobalProblem(objectives=[objective] * 2, feasible=po.Box([-2.0], [1.0]))
        x_star, f_star = solve_centralized(problem)
        assert f_star == -0.34375
        assert x_star[0] == pytest.approx(0.5, abs=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
    def test_at_or_below_the_grid_minimum(self, dim, n, seed):
        """On random convex separable polynomials (a (x - s)^2 + b (x - t)^4
        + c x per coordinate) the optimum is at or below the best point of a
        4097-point grid along each coordinate, where a grid search starts."""
        rng = np.random.default_rng(seed)

        def convex_row():
            a, b = rng.uniform(0.1, 2.0), rng.uniform(0.0, 1.0)
            s, t, c = rng.uniform(-3.0, 3.0, size=3)
            row = npoly.polyadd(npoly.polyadd(a * npoly.polypow([-s, 1.0], 2),
                                              b * npoly.polypow([-t, 1.0], 4)), [0.0, c])
            return np.pad(row, (0, 5 - row.size))

        objectives = [po.PolynomialObjective([convex_row() for _ in range(dim)])
                      for _ in range(n)]
        lower = rng.uniform(-4.0, 0.0, size=dim)
        problem = po.GlobalProblem(objectives=objectives,
                                   feasible=po.Box(lower, lower + rng.uniform(0.5, 6.0, size=dim)))
        _, f_star = solve_centralized(problem)
        best = problem.feasible.midpoint()
        for d in range(dim):
            grid = np.linspace(problem.feasible.lower[d], problem.feasible.upper[d], 4097)
            points = np.tile(problem.feasible.midpoint(), (grid.size, 1))
            points[:, d] = grid
            best[d] = grid[np.argmin(problem.total_value(points))]
        assert f_star <= float(problem.total_value(best))

    def test_multivariate_quadratic(self):
        problem = po.GlobalProblem(
            objectives=[po.QuadraticObjective([[2.0, 0.0], [0.0, 4.0]], [-2.0, -4.0])],
            feasible=po.Box([-5.0, -5.0], [5.0, 5.0]))
        x_star, _ = solve_centralized(problem)
        np.testing.assert_allclose(x_star, [1.0, 1.0], atol=1e-6)


def test_shipped_configs_never_import_numpy_ma():
    """``np.unique`` imports ``numpy.ma`` on its first call, about 14 ms of a
    fresh process: building the shipped configs, with their constants, noise
    bounds and optima, must not reach it."""
    root = pathlib.Path(__file__).resolve().parents[1]
    code = ("import sys\n"
            "import privopt as po\n"
            "from privopt.configs import RunConfig, execute\n"
            "for path in sys.argv[1:]:\n"
            "    config = RunConfig.from_file(path)\n"
            "    config.max_iter = 5\n"
            "    execute(config)\n"
            "    problem = config.build_problem()\n"
            "    problem.constants()\n"
            "    po.solve_centralized(problem)\n"
            "print('numpy.ma' in sys.modules)\n")
    configs = sorted(str(p) for p in (root / "configs").glob("*_run.json"))
    assert len(configs) == 2
    done = subprocess.run([sys.executable, "-c", code, *configs], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")}, check=True)
    assert done.stdout.strip() == "False"


class TestEstimateConstants:
    def test_square_on_wide_box(self, wide_box):
        l, n = estimate_constants(po.PolynomialObjective([0, 0, 1]), wide_box)
        assert l == pytest.approx(60.0)
        assert n == pytest.approx(2.0)

    def test_constant_objective(self, wide_box):
        l, n = estimate_constants(po.PolynomialObjective([3.0]), wide_box)
        assert l == 0.0 and n == 0.0

    def test_quartic_on_unit_box(self):
        box = po.Box([-1.0], [1.0])
        l, n = estimate_constants(po.PolynomialObjective([0, 0, 0, 0, 1]), box)
        assert l == pytest.approx(4.0)
        assert n == pytest.approx(12.0)

    @pytest.mark.parametrize("obj,box,points", [
        (po.LogisticObjective(seed=9, dim=2), po.Box([-2.0, -2.0], [2.0, 2.0]), 35),
        (po.LogisticObjective(seed=3, dim=3), po.Box([-2.0] * 3, [2.0] * 3), 21),
        (po.LogisticObjective(seed=5, dim=2), po.Box([0.5, -4.0], [3.0, -1.0]), 35),
        (po.QuadraticObjective([[2.0, 0.3], [0.3, 1.0]], [0.5, -1.0]),
         po.Box([-1.0, 0.5], [3.0, 2.0]), 35),
    ], ids=["logistic-d2", "logistic-d3", "logistic-off-origin", "quadratic-d2"])
    def test_constants_dominate_samples(self, obj, box, points):
        l, n = estimate_constants(obj, box)
        pts = box_mesh(box, points)
        assert np.max(np.linalg.norm(obj.gradient(pts), axis=-1)) <= l + 1e-12
        assert np.max(obj.curvature_norm(pts)) <= n + 1e-12

    def test_quadratic_constants_are_exact(self):
        matrix = np.array([[2.0, 0.3], [0.3, 1.0]])
        obj = po.QuadraticObjective(matrix, [0.5, -1.0])
        box = po.Box([-1.0, 0.5], [3.0, 2.0])
        l, n = estimate_constants(obj, box)
        assert l == np.max(np.linalg.norm(obj.gradient(box.corners()), axis=-1))
        assert n == np.linalg.norm(matrix, 2)

    def test_logistic_smoothness_attained_at_origin(self):
        obj = po.LogisticObjective(seed=9, dim=2)
        _, n = estimate_constants(obj, po.Box([-2.0, -2.0], [2.0, 2.0]))
        assert n == pytest.approx(float(obj.curvature_norm(np.zeros(2))), rel=1e-14)
