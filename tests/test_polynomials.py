import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from numpy.polynomial import polynomial as npoly

from privopt.polynomials import (SeparablePolynomial, as_coeff_matrix, derivative,
                                 derivative_sups, horner, interval_candidates, interval_extrema,
                                 pad_coeffs)

from conftest import reference_candidates, reference_extrema, reference_sups


def test_value_matches_manual_evaluation():
    p = SeparablePolynomial([1.0, -2.0, 3.0])  # 1 - 2x + 3x^2
    x = np.array([2.0])
    assert p.value(x) == 1 - 4 + 12


def test_separable_multivariate_sums_per_coordinate():
    p = SeparablePolynomial([[0, 1, 0], [0, 0, 2]])  # x0 + 2*x1^2
    assert p.value(np.array([3.0, 2.0])) == 3 + 8
    np.testing.assert_allclose(p.gradient(np.array([3.0, 2.0])), [1.0, 8.0])


def test_batched_evaluation_shapes():
    p = SeparablePolynomial([[0, 0, 1], [0, 1, 0]])
    pts = np.random.default_rng(0).normal(size=(7, 4, 2))
    assert p.value(pts).shape == (7, 4)
    assert p.gradient(pts).shape == (7, 4, 2)
    assert horner(derivative(p.coeffs, 2), pts).shape == (7, 4, 2)


def test_pad_coeffs_keeps_the_dtype_and_never_shrinks():
    padded = pad_coeffs(np.array([[1.0, 1.0]]), 3)
    np.testing.assert_array_equal(padded, [[1.0, 1.0, 0.0]])
    exact = pad_coeffs(np.array([[[2 ** 80]]], dtype=object), 2)
    assert exact.dtype == object and exact.tolist() == [[[2 ** 80, 0]]]
    with pytest.raises(ValueError):
        pad_coeffs(padded, 2)


def test_degree_ignores_trailing_zeros():
    assert SeparablePolynomial([1.0, 0.0, 0.0]).degree == 0
    assert SeparablePolynomial([[0, 0, 1, 0]]).degree == 2


def test_interval_extrema_hits_interior_extremum():
    # p(x) = x - x^3 has critical points at +-1/sqrt(3)
    coeffs = np.array([[0.0, 1.0, 0.0, -1.0]])
    expected = 2.0 / (3.0 * np.sqrt(3.0))
    minimum, sup = interval_extrema(coeffs, -0.9, 0.9)
    assert sup[0] == pytest.approx(expected, rel=1e-12)
    assert minimum[0] == pytest.approx(-expected, rel=1e-12)


def test_interval_extrema_at_the_ends():
    # p(x) = x on [-2, 1] and x^2 - x on [2, 3]: monotone, extrema at the ends
    minimum, sup = interval_extrema(np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 1.0]]),
                                    [-2.0, 2.0], [1.0, 3.0])
    np.testing.assert_array_equal(minimum, [-2.0, 2.0])
    np.testing.assert_array_equal(sup, [2.0, 6.0])


def test_candidate_grid_is_numpys_linspace():
    """Per-row grids, bit for bit, also where the step underflows to 0 and
    ``np.linspace`` scales i / 64 instead (the second row)."""
    lo = np.array([-2.0, 0.0, 0.0, 3.0, -1e-300])
    hi = np.array([1.5, 1e-322, 0.0, 3.0 + 2.0 ** -40, 1e-300])
    grids = interval_candidates(np.ones((5, 3)), lo, hi)[:, -65:]
    for grid, a, b in zip(grids, lo, hi):
        assert grid.tobytes() == np.linspace(a, b, 65).tobytes()


def test_complex_critical_points_are_no_candidates():
    """p' = (x - 1/4)^2 + 1e-14 has the roots 1/4 +- 1e-7 i, whose imaginary
    part is above the 1e-9 tolerance: only the ends and the grid remain."""
    p = npoly.polyint(np.array([0.0625 + 1e-14, -0.5, 1.0]))
    points = interval_candidates(p[None], np.array([0.0]), np.array([0.9]))[0]
    assert set(points.tolist()) == set(np.linspace(0.0, 0.9, 65).tolist())
    assert set(points.tolist()) == set(reference_candidates(p, 0.0, 0.9).tolist())


def test_gradient_sup_norm_exact_on_quartic():
    grad, curv = derivative_sups(np.array([[0, 0, 0, 0, 1.0]]), [-1.0], [1.0])  # x^4
    assert grad == pytest.approx(4.0)
    assert curv == pytest.approx(12.0)


def test_curvature_floor_detects_nonconvexity():
    def curvature_floor(coeffs, lower, upper):
        return interval_extrema(derivative(as_coeff_matrix(coeffs), 2), lower, upper)[0].min()

    assert curvature_floor([0, 0, 1.0], [-5.0], [5.0]) == pytest.approx(2.0)
    assert curvature_floor([0, 0, 1.0, 0, -0.5], [-2.0], [2.0]) < 0  # x^2 - 0.5x^4


def test_coeff_matrix_validation():
    assert as_coeff_matrix([1, 2]).shape == (1, 2)
    assert as_coeff_matrix([[1], [2]], dim=2).shape == (2, 1)
    with pytest.raises(ValueError):
        as_coeff_matrix([[1], [2]], dim=3)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=6),
       st.floats(-3, 3), st.floats(-3, 3))
def test_gradient_matches_finite_differences(coeffs, x, h_seed):
    p = SeparablePolynomial(coeffs)
    x = np.array([x])
    h = 1e-6
    numeric = (p.value(x + h) - p.value(x - h)) / (2 * h)
    analytic = p.gradient(x)[0]
    assert abs(numeric - analytic) <= 1e-5 * max(1.0, abs(analytic))


def test_cached_derivatives_are_bit_identical_to_polyder():
    rng = np.random.default_rng(5)
    coeffs = rng.uniform(-3.0, 3.0, size=(3, 7))
    p = SeparablePolynomial(coeffs)
    x = rng.uniform(-2.0, 2.0, size=(11, 3))
    grad = np.stack([npoly.polyval(x[:, d], npoly.polyder(coeffs[d])) for d in range(3)], axis=-1)
    curv = np.stack([npoly.polyval(x[:, d], npoly.polyder(coeffs[d], 2)) for d in range(3)], axis=-1)
    np.testing.assert_array_equal(p.gradient(x), grad)
    np.testing.assert_array_equal(horner(derivative(coeffs, 2), x), curv)
    assert not p.coeffs.flags.writeable
    assert not p.first_derivative.flags.writeable


@pytest.mark.parametrize("top", [2.5, 0.0, -0.0])
def test_horner_with_high_padding_is_bit_identical_to_polyval(top):
    """Zero padding at the high end changes no bit, signed zeros included."""
    row = np.array([0.0, -1.5, top])
    x = np.array([-2.0, -0.0, 0.0, 0.75, 3.0, -1e-300, 1e150])
    expected = npoly.polyval(x, row)
    for pad in range(4):
        got = horner(np.concatenate([row, np.zeros(pad)]), x)
        assert np.array_equal(np.signbit(got), np.signbit(expected))
        np.testing.assert_array_equal(got, expected)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9), st.integers(1, 3), st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_value_is_bit_identical_to_summed_polyval(width, dim, kind, seed):
    """``SeparablePolynomial.value`` gives the bits of 0 + polyval(x_0, c_0)
    + polyval(x_1, c_1) + ..., signed zeros included, for every batch shape."""
    rng = np.random.default_rng(seed)
    p = SeparablePolynomial(_random_rows(rng, dim, width, kind))
    for lead in [(), (6,), (2, 3)]:
        x = rng.uniform(-3.0, 3.0, size=lead + (dim,))
        x[rng.random(x.shape) < 0.3] = 0.0
        x[rng.random(x.shape) < 0.3] *= -0.0
        expected = np.zeros(lead)
        for d in range(dim):
            expected = expected + npoly.polyval(x[..., d], p.coeffs[d])
        got = p.value(x)
        assert np.shape(got) == lead
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


def _random_rows(rng, rows: int, width: int, kind: int) -> np.ndarray:
    """Polynomial rows of one of four kinds: uniform coefficients, small
    integers (exact critical points), sparse ones, and quarter steps with zero
    rows and negative zeros."""
    if kind == 0:
        return rng.uniform(-3.0, 3.0, size=(rows, width))
    if kind == 1:
        return rng.integers(-3, 4, size=(rows, width)).astype(float)
    coeffs = np.round(rng.normal(0.0, 2.0, size=(rows, width)) * 4) / 4
    coeffs[rng.random((rows, width)) < 0.4] = 0.0
    if kind == 3:
        coeffs[rng.random(rows) < 0.3] = 0.0
        coeffs[rng.random((rows, width)) < 0.3] *= -0.0
    return coeffs


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9), st.integers(1, 8), st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_interval_extrema_match_the_per_row_rule(width, rows, kind, seed):
    """The batched kernel and ``derivative`` against the per-row rule
    (``npoly.polyder``, ``polyroots`` and ``polyval`` row by row), on rows of
    widths 1-9 over per-row intervals, some of them a single point, and on
    D=2 separable polynomials. The candidate points (as sets of bit
    patterns), max |p| and the derivatives agree bit for bit, the minimum as
    a number: the sign of a zero minimum follows the order in which numpy's
    reduction meets +0.0 and -0.0."""
    rng = np.random.default_rng(seed)
    coeffs = _random_rows(rng, rows, width, kind)
    lo = rng.uniform(-4.0, 1.0, size=rows)
    hi = lo + np.where(rng.random(rows) < 0.15, 0.0, rng.uniform(0.0, 5.0, size=rows))
    minimum, sup = interval_extrema(coeffs, lo, hi)
    points = interval_candidates(coeffs, lo, hi)
    for i in range(rows):
        ref_min, ref_sup = reference_extrema(coeffs[i], lo[i], hi[i])
        assert sup[i].tobytes() == np.float64(ref_sup).tobytes()
        assert minimum[i] == ref_min
        expected = reference_candidates(coeffs[i], lo[i], hi[i])
        assert set(points[i].view(np.uint64).tolist()) == set(expected.view(np.uint64).tolist())
    for order in (1, 2, 3):
        expected = np.array([npoly.polyder(row, order) for row in coeffs])
        got = derivative(coeffs, order)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    pairs = coeffs[: rows - rows % 2].reshape(-1, 2, width)
    for pair, pair_lo, pair_hi in zip(pairs, lo[::2], hi[::2]):
        lower, upper = np.array([pair_lo, -1.0]), np.array([pair_hi, 2.0])
        sups = tuple(map(float, derivative_sups(pair, lower, upper)))
        assert sups == reference_sups(pair, lower, upper)
        floor = min(reference_extrema(npoly.polyder(row, 2), a, b)[0]
                    for row, a, b in zip(pair, lower, upper))
        assert interval_extrema(derivative(pair, 2), lower, upper)[0].min() == floor
