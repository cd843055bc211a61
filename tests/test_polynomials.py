import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from numpy.polynomial import polynomial as npoly

from privopt.polynomials import (SeparablePolynomial, as_coeff_matrix, horner,
                                 max_abs_on_interval, pad_coeffs)


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
    assert p.curvature(pts).shape == (7, 4, 2)


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


def test_max_abs_on_interval_hits_interior_extremum():
    # p(x) = x - x^3 has critical points at +-1/sqrt(3)
    coeffs = np.array([0.0, 1.0, 0.0, -1.0])
    expected = 2.0 / (3.0 * np.sqrt(3.0))
    assert max_abs_on_interval(coeffs, -0.9, 0.9) == pytest.approx(expected, rel=1e-12)


def test_gradient_sup_norm_exact_on_quartic():
    p = SeparablePolynomial([0, 0, 0, 0, 1.0])  # x^4
    assert p.gradient_sup_norm([-1.0], [1.0]) == pytest.approx(4.0)
    assert p.curvature_sup([-1.0], [1.0]) == pytest.approx(12.0)


def test_curvature_floor_detects_nonconvexity():
    convex = SeparablePolynomial([0, 0, 1.0])
    bumpy = SeparablePolynomial([0, 0, 1.0, 0, -0.5])  # x^2 - 0.5x^4
    assert convex.curvature_floor([-5.0], [5.0]) == pytest.approx(2.0)
    assert bumpy.curvature_floor([-2.0], [2.0]) < 0


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
    np.testing.assert_array_equal(p.curvature(x), curv)
    assert not p.coeffs.flags.writeable
    assert not p.first_derivative.flags.writeable
    assert not p.second_derivative.flags.writeable


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
