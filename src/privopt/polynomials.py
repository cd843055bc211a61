"""Coefficient-vector polynomials shared by objectives, noise functions and privacy checks.

Coefficients are stored constant-first, e.g. ``[1, 0, 2]`` is ``1 + 2x^2``.
Multivariate polynomials are separable: one univariate polynomial per
coordinate, summed. A separable polynomial of dimension D with width C is a
(D, C) float array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly


def as_coeff_matrix(coeffs, dim: int | None = None) -> np.ndarray:
    """Coerce a coefficient spec (flat list or per-dimension rows) to shape (D, C)."""
    arr = np.array(coeffs, dtype=float)
    if arr.ndim == 0:
        arr = arr[None]
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"coefficients must be 1-D or 2-D, got shape {arr.shape}")
    if arr.shape[1] == 0:
        arr = np.zeros((arr.shape[0], 1))
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"expected {dim} coefficient rows, got {arr.shape[0]}")
    return arr


def pad_coeffs(coeffs: np.ndarray, width: int) -> np.ndarray:
    """Coefficients (..., C) zero-padded at the high end to (..., width), in
    their own dtype (floats, or the exact integers of ``privacy``)."""
    if width < coeffs.shape[-1]:
        raise ValueError("cannot shrink coefficient width")
    out = np.zeros(coeffs.shape[:-1] + (width,), dtype=coeffs.dtype)
    out[..., : coeffs.shape[-1]] = coeffs
    return out


def horner(coeffs: np.ndarray, x) -> np.ndarray:
    """Evaluate stacked univariate polynomials, ``coeffs`` of shape (..., C)
    constant-first, at points x that broadcast against ``coeffs[..., 0]``:
    ``horner_planes`` of the coefficient planes ``coeffs[..., i]``."""
    return horner_planes([coeffs[..., i] for i in range(coeffs.shape[-1])], x)


def horner_planes(planes, x) -> np.ndarray:
    """Horner on coefficient planes, constant first: ``planes[i]`` holds the
    coefficient of x**i of every polynomial, and x broadcasts against it.
    A hot caller passes a tuple of contiguous planes built once, so no step
    builds a strided view.

    The operations are those of ``numpy.polynomial.polynomial.polyval``
    (``c = c_top + x*0``, then ``c = c_i + c*x``), so a row zero-padded at the
    high end evaluates bit for bit as the unpadded row at every finite x.
    They run in place on the result (IEEE products and sums commute exactly),
    so a batch needs no temporaries of its size.
    """
    out = planes[-1] + x * 0
    for plane in planes[-2::-1]:
        out *= x
        out += plane
    return out


def _interval_candidates(coeffs_1d: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Points where |p| can attain its sup on [lo, hi]: endpoints plus real
    critical points of p, padded with a coarse grid as a safety net."""
    pts = [lo, hi]
    der = npoly.polyder(coeffs_1d)
    if np.count_nonzero(der) > 0:
        trimmed = np.trim_zeros(der, trim="b")
        if trimmed.size >= 2:
            roots = npoly.polyroots(trimmed)
            scale = max(1.0, abs(lo), abs(hi))
            for r in roots:
                if abs(r.imag) < 1e-9 * scale and lo <= r.real <= hi:
                    pts.append(float(r.real))
    pts.extend(np.linspace(lo, hi, 65))
    return np.asarray(pts)


def max_abs_on_interval(coeffs_1d: np.ndarray, lo: float, hi: float) -> float:
    """Sup of |p(x)| over [lo, hi], exact when the extremum sits at an endpoint
    or a resolvable critical point."""
    pts = _interval_candidates(coeffs_1d, lo, hi)
    return float(np.max(np.abs(npoly.polyval(pts, coeffs_1d))))


def min_on_interval(coeffs_1d: np.ndarray, lo: float, hi: float) -> float:
    """Infimum of p(x) over [lo, hi] via endpoints and critical points."""
    pts = _interval_candidates(coeffs_1d, lo, hi)
    return float(np.min(npoly.polyval(pts, coeffs_1d)))


@dataclass(frozen=True)
class SeparablePolynomial:
    """Sum of independent univariate polynomials, one per coordinate.
    The coefficient array is read-only, so derivative coefficients are
    computed once (read-only too)."""

    coeffs: np.ndarray  # (D, C), constant-first

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _read_only(as_coeff_matrix(self.coeffs)))

    @cached_property
    def first_derivative(self) -> np.ndarray:
        """Per-coordinate first-derivative coefficients, shape (D, max(C - 1, 1))."""
        return _read_only(np.array([npoly.polyder(row) for row in self.coeffs]))

    @cached_property
    def second_derivative(self) -> np.ndarray:
        """Per-coordinate second-derivative coefficients, shape (D, max(C - 2, 1))."""
        return _read_only(np.array([npoly.polyder(row, 2) for row in self.coeffs]))

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    @property
    def width(self) -> int:
        return self.coeffs.shape[1]

    @property
    def degree(self) -> int:
        """Highest power with a nonzero coefficient in any coordinate (-1 if zero)."""
        nz = np.nonzero(np.any(self.coeffs != 0.0, axis=0))[0]
        return int(nz[-1]) if nz.size else -1

    def value(self, x) -> np.ndarray:
        """Evaluate at points x of shape (..., D); returns shape (...)."""
        x = np.asarray(x, dtype=float)
        total = np.zeros(x.shape[:-1])
        for d in range(self.dim):
            total = total + npoly.polyval(x[..., d], self.coeffs[d])
        return total

    def gradient(self, x) -> np.ndarray:
        """Gradient at points x of shape (..., D); returns shape (..., D)."""
        return horner(self.first_derivative, np.asarray(x, dtype=float))

    def curvature(self, x) -> np.ndarray:
        """Per-coordinate second derivatives (the Hessian diagonal) at x."""
        return horner(self.second_derivative, np.asarray(x, dtype=float))

    def critical_points_overflow(self) -> bool:
        """Whether ``_interval_candidates`` cannot locate the critical points
        of the first or second derivative, so the box sups and floors (the
        constants and the convexity check) cannot be computed:
        ``npoly.polyroots`` divides a derivative's coefficients by its
        leading one, and the quotient overflows when that one is too small
        against the others (a subnormal one, say)."""
        with np.errstate(over="ignore"):
            for row in (*self.first_derivative, *self.second_derivative):
                trimmed = np.trim_zeros(npoly.polyder(row), trim="b")
                if trimmed.size >= 2 and not np.all(np.isfinite(trimmed[:-1] / trimmed[-1])):
                    return True
        return False

    def gradient_sup_norm(self, lower, upper) -> float:
        """Sup of the gradient 2-norm over an axis-aligned box."""
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        per_dim = [
            max_abs_on_interval(der, lower[d], upper[d])
            for d, der in enumerate(self.first_derivative)
        ]
        return float(np.sqrt(np.sum(np.square(per_dim))))

    def curvature_sup(self, lower, upper) -> float:
        """Sup of the Hessian operator norm over a box (Hessian is diagonal)."""
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        per_dim = [
            max_abs_on_interval(der, lower[d], upper[d])
            for d, der in enumerate(self.second_derivative)
        ]
        return float(np.max(per_dim)) if per_dim else 0.0

    def curvature_floor(self, lower, upper) -> float:
        """Smallest per-coordinate second derivative over a box. Negative
        values certify non-convexity somewhere on the box."""
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        per_dim = [
            min_on_interval(der, lower[d], upper[d])
            for d, der in enumerate(self.second_derivative)
        ]
        return float(np.min(per_dim)) if per_dim else 0.0


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr
