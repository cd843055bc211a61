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


def derivative(coeffs, order: int = 1) -> np.ndarray:
    """``order``-th derivative of stacked polynomials (..., C), bit for bit
    ``npoly.polyder`` of every row: j * c[j] per pass, and ``c[..., :1] * 0``
    when the order reaches the width."""
    out = np.asarray(coeffs, dtype=float)
    if order >= out.shape[-1]:
        return out[..., :1] * 0
    for _ in range(order):
        out = out[..., 1:] * np.arange(1.0, out.shape[-1])
    return out


def _trimmed_lengths(rows: np.ndarray) -> np.ndarray:
    """Length of each row of (..., C) without its trailing zeros, as
    ``np.trim_zeros`` trims them (NaN is not a zero)."""
    nonzero = rows != 0
    return np.where(nonzero.any(axis=-1), rows.shape[-1] - nonzero[..., ::-1].argmax(axis=-1), 0)


def critical_points_overflow(coeffs) -> np.ndarray:
    """Per row of (..., C) polynomials p, whether ``interval_candidates``
    cannot locate the roots of p': the companion matrix divides p' by its
    leading coefficient, and a quotient overflows when that one is too small
    against the others (a subnormal one, say)."""
    der = derivative(coeffs)
    lengths = _trimmed_lengths(der)
    lead = np.take_along_axis(der, np.maximum(lengths - 1, 0)[..., None], axis=-1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        overflow = ~np.isfinite(der / lead)
    return (overflow & (np.arange(der.shape[-1]) < (lengths - 1)[..., None])).any(axis=-1)


_GRID_STEPS = np.arange(65.0)  # np.linspace(lo, hi, 65) is lo + i * step, or
_GRID_FRACTIONS = _GRID_STEPS / 64  # lo + (i / 64) * delta when the step underflows


def interval_candidates(coeffs: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(m, K) points of [lo[i], hi[i]] where row i of the (m, C) polynomials
    can attain its extrema: the ends, the real roots of p' inside (|imag| <
    1e-9 * max(1, |lo|, |hi|); a dropped root becomes lo) and the 65-point
    ``np.linspace`` grid as a safety net; where hi - lo overflows, and that
    grid holds NaN, the grid is lo (1 - i/64) + hi i/64 instead. The roots are
    the eigenvalues of the companion matrices of the trimmed p', built as
    ``npoly.polyroots`` builds them, one batched ``np.linalg.eigvals`` call per
    trimmed length, so every point is bit for bit the per-row rule's."""
    der = derivative(coeffs)
    lengths = _trimmed_lengths(der)
    points = np.empty((len(der), der.shape[1] + 66))
    points[:, 0], points[:, 1:-65] = hi, lo[:, None]
    grid = points[:, -65:]
    delta = hi - lo
    np.multiply(_GRID_STEPS, (delta / 64)[:, None], out=grid)
    flat = delta / 64 == 0
    grid[flat] = _GRID_FRACTIONS * delta[flat, None]
    grid += lo[:, None]
    wide = ~np.isfinite(delta)
    grid[wide] = lo[wide, None] * (1 - _GRID_FRACTIONS) + hi[wide, None] * _GRID_FRACTIONS
    grid[:, -1] = hi
    tolerance = 1e-9 * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)
    for size in {n for n in lengths.tolist() if n >= 2}:  # not np.unique: tests/test_imports.py
        rows = (lengths == size).nonzero()[0]
        c = der[rows, :size]
        if size == 2:
            roots = -c[:, :1] / c[:, 1:]
        else:
            companion = np.zeros((rows.size, size - 1, size - 1))
            companion[:, np.arange(1, size - 1), np.arange(size - 2)] = 1
            with np.errstate(over="ignore"):  # an overflow makes eigvals raise LinAlgError
                companion[:, :, -1] -= c[:, :-1] / c[:, -1:]
            roots = np.linalg.eigvals(companion)
        real, (lo_rows, hi_rows) = roots.real, (lo[rows, None], hi[rows, None])
        keep = (np.abs(roots.imag) < tolerance[rows, None]) & (lo_rows <= real) & (real <= hi_rows)
        points[rows, 2:size + 1] = np.where(keep, real, lo_rows)
    return points


def interval_extrema(coeffs, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """The minimum of p and the maximum of |p| over [lo, hi] of each
    polynomial of (..., C) ``coeffs``, two (...) arrays; lo and hi broadcast
    against ``coeffs[..., 0]``. One Horner pass over ``interval_candidates``;
    exact when the extremum sits at an end or a resolvable critical point."""
    coeffs = np.asarray(coeffs, dtype=float)
    ends = np.empty((2,) + coeffs.shape[:-1])
    ends[0], ends[1] = lo, hi
    rows = coeffs.reshape(-1, coeffs.shape[-1])
    values = horner(rows[:, None], interval_candidates(rows, *ends.reshape(2, -1)))
    return (values.min(axis=1).reshape(ends.shape[1:]),
            np.abs(values).max(axis=1).reshape(ends.shape[1:]))


def derivative_sups(coeffs, lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """Sups over the box [lower, upper] of the gradient 2-norm and of the
    Hessian operator norm (the Hessian is diagonal) of each separable
    polynomial of (..., D, C) ``coeffs``: one ``interval_extrema`` call. A
    norm past the float range is inf, reported as such without a warning."""
    first = derivative(coeffs)
    rows = np.stack([first, pad_coeffs(derivative(coeffs, 2), first.shape[-1])])
    sups = interval_extrema(rows, lower, upper)[1]
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.sum(np.square(sups[0]), axis=-1))
    return norms, np.max(sups[1], axis=-1)


@dataclass(frozen=True)
class SeparablePolynomial:
    """Sum of independent univariate polynomials, one per coordinate.
    The coefficient array is read-only, so the first-derivative coefficients
    are computed once (read-only too)."""

    coeffs: np.ndarray  # (D, C), constant-first

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _read_only(as_coeff_matrix(self.coeffs)))

    @cached_property
    def first_derivative(self) -> np.ndarray:
        """Per-coordinate first-derivative coefficients, shape (D, max(C - 1, 1))."""
        return _read_only(derivative(self.coeffs))

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
        """Evaluate at points x of shape (..., D); returns shape (...): each
        coordinate's polynomial by ``horner``, then 0 + p_0 + p_1 + ... over
        the coordinates, left to right."""
        x = np.asarray(x, dtype=float)
        per_coordinate = horner(self.coeffs, x)
        total = np.zeros(x.shape[:-1])
        for d in range(self.dim):
            total = total + per_coordinate[..., d]
        return total

    def gradient(self, x) -> np.ndarray:
        """Gradient at points x of shape (..., D); returns shape (..., D)."""
        return horner(self.first_derivative, np.asarray(x, dtype=float))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr
