"""Convex local objectives, box feasible sets with Euclidean projection, and the
global sum objective with a centralized optimum oracle."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .polynomials import (SeparablePolynomial, as_coeff_matrix, critical_points_overflow,
                          derivative, derivative_sups, horner, horner_planes, interval_candidates,
                          interval_extrema, pad_coeffs)


class DimensionMismatchError(ValueError):
    pass


class ConvexityError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class Box:
    """Axis-aligned feasible set; nonempty, convex and compact."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise DimensionMismatchError("lower/upper bounds must be 1-D and equal length")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("box bounds must be finite (compactness)")
        if np.any(lower > upper):
            raise ValueError("box must be nonempty: lower <= upper")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def project(self, z, out: np.ndarray | None = None) -> np.ndarray:
        """Componentwise clamp: the unique Euclidean-nearest feasible point,
        into ``out`` when given (which may be ``z`` itself). The ``ndarray.clip``
        method gives ``np.clip``'s bits, signed zeros and NaN included, and
        skips ``np.clip``'s function wrapper."""
        z = np.asarray(z, dtype=float)
        if z.shape[-1] != self.dim:
            raise DimensionMismatchError(f"point dimension {z.shape[-1]} != box dimension {self.dim}")
        return z.clip(self.lower, self.upper, out=out)

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def corners(self) -> np.ndarray:
        if self.dim > 16:
            raise ValueError("corner enumeration limited to 16 dimensions")
        out = np.zeros((2 ** self.dim, self.dim))
        for i in range(2 ** self.dim):
            for d in range(self.dim):
                out[i, d] = self.upper[d] if (i >> d) & 1 else self.lower[d]
        return out

    def to_spec(self) -> dict:
        return {"lower": self.lower.tolist(), "upper": self.upper.tolist()}

    @classmethod
    def from_spec(cls, spec: dict) -> "Box":
        return cls(lower=spec["lower"], upper=spec["upper"])


class Objective:
    """Base class: differentiable convex function on a box."""

    dim: int = 1

    def value(self, x) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        raise NotImplementedError

    def check_dim(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            x = x[None]
        if x.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"point dimension {x.shape[-1]} != objective dimension {self.dim}"
            )
        return x

    def constants(self, box: Box) -> tuple[float, float]:
        """Closed-form upper bounds on the box for the gradient norm (L) and
        the gradient Lipschitz constant (N)."""
        raise NotImplementedError

    def to_spec(self) -> dict:
        raise NotImplementedError


class PolynomialObjective(Objective):
    """Separable polynomial objective. ``GlobalProblem`` checks its convexity
    on the box; obfuscated objectives, which may lose convexity while their
    network sum stays convex, go into a problem built with
    ``validate_convexity=False``."""

    def __init__(self, coeffs):
        self.poly = SeparablePolynomial(as_coeff_matrix(coeffs))
        self.dim = self.poly.dim

    def value(self, x):
        return self.poly.value(self.check_dim(x))

    def gradient(self, x):
        return self.poly.gradient(self.check_dim(x))

    def constants(self, box: Box) -> tuple[float, float]:
        grad, curv = derivative_sups(self.poly.coeffs, box.lower, box.upper)
        return float(grad), float(curv)

    def to_spec(self) -> dict:
        return {"kind": "polynomial", "coeffs": self.poly.coeffs.tolist()}


class QuadraticObjective(Objective):
    """f(x) = 0.5 x'Qx + b'x + c with symmetric positive semidefinite Q.
    ``GlobalProblem`` checks both properties of Q, for every agent at once."""

    def __init__(self, matrix, vector, scalar: float = 0.0):
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        self.vector = np.atleast_1d(np.asarray(vector, dtype=float))
        self.scalar = float(scalar)
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise DimensionMismatchError("quadratic matrix must be square")
        if self.vector.shape[0] != self.matrix.shape[0]:
            raise DimensionMismatchError("quadratic vector length must match the matrix")
        self.dim = self.matrix.shape[0]

    def value(self, x):
        return _quadratic_values(self.check_dim(x), self.matrix.T, self.vector, self.scalar)

    def gradient(self, x):
        return _affine_rows(self.check_dim(x), self.matrix.T, self.vector)

    def constants(self, box: Box) -> tuple[float, float]:
        # ||Qx + b|| is convex, so its max over the box sits at a corner.
        return (float(np.max(np.linalg.norm(self.gradient(box.corners()), axis=-1))),
                float(np.linalg.norm(self.matrix, 2)))

    def to_spec(self) -> dict:
        return {"kind": "quadratic", "matrix": self.matrix.tolist(),
                "vector": self.vector.tolist(), "scalar": self.scalar}


class LogisticObjective(Objective):
    """Logistic loss over an embedded seeded synthetic dataset with a small
    ridge term, so the machine-learning use case runs without external data."""

    def __init__(self, seed: int, dim: int = 2, samples: int = 40, ridge: float = 0.01):
        self.seed = int(seed)
        self.dim = int(dim)
        self.samples = int(samples)
        self.ridge = float(ridge)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(7340191, self.seed))))
        self.features = rng.normal(0.0, 1.0, size=(self.samples, self.dim))
        separator = rng.normal(0.0, 1.0, size=self.dim)
        margins = self.features @ separator + 0.3 * rng.normal(size=self.samples)
        self.labels = np.where(margins >= 0.0, 1.0, -1.0)

    def _margins(self, x):
        x = self.check_dim(x)
        return np.tensordot(x, self.features, axes=([-1], [1])), x  # (..., samples)

    def value(self, x):
        m, x = self._margins(x)
        loss = np.mean(np.logaddexp(0.0, -self.labels * m), axis=-1)
        return loss + 0.5 * self.ridge * np.sum(x * x, axis=-1)

    def gradient(self, x):
        m, x = self._margins(x)
        sig = 1.0 / (1.0 + np.exp(self.labels * m))  # sigma(-y m)
        grad = -np.tensordot(sig * self.labels, self.features, axes=([-1], [0])) / self.samples
        if grad.shape != x.shape:
            grad = -np.einsum("...s,sd->...d", sig * self.labels, self.features) / self.samples
        return grad + self.ridge * x

    def constants(self, box: Box) -> tuple[float, float]:
        # L: sigma <= 1 bounds the loss term by the mean feature norm;
        # N: p(1 - p) <= 1/4, attained at x = 0
        reach = np.maximum(np.abs(box.lower), np.abs(box.upper))
        gram = self.features.T @ self.features
        return (float(np.mean(np.linalg.norm(self.features, axis=-1))
                      + self.ridge * np.linalg.norm(reach)),
                float(np.linalg.eigvalsh(gram)[-1]) / (4 * self.samples) + self.ridge)

    def to_spec(self) -> dict:
        return {"kind": "logistic", "seed": self.seed, "dim": self.dim,
                "samples": self.samples, "ridge": self.ridge}


# A stacked total evaluates every agent at every point at once; large batches
# go in blocks of about this many agent coordinates, so the temporaries stay
# small (about this many values for polynomials, D times as many for
# quadratics, whose temporary holds the D products Q_ij x_j of a coordinate).
_BLOCK_VALUES = 1 << 13


# A polynomial counts as convex on the box when its second derivative does
# not fall below this.
_CURVATURE_FLOOR = -1e-12


def _not_psd(spectra: np.ndarray) -> np.ndarray:
    """Whether each symmetric matrix, given by its eigenvalues (..., D), is
    not positive semidefinite: its smallest eigenvalue is below -1e-10 times
    the larger of 1 and its largest magnitude."""
    scale = np.maximum(1.0, np.abs(spectra).max(axis=-1, initial=0.0))
    return spectra.min(axis=-1, initial=np.inf) < -1e-10 * scale


def _stack_padded(arrays) -> np.ndarray:
    """(k, D, C) stack of (D, C_j) coefficient arrays, zero-padded at the high
    end to the widest. The padding changes no derivative's roots and, at
    finite points, no value."""
    width = max(a.shape[-1] for a in arrays)
    return np.stack([pad_coeffs(a, width) for a in arrays])


def _ordered_sum(terms: np.ndarray, axis: int) -> np.ndarray:
    """0 + t_0 + t_1 + ... over ``axis``, added left to right as Python's
    ``sum`` over objectives adds (``np.sum`` would add pairwise), so a
    stacked total is bit-identical to the per-objective loop. The running
    sums overwrite ``terms``, and the total is a view of it."""
    terms = np.moveaxis(terms, axis, 0)
    terms[0] += 0.0  # 0 + t_0: turns -0.0 into +0.0
    np.add.accumulate(terms, axis=0, out=terms)
    return terms[-1]


def _quadratic_values(x, matrices_t, vectors, scalars):
    """x'(Qx/2 + b) + c, which is 0.5 x'Qx + b'x + c, at points x: of one
    quadratic, given as (Q^T, b, c) and x of shape (..., D), or of a stack,
    given as (n, D, D), (n, D) and (n,) arrays and x of shape (..., 1, D).
    Only elementwise operations, and each sum added left to right by
    ``_ordered_sum``, so a point's value does not depend on the batch around
    it and a stack gives each quadratic's own value bit for bit (an einsum
    or a matrix product may add in another order for another batch)."""
    terms = _ordered_sum(matrices_t * x[..., :, None], axis=-2)  # (Qx)_i: Q_ij x_j over j
    terms *= 0.5
    terms += vectors
    terms *= x
    values = _ordered_sum(terms, axis=-1)
    values += scalars
    return values


def _affine_rows(x, matrix_t, vector):
    """x M + v for every point of x (..., D), one vector-matrix product per
    point, so a point's gradient does not depend on the batch around it."""
    return np.matmul(x[..., None, :], matrix_t)[..., 0, :] + vector


def objective_from_spec(spec: dict) -> Objective:
    kind = spec.get("kind")
    if kind == "polynomial":
        return PolynomialObjective(spec["coeffs"])
    if kind == "quadratic":
        return QuadraticObjective(spec["matrix"], spec["vector"], spec.get("scalar", 0.0))
    if kind == "logistic":
        return LogisticObjective(spec["seed"], dim=spec.get("dim", 2),
                                 samples=spec.get("samples", 40), ridge=spec.get("ridge", 0.01))
    raise ValueError(f"unknown objective kind: {kind!r}")


@dataclass(frozen=True)
class GlobalProblem:
    """Local objectives plus the shared feasible set: the one place that
    evaluates the whole problem.

    When every objective is a polynomial, or every one a quadratic, their
    coefficients are stacked on first use (never at construction), so
    ``agent_gradients`` and ``total_value``, and the quadratics'
    ``total_gradient``, are one array evaluation for all agents. Totals add
    the agents left to right, as the per-objective loop does, so every value
    is bit-identical to it. Logistic and mixed-kind problems evaluate agent
    by agent. The per-agent constants are likewise computed once per
    instance.

    Construction checks, in one stacked pass each, that every quadratic
    matrix is symmetric (to 1e-12) and, unless ``validate_convexity`` is
    False, that every objective is convex on the feasible set. Only function
    sharing's obfuscated objectives may lose convexity, because their sum is
    unchanged; their problem is built with ``validate_convexity=False``.
    """

    objectives: tuple
    feasible: Box
    validate_convexity: bool = True

    def __post_init__(self):
        object.__setattr__(self, "objectives", tuple(self.objectives))
        dims = {obj.dim for obj in self.objectives}
        if len(dims) != 1:
            raise DimensionMismatchError(f"objectives disagree on dimension: {sorted(dims)}")
        if dims != {self.feasible.dim}:
            raise DimensionMismatchError("objective dimension must match the feasible set")
        quadratic = self._quadratic_agents()
        self._check_symmetry(*quadratic)
        if self.validate_convexity:
            self._check_convexity(*quadratic)

    def _quadratic_agents(self) -> tuple[list, np.ndarray | None]:
        """Indices of the quadratic objectives and their stacked matrices."""
        agents = [j for j, obj in enumerate(self.objectives) if isinstance(obj, QuadraticObjective)]
        if not agents:
            return agents, None
        return agents, np.stack([self.objectives[j].matrix for j in agents])

    @staticmethod
    def _check_symmetry(agents: list, matrices: np.ndarray | None) -> None:
        """Raise ValueError naming the first quadratic agent whose matrix Q
        has an entry of |Q - Q^T| above 1e-12, one check for every agent."""
        if matrices is None:
            return
        asymmetry = np.abs(matrices - matrices.swapaxes(-1, -2)).max(axis=(-2, -1))
        bad = np.flatnonzero(asymmetry > 1e-12)
        if bad.size:
            raise ValueError(f"agent {agents[bad[0]]}: quadratic matrix is not symmetric "
                             f"(largest |Q - Q^T| entry {asymmetry[bad[0]]:.3e})")

    def _polynomial_agents(self) -> tuple[list, np.ndarray | None]:
        """Indices of the polynomial objectives and their ``_stack_padded``
        coefficients."""
        agents = [j for j, obj in enumerate(self.objectives) if isinstance(obj, PolynomialObjective)]
        if not agents:
            return agents, None
        return agents, _stack_padded([self.objectives[j].poly.coeffs for j in agents])

    def _check_convexity(self, quadratic: list, matrices: np.ndarray | None) -> None:
        """Raise ConvexityError naming the first agent whose objective is not
        convex on the feasible set. One ``interval_extrema`` call gives the
        curvature floors of every polynomial agent and one stacked
        ``eigvalsh`` call the spectra of the ``quadratic`` agents' stacked
        ``matrices``; logistic objectives are convex by construction."""
        box = self.feasible
        faults = []  # (agent, what is wrong with its objective)
        agents, coeffs = self._polynomial_agents()
        if coeffs is not None:
            try:
                floors = interval_extrema(derivative(coeffs, 2), box.lower,
                                          box.upper)[0].min(axis=-1)
            except np.linalg.LinAlgError:
                self.check_critical_points()  # names the agent whose roots cannot be located
                raise
            bad = np.flatnonzero(floors < _CURVATURE_FLOOR)
            if bad.size:
                faults.append((agents[bad[0]], f"polynomial objective is non-convex on the "
                               f"feasible set (second derivative reaches {floors[bad[0]]:.3e})"))
        if matrices is not None:
            spectra = np.linalg.eigvalsh(matrices)
            bad = np.flatnonzero(_not_psd(spectra))
            if bad.size:
                faults.append((quadratic[bad[0]], f"quadratic matrix is not positive semidefinite "
                               f"(min eigenvalue {spectra[bad[0]].min():.3e})"))
        if faults:
            agent, fault = min(faults)
            raise ConvexityError(f"agent {agent}: {fault}")

    def _stacked_polynomials(self, rows) -> np.ndarray | None:
        """(n, D, C) stack of one (D, C_j) coefficient array per objective,
        zero-padded at the high end to the widest, if every objective is a
        polynomial; else None."""
        if not all(isinstance(obj, PolynomialObjective) for obj in self.objectives):
            return None
        out = _stack_padded([rows(obj.poly) for obj in self.objectives])
        out.flags.writeable = False
        return out

    @cached_property
    def _coefficients(self) -> np.ndarray | None:
        """(n, D, C) value coefficients of all-polynomial objectives; else None."""
        return self._stacked_polynomials(lambda poly: poly.coeffs)

    @cached_property
    def _derivatives(self) -> tuple[np.ndarray, ...] | None:
        """First-derivative coefficients of all-polynomial objectives as C'
        contiguous (n, D) planes, constant first, for ``horner_planes``;
        else None."""
        stacked = self._stacked_polynomials(lambda poly: poly.first_derivative)
        if stacked is None:
            return None
        planes = np.ascontiguousarray(np.moveaxis(stacked, -1, 0))
        planes.flags.writeable = False
        return tuple(planes)

    @cached_property
    def _affine(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Stacked (Q_j^T, b_j) of all-quadratic objectives, shapes (n, D, D)
        and (n, D); else None."""
        if not all(isinstance(obj, QuadraticObjective) for obj in self.objectives):
            return None
        matrices_t = np.stack([obj.matrix.T for obj in self.objectives])
        vectors = np.stack([obj.vector for obj in self.objectives])
        matrices_t.flags.writeable = vectors.flags.writeable = False
        return matrices_t, vectors

    @cached_property
    def _scalars(self) -> np.ndarray:
        """(n,) constant terms c_j of all-quadratic objectives."""
        return np.array([obj.scalar for obj in self.objectives])

    @property
    def n(self) -> int:
        return len(self.objectives)

    @property
    def dim(self) -> int:
        return self.feasible.dim

    def total_value(self, x) -> np.ndarray:
        """Sum of the objectives' values at points x of shape (..., D)."""
        if self._coefficients is None and self._affine is None:
            return sum(obj.value(x) for obj in self.objectives)
        x = self.objectives[0].check_dim(x)  # every objective has the problem's dimension
        flat = x.reshape(-1, self.dim)
        rows = max(1, _BLOCK_VALUES // (self.n * self.dim))
        if len(flat) > rows:
            blocks = [self.total_value(flat[i:i + rows]) for i in range(0, len(flat), rows)]
            return np.concatenate(blocks).reshape(x.shape[:-1])
        points = x[..., None, :]
        if self._coefficients is not None:
            per_agent = _ordered_sum(horner(self._coefficients, points), axis=-1)  # (..., n)
        else:
            per_agent = _quadratic_values(points, *self._affine, self._scalars)
        return _ordered_sum(per_agent, axis=-1).copy()

    def total_gradient(self, x) -> np.ndarray:
        """Sum of the objectives' gradients at points x of shape (..., D).

        Only all-quadratic problems sum stacked gradients. Polynomial
        problems keep the per-objective loop: the oracle's descent is the
        last caller of ``PolynomialObjective.gradient``, whose calls the
        traced benchmark's self-test requires on its polynomial workloads
        (``EXPECT_NONZERO`` in ``perfbench/run.py``)."""
        if self._affine is None:
            return sum(obj.gradient(x) for obj in self.objectives)
        x = self.objectives[0].check_dim(x)
        return _ordered_sum(_affine_rows(x[..., None, :], *self._affine), axis=-2).copy()

    def agent_gradients(self, points) -> np.ndarray:
        """Gradient of objective j at points[..., j, :] for every agent j;
        points of shape (..., n, D), result of the same shape."""
        points = np.asarray(points, dtype=float)
        if points.shape[-2:] != (self.n, self.dim):
            raise DimensionMismatchError(
                f"points of shape {points.shape} do not end in (agents, dimension) "
                f"= ({self.n}, {self.dim})")
        if self._derivatives is not None:
            return horner_planes(self._derivatives, points)
        if self._affine is not None:
            return _affine_rows(points, *self._affine)
        return np.stack([obj.gradient(points[..., j, :]) for j, obj in enumerate(self.objectives)],
                        axis=-2)

    @cached_property
    def agent_constants(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-agent gradient bounds L_j and gradient Lipschitz bounds N_j on
        the feasible set, shapes (n,), computed once per problem. All-quadratic
        problems take them from the stacked (Q_j^T, b_j) in a few array
        operations, bit-identical to ``estimate_constants``, which the other
        problems call objective by objective."""
        if self._affine is not None:
            # ||Q_j x + b_j|| at every corner, and ||Q_j||_2, for all agents at once
            corners = self.feasible.corners()[:, None, :]
            grad_bounds = np.max(np.linalg.norm(_affine_rows(corners, *self._affine), axis=-1),
                                 axis=0)
            matrices = np.stack([obj.matrix for obj in self.objectives])
            smoothness = np.linalg.norm(matrices, 2, axis=(1, 2))
        else:
            pairs = [estimate_constants(obj, self.feasible) for obj in self.objectives]
            grad_bounds, smoothness = map(np.array, zip(*pairs))
        grad_bounds.flags.writeable = smoothness.flags.writeable = False
        return grad_bounds, smoothness

    def constants(self) -> tuple[float, float]:
        """Per-agent gradient bound and Lipschitz constant (max over agents)."""
        grad_bounds, smoothness = self.agent_constants
        return max(grad_bounds.tolist()), max(smoothness.tolist())

    def check_critical_points(self) -> None:
        """Raise ValueError naming the first agent whose polynomial's critical
        points cannot be located, so its constants cannot be computed: the
        ``critical_points_overflow`` of every polynomial agent's first and
        second derivatives, at once."""
        agents, coeffs = self._polynomial_agents()
        if coeffs is None:
            return
        bad = (critical_points_overflow(derivative(coeffs))
               | critical_points_overflow(derivative(coeffs, 2))).any(axis=-1)
        if bad.any():
            j = agents[int(np.argmax(bad))]
            raise ValueError(
                f"agent {j}: polynomial {self.objectives[j].poly.coeffs.tolist()} has a "
                f"leading coefficient too small against the others (subnormal, say) to "
                f"locate its critical points")

    def to_spec(self) -> dict:
        return {"objectives": [obj.to_spec() for obj in self.objectives],
                "feasible": self.feasible.to_spec()}

    @classmethod
    def from_spec(cls, spec: dict) -> "GlobalProblem":
        return cls(objectives=[objective_from_spec(s) for s in spec["objectives"]],
                   feasible=Box.from_spec(spec["feasible"]))


def estimate_constants(obj: Objective, box: Box) -> tuple[float, float]:
    """Closed-form gradient bound L and gradient Lipschitz bound N on the box."""
    return obj.constants(box)


def solve_centralized(problem: GlobalProblem, tolerance: float = 1e-8,
                      max_rounds: int = 500_000) -> tuple[np.ndarray, float]:
    """Optimum oracle: projected gradient descent on the sum objective with
    diminishing steps until the gradient-mapping norm drops below tolerance.

    An all-polynomial problem is separable: each coordinate takes the best
    ``interval_candidates`` point (box ends, real critical points, safety
    grid) of the agents' summed polynomial, and that point replaces the
    descent's when its ``total_value`` is strictly lower; there is no grid or
    ternary search. Other problems return the descent's point.
    """
    box = problem.feasible
    smooth_total = sum(problem.agent_constants[1].tolist())
    base = 1.0 / max(smooth_total, 1e-12)
    x = box.midpoint()
    converged = False
    for k in range(1, max_rounds + 1):
        g = problem.total_gradient(x)
        probe = box.project(x - base * g)
        mapping_norm = float(np.linalg.norm(x - probe)) / base
        if mapping_norm <= tolerance:
            converged = True
            break
        step = base * min(1.0, 32.0 / np.sqrt(k))
        x = box.project(x - step * g)
    if not converged:
        raise ConvergenceError(
            f"centralized oracle did not reach gradient-mapping tolerance {tolerance} in {max_rounds} rounds"
        )
    best_x = x
    best_f = float(problem.total_value(x))
    if problem._coefficients is not None:
        summed = problem._coefficients.sum(axis=0)  # (D, C): one polynomial per coordinate
        points = interval_candidates(summed, box.lower, box.upper)
        candidate = points[np.arange(problem.dim), horner(summed[:, None], points).argmin(axis=1)]
        value = float(problem.total_value(candidate))
        if value < best_f:
            best_x, best_f = candidate, value
    return np.asarray(best_x, dtype=float), float(best_f)
