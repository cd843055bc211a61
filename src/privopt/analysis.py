"""Metrics and empirical verification of the convergence lemmas, the
finite-time envelope, consensus, transition-matrix contraction, and the
per-round trace invariants."""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .engine import ExecutionTrace, NonFiniteError, ScheduleError
from .graphs import FusionMatrix, Topology
from .objectives import solve_centralized


@dataclass(frozen=True)
class BoundParams:
    """Constants entering the disagreement and iterate lemmas.

    contraction = 1 - rho/(4 n^2) and envelope = contraction^(-2), where rho is
    the smallest positive fusion weight.
    """

    n: int
    rho: float
    contraction: float   # strictly inside (0, 1)
    envelope: float      # greater than 1
    grad_bound: float    # per-agent gradient sup-norm bound
    grad_smoothness: float  # per-agent gradient Lipschitz bound
    delta: float

    def to_dict(self) -> dict:
        return asdict(self)


def bound_params(topology: Topology, weights: FusionMatrix,
                 gradient_bounds: tuple[float, float], delta: float) -> BoundParams:
    """Assemble the lemma constants from the fusion matrix and the (L, N)
    gradient bounds of the descended objectives."""
    n = topology.n
    rho = weights.rho
    contraction = 1.0 - rho / (4.0 * n * n)
    envelope = contraction ** -2.0
    grad_bound, grad_smoothness = gradient_bounds
    return BoundParams(n=n, rho=rho, contraction=contraction, envelope=envelope,
                       grad_bound=grad_bound, grad_smoothness=grad_smoothness, delta=delta)


def effective_bounds(trace: ExecutionTrace) -> BoundParams:
    """Bound constants of a trace: its ``gradient_bounds`` and its state
    perturbation bound (0 for dgd and fs)."""
    return bound_params(trace.topology, trace.fusion, trace.gradient_bounds, delta=trace.delta)


@dataclass(frozen=True)
class MetricColumns:
    """Per-round metrics as columns, one entry per recorded round plus the
    post-run state."""

    round_index: np.ndarray       # (R,) ints
    step: np.ndarray              # (R,)
    mean_state: np.ndarray        # (R, D)
    max_disagreement: np.ndarray  # (R,)
    suboptimality: np.ndarray     # (R,)
    eta2: np.ndarray              # (R,)
    growth_coeff: np.ndarray      # (R,) F_k in the iterate lemma
    offset_term: np.ndarray       # (R,) H_k in the iterate lemma


def _steps_for(trace: ExecutionTrace, indices: np.ndarray) -> np.ndarray:
    all_steps = trace.schedule.steps(trace.max_iter + 1)
    return all_steps[indices - 1]


def _iterate_coefficients(steps: np.ndarray, max_dis: np.ndarray, bounds: BoundParams,
                          rounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The growth and offset coefficients F_k and H_k of the iterate lemma at
    the given rounds' steps and max disagreements. Raises NonFiniteError,
    naming the first round, when one is not finite."""
    l, nn, dd = bounds.grad_bound, bounds.grad_smoothness, bounds.delta
    with np.errstate(over="ignore", invalid="ignore"):
        growth = steps * nn * (max_dis + steps * dd)
        offset = (2.0 * steps * bounds.n * (l + nn / 2.0 + dd) * max_dis
                  + np.square(steps) * bounds.n * (nn * dd + np.float64(l + dd) ** 2))
    overflow = ~(np.isfinite(growth) & np.isfinite(offset))
    if overflow.any():
        named = (("gradient bound L", l), ("Lipschitz bound N", nn), ("noise bound delta", dd))
        detail = ", ".join(f"{name} = {value:g}" for name, value in named)
        infinite = [name.split()[-1] for name, value in named if not np.isfinite(value)]
        if infinite:
            detail += f"; {' and '.join(infinite)} not finite"
        raise NonFiniteError(f"round {int(rounds[overflow][0])}: the iterate-lemma coefficients "
                             f"F_k and H_k are not finite ({detail})")
    return growth, offset


def compute_metrics(trace: ExecutionTrace, reference_point: np.ndarray | None = None,
                    optimum_value: float | None = None,
                    bounds: BoundParams | None = None) -> MetricColumns:
    """Per-round metrics over all recorded rounds plus the post-run state.

    The reference point defaults to the centralized optimum, which also
    supplies the suboptimality baseline.
    """
    problem = trace.problem
    if reference_point is None or optimum_value is None:
        x_star, f_star = solve_centralized(problem)
        reference_point = x_star if reference_point is None else reference_point
        optimum_value = f_star if optimum_value is None else optimum_value
    reference_point = np.asarray(reference_point, dtype=float)
    bounds = bounds or effective_bounds(trace)

    idx, states = trace.states_with_final()
    steps = _steps_for(trace, idx)
    mean, max_dis = trace.disagreement
    subopt = problem.total_value(mean) - optimum_value
    eta2 = np.sum(np.square(states - reference_point[None, None, :]), axis=(1, 2))
    growth, offset = _iterate_coefficients(steps, max_dis, bounds, idx)
    return MetricColumns(round_index=idx, step=steps, mean_state=mean, max_disagreement=max_dis,
                         suboptimality=subopt, eta2=eta2, growth_coeff=growth, offset_term=offset)


@dataclass
class CheckReport:
    name: str
    passed: bool
    checked: int
    violations: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    summary: str = ""  # the report table's detail when nothing is violated

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed), "checked": self.checked,
                "violations": self.violations, "details": _plain(self.details)}


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def render_report_table(reports: list) -> str:
    """Aligned human-readable summary of check reports (one line per check)."""
    rows = [("check", "status", "checked", "detail")]
    for rep in reports:
        detail = rep.summary
        if rep.violations:
            detail = f"{len(rep.violations)} violation(s); first: {rep.violations[0]}"
        rows.append((rep.name, "PASS" if rep.passed else "FAIL", str(rep.checked), detail))
    widths = [max(len(r[c]) for r in rows) for c in range(3)]
    lines = ["  ".join(r[c].ljust(widths[c]) for c in range(3)) + "  " + r[3] for r in rows]
    return "\n".join(lines)


def _linear_quantiles(values: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """``np.quantile(values, qs)`` of a non-empty 1-D float array, bit for bit
    (signed zeros included), by the steps of numpy's linear method: the
    virtual index, its clamping, a partition at the neighbouring indices and
    the two-sided interpolation. numpy builds the partition's index list with
    ``np.unique``, which imports ``numpy.ma`` on first use; a set gives the
    same sorted list."""
    arr = np.array(values, dtype=float)  # a copy: the partition works in place
    n = arr.size
    virtual = (n - 1) * qs
    prev = np.floor(virtual)
    nxt = prev + 1
    above, below = virtual >= n - 1, virtual < 0
    prev[above] = nxt[above] = -1
    prev[below] = nxt[below] = 0
    prev, nxt = prev.astype(np.intp), nxt.astype(np.intp)
    arr.partition(np.array(sorted({0, -1, *prev.tolist(), *nxt.tolist()})))
    if np.isnan(arr[-1]):  # a NaN sorts last and is every quantile
        return np.full(qs.shape, arr[-1])
    lo, hi = arr[prev], arr[nxt]
    gamma = virtual - prev
    diff = hi - lo
    out = lo + diff * gamma
    np.subtract(hi, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def check_lemma1(trace: ExecutionTrace, bounds: BoundParams, slack: float = 1e-9) -> CheckReport:
    """Disagreement bound: for every audited round k the next-round max
    disagreement stays below the geometric mixing envelope."""
    idx = trace.states_with_final()[0]
    _, max_dis = trace.disagreement
    init_norm = float(np.max(np.linalg.norm(trace.init, axis=1)))
    all_steps = trace.schedule.steps(trace.max_iter)
    beta, theta = bounds.contraction, bounds.envelope
    n, l_plus = bounds.n, bounds.grad_bound + bounds.delta

    # tail[k] = sum_{l=2..k} beta^(k+1-l) alpha_{l-1}, by its recursion; a
    # linear recurrence has no exact array form, so it runs on Python floats
    tail = [0.0, 0.0]
    for step in all_steps[:-1].tolist():
        tail.append(beta * (tail[-1] + step))

    # each round k whose successor k + 1 is recorded bounds that successor
    later = idx >= 2
    ks, lhs = idx[later] - 1, max_dis[later]
    # scalar pow per round: numpy's vectorised power differs from it in the last bits
    powers = np.array([beta ** k for k in ks.tolist()])
    rhs = (n * theta * powers * init_norm
           + 2.0 * all_steps[ks - 1] * l_plus
           + n * theta * l_plus * np.array(tail)[ks])
    margins = rhs - lhs
    bad = lhs > rhs + slack
    violations = [{"round": k, "lhs": x, "rhs": y}
                  for k, x, y in zip(ks[bad].tolist(), lhs[bad].tolist(), rhs[bad].tolist())]
    details = {"min_margin": float(np.min(margins)) if margins.size else None}
    if margins.size:
        qs = _linear_quantiles(margins, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
        details["margin_quantiles"] = {str(q): float(v)
                                       for q, v in zip((0, 25, 50, 75, 100), qs)}
    return CheckReport(name="lemma1", passed=not violations, checked=int(margins.size),
                       violations=violations, details=details,
                       summary=f"min margin {np.min(margins):.3e}" if margins.size else "")


def check_lemma2(trace: ExecutionTrace, y: np.ndarray,
                 bounds: BoundParams | None = None, slack: float = 1e-9) -> CheckReport:
    """Iterate relation: squared distances to any feasible reference point
    contract up to the growth and offset terms, at every audited round pair."""
    problem = trace.problem
    y = np.asarray(y, dtype=float)
    if not problem.feasible.contains(y, tol=1e-12):
        raise ValueError("reference point must lie in the feasible set")
    bounds = bounds or effective_bounds(trace)
    idx, states = trace.states_with_final()
    steps = _steps_for(trace, idx)
    mean, max_dis = trace.disagreement
    eta2 = np.sum(np.square(states - y[None, None, :]), axis=(1, 2))
    f_mean = problem.total_value(mean)
    f_y = float(problem.total_value(y))

    # every recorded round r whose successor round is recorded too
    r = np.flatnonzero(idx[1:] == idx[:-1] + 1)
    a = steps[r]
    growth, offset = _iterate_coefficients(a, max_dis[r], bounds, idx[r])
    rhs = (1.0 + growth) * eta2[r] - 2.0 * a * (f_mean[r] - f_y) + offset
    lhs = eta2[r + 1]
    margins = rhs - lhs
    bad = lhs > rhs + slack
    violations = [{"round": k, "lhs": x, "rhs": y}
                  for k, x, y in zip(idx[r[bad]].tolist(), lhs[bad].tolist(), rhs[bad].tolist())]
    hist_counts, hist_edges = (np.histogram(margins, bins=10) if margins.size
                               else (np.array([]), np.array([])))
    details = {"min_margin": float(np.min(margins)) if margins.size else None,
               "margin_histogram": {"counts": hist_counts.tolist(), "edges": hist_edges.tolist()}}
    return CheckReport(name="lemma2", passed=not violations, checked=int(r.size),
                       violations=violations, details=details,
                       summary=f"min margin {np.min(margins):.3e}" if margins.size else "")


def check_consensus(trace: ExecutionTrace, tail_fraction: float = 0.1,
                    threshold: float = 1e-3) -> CheckReport:
    """Trailing max disagreement must fall below the threshold and be strictly
    smaller than over the leading fraction. Non-convergent schedules are
    reported as such rather than failed. ValueError unless ``tail_fraction``
    lies in (0, 1)."""
    if not 0.0 < tail_fraction < 1.0:
        raise ValueError(f"tail_fraction must lie in (0, 1), got {tail_fraction!r}")
    _, max_dis = trace.disagreement
    count = max(1, int(np.ceil(tail_fraction * max_dis.size)))
    head = float(np.max(max_dis[:count]))
    tail = float(np.max(max_dis[-count:]))
    single_agent = trace.n == 1
    ok = tail < threshold and (tail < head or (head == 0.0 and tail == 0.0))
    status = "passed" if ok else (
        "schedule-non-convergent" if not trace.schedule.convergent else "failed")
    return CheckReport(name="consensus", passed=status != "failed", checked=max_dis.size,
                       violations=[] if ok else [{"tail_max": tail, "head_max": head}],
                       details={"status": status, "tail_max": tail, "head_max": head,
                                "threshold": threshold, "single_agent": single_agent,
                                "schedule_convergent": trace.schedule.convergent},
                       summary=f"tail {tail:.3e} vs head {head:.3e} [{status}]")


def weighted_average_suboptimality(trace: ExecutionTrace, optimum_value: float,
                                   horizons: np.ndarray) -> np.ndarray:
    """Worst-agent suboptimality of the step-weighted running state average at
    the requested horizons. Requires a complete (undownsampled) trace."""
    if not trace.complete:
        raise ValueError("weighted averages require a complete trace (record_every == 1)")
    steps = trace.steps
    weighted = trace.states * steps[:, None, None]
    cum_states = np.cumsum(weighted, axis=0)
    cum_steps = np.cumsum(steps)
    out = np.empty(len(horizons))
    for i, t in enumerate(horizons):
        avg = cum_states[t - 1] / cum_steps[t - 1]  # (n, D), feasible by convexity
        out[i] = float(np.max(trace.problem.total_value(avg)) - optimum_value)
    return out


def theorem3_horizons(max_iter: int, count: int = 20) -> np.ndarray:
    """The distinct rounds, 10 or later, nearest to ``count`` logarithmically
    spaced points from 10 to ``max_iter``, in ascending order."""
    hs = np.array(sorted(set(np.round(np.logspace(1, np.log10(max_iter), count))
                             .astype(int).tolist())))
    return hs[hs >= 10]


@dataclass
class EnvelopeFit:
    delta: float
    fitted_constant: float
    envelope_constant: float
    horizons: np.ndarray
    suboptimality: np.ndarray
    ratios: np.ndarray
    trend_ok: bool

    def to_dict(self) -> dict:
        return _plain({"delta": self.delta, "fitted_constant": self.fitted_constant,
                       "envelope_constant": self.envelope_constant,
                       "horizons": self.horizons, "suboptimality": self.suboptimality,
                       "ratios": self.ratios, "trend_ok": self.trend_ok})


def check_theorem3(traces: list, optimum_value: float | None = None,
                   horizons: np.ndarray | None = None) -> CheckReport:
    """Finite-time envelope check on a family of runs of one problem.

    ``traces`` are runs with the inverse-sqrt schedule. For each run the
    weighted-average suboptimality is measured at logarithmic horizons, an
    envelope constant c for c*log(T)/sqrt(T) is fitted on the tail, the
    normalized residual trend must be non-increasing, and the fitted
    constants must be non-decreasing in the runs' delta. ValueError when
    there is no trace or the traces' problems differ, as the constants are
    only comparable on one problem.
    """
    if not traces:
        raise ValueError("the finite-time envelope needs at least one trace")
    spec = traces[0].problem.to_spec()
    if any(trace.problem.to_spec() != spec for trace in traces[1:]):
        raise ValueError("the finite-time envelope compares runs of one problem; "
                         "the traces' problems differ")
    if optimum_value is None:
        _, optimum_value = solve_centralized(traces[0].problem)
    fits = []
    for trace in traces:
        if trace.schedule.kind != "inv_sqrt":
            raise ScheduleError("the finite-time envelope requires the inverse-sqrt schedule")
        hs = theorem3_horizons(trace.max_iter) if horizons is None else horizons
        sub = weighted_average_suboptimality(trace, optimum_value, hs)
        basis = np.log(hs) / np.sqrt(hs)
        ratios = sub / basis
        tail = slice(hs.size // 2, None)
        fitted = float(np.dot(sub[tail], basis[tail]) / np.dot(basis[tail], basis[tail]))
        env = float(np.max(ratios))
        head_max = float(np.max(ratios[: max(1, hs.size // 2)]))
        tail_max = float(np.max(ratios[hs.size // 2:]))
        trend_ok = tail_max <= head_max + 1e-12
        fits.append(EnvelopeFit(delta=trace.delta, fitted_constant=fitted,
                                envelope_constant=env, horizons=hs, suboptimality=sub,
                                ratios=ratios, trend_ok=trend_ok))
    violations = []
    for f in fits:
        if not f.trend_ok:
            violations.append({"delta": f.delta, "reason": "residual trend increased"})
        below = f.suboptimality <= f.envelope_constant * np.log(f.horizons) / np.sqrt(f.horizons) + 1e-12
        if not np.all(below):
            violations.append({"delta": f.delta, "reason": "point above fitted envelope"})
    ordered = sorted(fits, key=lambda f: f.delta)
    for a, b in zip(ordered, ordered[1:]):
        if b.fitted_constant + 1e-12 < a.fitted_constant:
            violations.append({"reason": "fitted constant not non-decreasing in delta",
                               "delta_low": a.delta, "delta_high": b.delta,
                               "c_low": a.fitted_constant, "c_high": b.fitted_constant})
    constants = ", ".join(f"{f.delta:g}:{f.fitted_constant:.2e}" for f in fits)
    return CheckReport(name="theorem3", passed=not violations, checked=len(fits),
                       violations=violations,
                       details={"fits": [f.to_dict() for f in fits]},
                       summary=f"fitted constants {constants}")


def check_transition_matrix(weights: FusionMatrix, horizon: int,
                            slack: float = 1e-12) -> CheckReport:
    """Products of the fusion matrix approach uniform averaging inside the
    geometric envelope, with a non-increasing deviation profile. The one
    place the (n, n) matrix is built, since its powers fill it."""
    n = weights.topology.n
    b = weights.topology.fuse_slots.entries(weights.weights)
    rho = weights.rho
    contraction = 1.0 - rho / (4.0 * n * n)
    envelope = contraction ** -2.0
    uniform = 1.0 / n
    power = np.eye(n)
    deviations = np.empty(horizon)
    violations = []
    prev = np.inf
    for k in range(1, horizon + 1):
        power = power @ b
        dev = float(np.max(np.abs(power - uniform)))
        deviations[k - 1] = dev
        if dev > envelope * contraction ** k + slack:
            violations.append({"k": k, "deviation": dev, "bound": envelope * contraction ** k})
        if dev > prev + 1e-13:
            violations.append({"k": k, "reason": "deviation profile increased",
                               "deviation": dev, "previous": prev})
        prev = dev
    return CheckReport(name="transition", passed=not violations, checked=horizon,
                       violations=violations,
                       details={"final_deviation": float(deviations[-1]),
                                "contraction": contraction, "envelope": envelope},
                       summary=f"final deviation {deviations[-1]:.3e}")


def audit_invariants(trace: ExecutionTrace, tol: float = 1e-12) -> CheckReport:
    """Exact per-round invariants: doubly stochastic weights, feasible states,
    cancelling perturbation sums, average preservation under fusion, and the
    gradient-noise perspective identity."""
    violations = []
    n = trace.n
    box = trace.problem.feasible
    slots = trace.topology.fuse_slots

    weights = trace.weights
    if (np.max(np.abs(weights.sum(axis=0) - 1.0)) > tol
            or np.max(np.abs(slots.column_sums(weights) - 1.0)) > tol):
        violations.append({"invariant": "doubly_stochastic"})

    idx, states = trace.states_with_final()
    if not (np.all(states >= box.lower - tol) and np.all(states <= box.upper + tol)):
        violations.append({"invariant": "states_feasible"})

    if trace.algorithm == "rss_nb":
        sums = np.abs(trace.perturbations.sum(axis=1)).max(axis=-1)
        if sums.size and float(sums.max()) > tol:
            violations.append({"invariant": "network_balanced_sum", "max": float(sums.max())})
        norms = np.linalg.norm(trace.perturbations, axis=2)
        if norms.size and float(norms.max()) > trace.delta + tol:
            violations.append({"invariant": "perturbation_bound", "max": float(norms.max())})
        if trace.shares is not None:
            share_norms = np.linalg.norm(trace.shares, axis=-1)
            cap = trace.delta / (2.0 * n) + tol
            if share_norms.size and float(share_norms.max()) > cap:
                violations.append({"invariant": "share_bound", "max": float(share_norms.max())})
    if trace.algorithm == "rss_lb" and trace.perturbations.size:
        # sum_i B[i, j] d[j, i] per sender j, over its contiguous edges
        senders = trace.topology.sender_edges[0]
        terms = slots.edge_weights(weights)[:, None] * trace.perturbations
        weighted = np.abs(np.add.reduceat(terms, np.searchsorted(senders, np.arange(n)), axis=1))
        if float(weighted.max()) > tol:
            violations.append({"invariant": "locally_balanced_sum", "max": float(weighted.max())})
        norms = np.linalg.norm(trace.perturbations, axis=-1)
        if float(norms.max()) > trace.delta + tol:
            violations.append({"invariant": "perturbation_bound", "max": float(norms.max())})

    fused_noise_sum = np.abs(trace.fused_noise.sum(axis=1)).max(axis=-1)
    if fused_noise_sum.size and float(fused_noise_sum.max()) > tol:
        violations.append({"invariant": "fused_noise_sum", "max": float(fused_noise_sum.max())})

    mean_states = trace.states.mean(axis=1)
    mean_fused_true = trace.fused_true.mean(axis=1)
    drift = float(np.abs(mean_states - mean_fused_true).max()) if mean_states.size else 0.0
    if drift > tol:
        violations.append({"invariant": "average_preserved", "max": drift})

    # Perspective identity: next state equals a projected descent step from the
    # true fused state with the fused noise folded into the gradient.
    # each recorded round whose successor is recorded (or is the post-run state)
    successor = trace.round_index + 1
    nxt = np.searchsorted(idx, successor)  # successor <= idx[-1], so nxt < idx.size
    rows = np.flatnonzero(idx[nxt] == successor)
    nxt = nxt[rows]
    worst = 0.0
    if rows.size:
        grads = trace.descended.agent_gradients(trace.fused)
        alt = box.project(trace.fused_true
                          - trace.steps[:, None, None] * (grads - trace.fused_noise))
        gaps = np.abs(alt[rows] - states[nxt]).max(axis=(1, 2))
        worst = float(gaps.max())
        if worst > tol:
            bad = int(np.argmax(gaps))
            violations.append({"invariant": "gradient_noise_perspective",
                               "round": int(trace.round_index[rows[bad]]), "gap": worst})
    return CheckReport(name="invariants", passed=not violations,
                       checked=int(idx.size + rows.size), violations=violations,
                       details={"perspective_worst_gap": worst},
                       summary=f"perspective gap {worst:.3e}")
