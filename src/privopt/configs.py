"""Run and sweep configuration handling: strict validation, builders, execution."""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .engine import (ALGORITHMS, ExecutionTrace, StepSchedule, run_dgd,
                     run_fs, run_rss_lb, run_rss_nb)
from .graphs import FusionMatrix, Topology, metropolis_weights
from .objectives import GlobalProblem, PolynomialObjective


class ConfigError(ValueError):
    pass


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, name: str) -> float:
    """A JSON number (not a bool) as a float; ConfigError otherwise."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        raise ConfigError(f"{name} must be finite, got {value!r}") from None


_SWEEP_KEYS = {"base", "grid"}
_GRID_KEYS = {"algorithm", "delta", "seed"}


@dataclass
class RunConfig:
    """A validated run configuration. Its fields are the config keys, in the
    order a trace stores them; a field without a default is a required key.
    The topology and the problem are built once, by ``validate``, and every
    later ``build_topology`` or ``build_problem`` returns the same objects,
    as ``build_weights`` does for the same topology; the fields they come
    from are not to be changed after construction."""

    algorithm: str
    topology: dict
    objectives: list
    feasible: dict
    schedule: dict
    max_iter: int
    delta: float = 0.0
    delta_coeff: float = 0.0
    d_max: int = 8
    seed: int = 0
    record_every: int = 1
    metropolis_self_inclusive: bool = False
    init: list | None = None
    output_basename: str = "run"
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("run config must be a JSON object")
        keys = [f for f in fields(cls) if f.init]
        unknown = set(doc) - {f.name for f in keys}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for f in keys:
            if f.default is MISSING and f.name not in doc:
                raise ConfigError(f"missing required config key: {f.name}")
        cfg = cls(**doc)
        cfg.algorithm = str(cfg.algorithm).lower()
        if cfg.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {cfg.algorithm!r}; expected one of {ALGORITHMS}")
        cfg.delta = _number(cfg.delta, "delta")
        cfg.delta_coeff = _number(cfg.delta_coeff, "delta_coeff")
        cfg.output_basename = str(cfg.output_basename)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(doc)

    def validate(self) -> None:
        """Check every value, JSON types included (a bool is not a number),
        then build the topology, the problem, the schedule and the initial
        states; ConfigError for the first fault."""
        for name, least in (("max_iter", 1), ("record_every", 1), ("d_max", 0), ("seed", 0)):
            value = getattr(self, name)
            if not _is_integer(value) or value < least:
                kind = "a positive" if least else "a non-negative"
                raise ConfigError(f"{name} must be {kind} integer, got {value!r}")
        for name in ("delta", "delta_coeff"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and non-negative, got {value!r}")
        if not isinstance(self.metropolis_self_inclusive, bool):
            raise ConfigError(f"metropolis_self_inclusive must be a JSON bool, "
                              f"got {self.metropolis_self_inclusive!r}")
        for name, build in (("topology", self.build_topology), ("problem", self.build_problem),
                            ("schedule", self.build_schedule)):
            try:
                build()
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            except (AttributeError, KeyError, TypeError) as exc:  # a spec of the wrong form
                raise ConfigError(f"{name}: {type(exc).__name__}: {exc}") from exc
        if len(self.objectives) != self.build_topology().n:
            raise ConfigError("one objective per agent is required")
        if self.algorithm == "fs":
            for j, objective in enumerate(self.build_problem().objectives):
                if not isinstance(objective, PolynomialObjective):
                    raise ConfigError(f"agent {j}: function sharing requires polynomial local "
                                      f"objectives, got {self.objectives[j]['kind']!r}")
        self.build_init(self.build_problem())

    def build_topology(self) -> Topology:
        if "topology" not in self._built:
            self._built["topology"] = Topology.from_spec(self.topology)
        return self._built["topology"]

    def build_problem(self) -> GlobalProblem:
        if "problem" not in self._built:
            problem = GlobalProblem.from_spec({"objectives": self.objectives,
                                               "feasible": self.feasible})
            problem.check_critical_points()
            self._built["problem"] = problem
        return self._built["problem"]

    def build_schedule(self) -> StepSchedule:
        return StepSchedule.from_spec(self.schedule)

    def build_weights(self, topology: Topology) -> FusionMatrix:
        """The Metropolis matrix of ``topology``. It is kept until a call for
        another topology object, so a run's runner and engine share one."""
        weights = self._built.get("weights")
        if weights is None or weights.topology is not topology:
            weights = self._built["weights"] = metropolis_weights(
                topology, self_inclusive_degree=self.metropolis_self_inclusive)
        return weights

    def build_init(self, problem: GlobalProblem) -> np.ndarray | None:
        """The initial states as an (n, D) array, or None for the default.
        ``init`` must hold numbers, of shape (n, D) or, when D = 1, (n,), all
        finite and inside the feasible box; ``ConfigError`` otherwise."""
        if self.init is None:
            return None
        try:
            init = np.asarray(self.init)
        except ValueError as exc:  # ragged nesting
            raise ConfigError(f"init is not a numeric array: {exc}") from None
        if init.dtype.kind not in "iuf":
            raise ConfigError(f"init must hold only numbers, got {self.init!r}")
        n, dim = problem.n, problem.dim
        init = init.astype(float)
        if init.ndim == 1 and dim == 1:
            init = init[:, None]
        if init.shape != (n, dim):
            expected = f"({n}, {dim})" + (f" or ({n},)" if dim == 1 else "")
            raise ConfigError(f"init must have shape {expected}, got {np.shape(self.init)}")
        if not np.isfinite(init).all():
            raise ConfigError("init must be finite")
        if not problem.feasible.contains(init):
            raise ConfigError("init must lie in the feasible box")
        return init

    def canonical_dict(self) -> dict:
        """The config keys a trace stores, in field order: all but
        ``output_basename``, and ``init`` only when it is set."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.init and f.name != "output_basename"
                and not (f.name == "init" and self.init is None)}


def execute(config: RunConfig) -> ExecutionTrace:
    """Run the configured algorithm and return its trace. The runners are
    read from this module's names on each call, not from a table built at
    import, so a wrapper bound to one of those names (the benchmark's spans,
    say) is the one that runs."""
    runners = {"dgd": run_dgd, "rss_nb": run_rss_nb, "rss_lb": run_rss_lb, "fs": run_fs}
    return runners[config.algorithm](config)


@dataclass
class SweepConfig:
    base: dict
    algorithms: list
    deltas: list
    seeds: list

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepConfig":
        if not isinstance(doc, dict):
            raise ConfigError("sweep config must be a JSON object")
        unknown = set(doc) - _SWEEP_KEYS
        if unknown:
            raise ConfigError(f"unknown sweep keys: {sorted(unknown)}")
        if "base" not in doc or "grid" not in doc:
            raise ConfigError("sweep config requires 'base' and 'grid'")
        grid, base = doc["grid"], doc["base"]
        if not (isinstance(base, dict) and isinstance(grid, dict)
                and all(isinstance(v, list) for v in grid.values())):
            raise ConfigError("sweep 'base' must be a JSON object and 'grid' an object of lists")
        unknown_grid = set(grid) - _GRID_KEYS
        if unknown_grid:
            raise ConfigError(f"unknown grid keys: {sorted(unknown_grid)}")
        base = dict(base)
        algorithms = [str(a).lower() for a in grid.get("algorithm", [base.get("algorithm", "dgd")])]
        deltas = [_number(d, "grid delta") for d in grid.get("delta", [base.get("delta", 0.0)])]
        seeds = grid.get("seed", [base.get("seed", 0)])
        for seed in seeds:
            if not _is_integer(seed):
                raise ConfigError(f"grid seed must be a JSON integer, got {seed!r}")
        return cls(base=base, algorithms=algorithms, deltas=deltas, seeds=seeds)

    @classmethod
    def from_file(cls, path) -> "SweepConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read sweep config {path}: {exc}") from exc
        return cls.from_dict(doc)

    def base_config(self) -> RunConfig:
        """The base, validated as a run config. Every cell shares its
        topology, problem, schedule and round counts, so a fault there is a
        ``ConfigError`` of the whole sweep, not a failure of each cell."""
        return RunConfig.from_dict({**self.base, "algorithm": "dgd", "delta": 0.0, "seed": 0})

    def cells(self) -> list:
        """Grid cell documents in deterministic order, seed-paired across
        deltas. Validation happens per cell when it runs, so one bad cell does
        not abort the sweep."""
        out = []
        for algorithm in self.algorithms:
            for delta in self.deltas:
                for seed in self.seeds:
                    doc = dict(self.base)
                    doc["algorithm"] = algorithm
                    doc["delta"] = delta
                    doc["seed"] = seed
                    out.append(doc)
        return out
