"""Run and sweep configuration handling: strict validation, builders, execution."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .engine import (ALGORITHMS, ExecutionTrace, StepSchedule, run_dgd,
                     run_fs, run_rss_lb, run_rss_nb)
from .graphs import FusionMatrix, Topology, metropolis_weights
from .objectives import Box, GlobalProblem, objective_from_spec


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


_RUN_KEYS = {
    "algorithm", "topology", "objectives", "feasible", "schedule",
    "delta", "delta_coeff", "d_max", "max_iter", "seed", "record_every",
    "init", "metropolis_self_inclusive", "output_basename",
}

_SWEEP_KEYS = {"base", "grid"}
_GRID_KEYS = {"algorithm", "delta", "seed"}


@dataclass
class RunConfig:
    """A validated run configuration. The topology and the problem are built
    once, by ``validate``, and every later ``build_topology`` or
    ``build_problem`` returns the same objects; the spec fields they come
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
    init: list | None = None
    metropolis_self_inclusive: bool = False
    output_basename: str = "run"
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("run config must be a JSON object")
        unknown = set(doc) - _RUN_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("algorithm", "topology", "objectives", "feasible", "schedule", "max_iter"):
            if key not in doc:
                raise ConfigError(f"missing required config key: {key}")
        algorithm = str(doc["algorithm"]).lower()
        if algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
        cfg = cls(
            algorithm=algorithm,
            topology=doc["topology"],
            objectives=doc["objectives"],
            feasible=doc["feasible"],
            schedule=doc["schedule"],
            max_iter=doc["max_iter"],
            delta=_number(doc.get("delta", 0.0), "delta"),
            delta_coeff=_number(doc.get("delta_coeff", 0.0), "delta_coeff"),
            d_max=doc.get("d_max", 8),
            seed=doc.get("seed", 0),
            record_every=doc.get("record_every", 1),
            init=doc.get("init"),
            metropolis_self_inclusive=doc.get("metropolis_self_inclusive", False),
            output_basename=str(doc.get("output_basename", "run")),
        )
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
        self.build_init(self.build_problem())

    def build_topology(self) -> Topology:
        if "topology" not in self._built:
            self._built["topology"] = Topology.from_spec(self.topology)
        return self._built["topology"]

    def build_problem(self) -> GlobalProblem:
        if "problem" not in self._built:
            problem = GlobalProblem(
                objectives=[objective_from_spec(s) for s in self.objectives],
                feasible=Box.from_spec(self.feasible),
            )
            problem.check_critical_points()
            self._built["problem"] = problem
        return self._built["problem"]

    def build_schedule(self) -> StepSchedule:
        return StepSchedule.from_spec(self.schedule)

    def build_weights(self, topology: Topology) -> FusionMatrix:
        return metropolis_weights(topology, self_inclusive_degree=self.metropolis_self_inclusive)

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
        doc = {
            "algorithm": self.algorithm,
            "topology": self.topology,
            "objectives": self.objectives,
            "feasible": self.feasible,
            "schedule": self.schedule,
            "max_iter": self.max_iter,
            "delta": self.delta,
            "delta_coeff": self.delta_coeff,
            "d_max": self.d_max,
            "seed": self.seed,
            "record_every": self.record_every,
            "metropolis_self_inclusive": self.metropolis_self_inclusive,
        }
        if self.init is not None:
            doc["init"] = self.init
        return doc


def execute(config: RunConfig) -> ExecutionTrace:
    """Run the configured algorithm and return its trace."""
    topology = config.build_topology()
    problem = config.build_problem()
    schedule = config.build_schedule()
    weights = config.build_weights(topology)
    init = config.build_init(problem)
    common = dict(init=init, weights=weights, record_every=config.record_every)
    if config.algorithm == "dgd":
        return run_dgd(problem, topology, schedule, config.max_iter, **common)
    if config.algorithm == "rss_nb":
        return run_rss_nb(problem, topology, schedule, config.delta, config.max_iter,
                          seed=config.seed, **common)
    if config.algorithm == "rss_lb":
        return run_rss_lb(problem, topology, schedule, config.delta, config.max_iter,
                          seed=config.seed, **common)
    if config.algorithm == "fs":
        return run_fs(problem, topology, schedule, config.delta_coeff, config.d_max,
                      config.max_iter, seed=config.seed, **common)
    raise ConfigError(f"unknown algorithm {config.algorithm!r}")


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
