"""Command-line entry point: run experiments, sweeps, audits, bound reports and
privacy checks from JSON configs, emitting deterministic CSV/JSON artifacts.

Exit codes: 0 success, 1 check or runtime failure, 2 usage, config or trace
file error, or a run whose states or bound terms are not finite.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import sys
import uuid

import numpy as np

from . import __version__
from .analysis import (audit_invariants, bound_params, check_consensus,
                       check_lemma1, check_lemma2, check_theorem3,
                       compute_metrics, effective_bounds, render_report_table)
from .configs import ConfigError, RunConfig, SweepConfig, execute
from .engine import (ExecutionTrace, NonFiniteError, ScheduleError, TraceError, descended_bounds,
                     draw_fs_noise, perturbation_bound)
from .graphs import DisconnectedError
from .objectives import solve_centralized
from .privacy import (NonFsTraceError, NotACutError, TargetSetError,
                      complete_alternative_objectives, construct_alternative,
                      extract_view, necessity_demo, verify_indistinguishable)

METRIC_COLUMNS = ("k", "algorithm", "delta", "seed", "suboptimality",
                  "max_disagreement", "eta2", "F_k", "H_k")

_AUDIT_CHECKS = ("invariants", "lemma1", "lemma2", "consensus", "theorem3")


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _provenance(config_doc: dict, seed) -> dict:
    return {"artifact_version": __version__, "seed": seed, "config": config_doc}


def _atomic_write(path: str, payload: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".tmp-privopt-{uuid.uuid4().hex}")
    # mode 0o666 less the umask, as open() gives; mkstemp would make it 0600
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_metrics_csv(path: str, tables: list, provenance: dict) -> None:
    """One row per entry of each table's formatted ``METRIC_COLUMNS``."""
    lines = [f"# timestamp={_timestamp()}",
             "# provenance=" + json.dumps(provenance, sort_keys=True),
             ",".join(METRIC_COLUMNS)]
    for table in tables:
        lines.extend(map(",".join, zip(*(table[c] for c in METRIC_COLUMNS))))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_report_json(path: str | None, report: dict, provenance: dict) -> None:
    doc = {"timestamp": _timestamp(), "provenance": provenance, "report": report}
    payload = json.dumps(doc, sort_keys=True, indent=2)
    if path is None:
        print(payload)
    else:
        _atomic_write(path, payload + "\n")


def _metrics_table(trace: ExecutionTrace, optimum, delta=None, seed=None) -> dict:
    """A trace's metrics table: each of ``METRIC_COLUMNS`` as a list of
    cells, formatted column by column as ``_fmt`` formats one cell."""
    x_star, f_star = optimum
    metrics = compute_metrics(trace, reference_point=x_star, optimum_value=f_star)
    if delta is None:
        delta = trace.delta if trace.algorithm != "fs" else trace.delta_coeff
    if seed is None:
        seed = trace.seed if trace.seed is not None else ""
    rows = metrics.round_index.size

    def floats(column):
        return list(map(repr, column.tolist()))

    return {"k": list(map(str, metrics.round_index.tolist())),
            "algorithm": [_fmt(trace.algorithm)] * rows,
            "delta": [_fmt(delta)] * rows, "seed": [_fmt(seed)] * rows,
            "suboptimality": floats(metrics.suboptimality),
            "max_disagreement": floats(metrics.max_disagreement),
            "eta2": floats(metrics.eta2), "F_k": floats(metrics.growth_coeff),
            "H_k": floats(metrics.offset_term)}


def _cmd_run(args) -> int:
    config = RunConfig.from_file(args.config)
    os.makedirs(args.out_dir, exist_ok=True)
    trace = execute(config)
    optimum = solve_centralized(trace.problem)
    table = _metrics_table(trace, optimum)
    provenance = _provenance(config.canonical_dict(), config.seed)
    base = os.path.join(args.out_dir, config.output_basename)
    _atomic_write(base + "_trace.json", json.dumps(trace.to_json_dict()) + "\n")
    write_metrics_csv(base + "_metrics.csv", [table], provenance)
    print(f"wrote {base}_trace.json and {base}_metrics.csv "
          f"(final suboptimality {float(table['suboptimality'][-1]):.3e})")
    return 0


def _cmd_sweep(args) -> int:
    sweep = SweepConfig.from_file(args.config)
    base = sweep.base_config()
    cells = sweep.cells()
    os.makedirs(args.out_dir, exist_ok=True)
    tables: list = []
    failures: list = []
    optimum = None
    if cells:
        optimum = solve_centralized(base.build_problem())
    for doc in cells:
        try:  # a failed cell is recorded and the sweep goes on
            config = RunConfig.from_dict(doc)
            tables.append(_metrics_table(execute(config), optimum, delta=config.delta,
                                         seed=config.seed))
        except Exception as exc:
            failures.append({"algorithm": doc.get("algorithm"), "delta": doc.get("delta"),
                             "seed": doc.get("seed"), "error": f"{type(exc).__name__}: {exc}"})
    provenance = _provenance({"base": sweep.base,
                              "grid": {"algorithm": sweep.algorithms,
                                       "delta": sweep.deltas, "seed": sweep.seeds}},
                             seed=sweep.seeds)
    write_metrics_csv(os.path.join(args.out_dir, "sweep_metrics.csv"), tables, provenance)
    write_report_json(os.path.join(args.out_dir, "sweep_report.json"),
                      {"cells": len(cells), "failed": failures}, provenance)
    print(f"swept {len(cells)} cells, {len(failures)} failed")
    return 0 if not failures else 1


def _cmd_audit(args) -> int:
    checks = list(dict.fromkeys(c.strip() for c in args.checks.split(",") if c.strip()))
    unknown = [c for c in checks if c not in _AUDIT_CHECKS]
    if unknown or not checks:
        named = f"unknown checks {unknown}" if unknown else "no check"
        print(f"--checks names {named}; available: {list(_AUDIT_CHECKS)}", file=sys.stderr)
        return 2
    trace = ExecutionTrace.load(args.trace)
    # the centralized optimum, only for the checks that read it
    optimum = solve_centralized(trace.problem) if {"lemma2", "theorem3"} & set(checks) else None
    bounds = effective_bounds(trace) if {"lemma1", "lemma2"} & set(checks) else None
    reports = []
    failed = False
    for check in checks:
        if check == "invariants":
            rep = audit_invariants(trace)
        elif check == "lemma1":
            rep = check_lemma1(trace, bounds)
        elif check == "lemma2":
            rep = check_lemma2(trace, optimum[0], bounds)
        elif check == "consensus":
            rep = check_consensus(trace, tail_fraction=args.tail_fraction,
                                  threshold=args.consensus_threshold)
        elif check == "theorem3":
            try:
                rep = check_theorem3([trace], optimum_value=optimum[1])
            except (ScheduleError, ValueError) as exc:
                # wrong schedule or a down-sampled trace: a usage problem
                print(f"theorem3: {exc}", file=sys.stderr)
                return 2
        reports.append(rep)
        failed |= not rep.passed
    print(render_report_table(reports))
    provenance = _provenance({"trace": args.trace, "checks": checks}, trace.seed)
    if args.out is not None:
        write_report_json(args.out, {rep.name: rep.to_dict() for rep in reports}, provenance)
    return 1 if failed else 0


def _parse_agents(option: str, text: str, role: str, n: int) -> list:
    """The agents of a comma-separated ``option`` value, each an index below
    ``n``; ValueError naming the option and the value otherwise."""
    agents = []
    for token in filter(None, map(str.strip, text.split(","))):
        try:
            agent = int(token)
        except ValueError:
            raise ValueError(f"{option} {text!r}: {token!r} is not an agent index") from None
        if not 0 <= agent < n:
            raise ValueError(f"{role} {agent} out of range")
        agents.append(agent)
    return agents


def _cmd_privacy(args) -> int:
    trace = ExecutionTrace.load(args.trace)
    try:
        coalition = _parse_agents("--coalition", args.coalition, "coalition member", trace.n)
        target = _parse_agents("--target", args.target, "target agent", trace.n)
        if len(set(coalition)) >= trace.n:
            print("coalition covers every agent; the target set is empty", file=sys.stderr)
            return 2
        view = extract_view(trace, coalition)
        with open(args.alt_objectives) as fh:
            alt_doc = json.load(fh)
        alternatives = {int(k): np.asarray(v, dtype=float) for k, v in alt_doc.items()}
        objectives = complete_alternative_objectives(trace.problem, coalition, target,
                                                     alternatives, d_max=int(view.recipe["d_max"]))
    except (NonFsTraceError, TargetSetError, ConfigError, KeyError, OSError,
            json.JSONDecodeError, ValueError) as exc:
        print(f"privacy check not applicable: {exc}", file=sys.stderr)
        return 2
    provenance = _provenance({"trace": args.trace, "coalition": coalition,
                              "target": target}, trace.seed)
    try:
        instance = construct_alternative(view, objectives, extras_seed=args.extras_seed)
    except DisconnectedError as exc:
        report = {"passed": False, "error": f"connectivity precondition violated: {exc}"}
        try:
            truth = {j: obj.poly.coeffs for j, obj in enumerate(trace.problem.objectives)}
            report["necessity_demo"] = necessity_demo(view, truth).to_dict()
        except NotACutError:
            pass
        write_report_json(args.out, report, provenance)
        return 1
    verdict = verify_indistinguishable(view, instance)
    report = verdict.to_dict()
    report["solve_residual"] = instance.solve_residual
    write_report_json(args.out, report, provenance)
    return 0 if verdict.passed else 1


def _cmd_bounds(args) -> int:
    """The bound constants that the lemma audits of the configured run's
    trace check against: the (L, N) of the objectives the agents descend on
    (for fs, of the obfuscated objectives: the config's noise is drawn, not
    run, and the true objectives' pair goes beside them as
    ``true_grad_bound`` and ``true_grad_smoothness``) and the run's
    ``perturbation_bound``."""
    config = RunConfig.from_file(args.config)
    topology = config.build_topology()
    problem = config.build_problem()
    weights = config.build_weights(topology)
    fs = config.algorithm == "fs"
    noise = draw_fs_noise(config) if fs else None
    params = bound_params(topology, weights,
                          descended_bounds(config.algorithm, problem, noise, topology),
                          delta=perturbation_bound(config.algorithm, config.delta))
    report = params.to_dict()
    if fs:
        report["true_grad_bound"], report["true_grad_smoothness"] = problem.constants()
    provenance = _provenance(config.canonical_dict(), config.seed)
    write_report_json(args.out, report, provenance)
    return 0


def _bounded(kind, accept, condition: str):
    """An argparse type: ``kind(text)``, refused unless ``accept`` holds.
    Text that ``kind`` cannot read gets argparse's own message, as with
    ``type=kind``."""
    def parse(text):
        value = kind(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {condition}, got {text!r}")
        return value
    parse.__name__ = kind.__name__
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: parsing leaves it unchanged, so ``main`` may run any number of
    commands in one process."""
    parser = argparse.ArgumentParser(prog="privopt",
                                     description="Distributed optimization simulator with "
                                                 "structured randomization and privacy checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out-dir", default=".")

    p_sweep = sub.add_parser("sweep", help="execute a parameter grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out-dir", default=".")

    p_audit = sub.add_parser("audit", help="run checks against a trace file")
    p_audit.add_argument("trace")
    p_audit.add_argument("--checks", default="invariants,lemma1,lemma2,consensus")
    p_audit.add_argument("--out", default=None)
    p_audit.add_argument("--tail-fraction", default=0.1,
                         type=_bounded(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)"))
    # perturbed runs have a disagreement floor of roughly step * noise bound,
    # so the default accommodates the quartic family at 1e4 rounds; tighten it
    # for baseline runs
    p_audit.add_argument("--consensus-threshold", default=0.05,
                         type=_bounded(float, lambda v: 0.0 < v < math.inf,
                                       "a finite positive number"))

    p_priv = sub.add_parser("privacy", help="constructive indistinguishability check")
    p_priv.add_argument("trace")
    p_priv.add_argument("--coalition", required=True)
    p_priv.add_argument("--target", required=True)
    p_priv.add_argument("--alt-objectives", required=True)
    p_priv.add_argument("--out", default=None)
    p_priv.add_argument("--extras-seed", default=0,
                        type=_bounded(int, lambda v: v >= 0, "a non-negative integer"))

    p_bounds = sub.add_parser("bounds", help="print bound constants for a config")
    p_bounds.add_argument("--config", required=True)
    p_bounds.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "audit": _cmd_audit,
                "privacy": _cmd_privacy, "bounds": _cmd_bounds}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ScheduleError as exc:
        print(f"schedule error: {exc}", file=sys.stderr)
        return 2
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteError as exc:
        print(f"non-finite value: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
