"""privopt benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The workload's inputs are generated
from the seed, then whole workload passes run one after another, each in a
fresh single-threaded process (``child.py``), until the next pass would end
after S seconds. ``--trace 0`` prints the end-to-end metrics as medians over
the passes; ``--trace 1`` runs each pass twice, plain and with span wrappers,
and prints the per-layer metrics. The last line of standard output is the JSON
result; the line before it is the provenance. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS, make_plan

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = ROOT / ".perfbench"
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HARD_LIMIT_S = 170.0   # every run exits well inside the 180 s a run may take
# Speed differs by several per cent from one process to the next, so set-up
# time and trial latency are sampled in at least this many processes per run;
# set-up-only and privacy-only passes fill the gap when fewer full passes fit.
MIN_PROCESSES = 3

# Per-layer metrics that must be non-zero on a workload because it is where
# that layer does most of its work (the self-test of a traced run).
EXPECT_NONZERO = {
    "paper_cycle5": (
        "noise.draw_s", "noise.draw_calls", "noise.generators",
        "objectives.gradient_s", "objectives.gradient_calls", "polynomials.gradient_calls",
        "objectives.project_s", "engine.rounds", "engine.self_s",
        "engine.us_per_round.dgd", "engine.us_per_round.rss_nb",
        "engine.us_per_round.rss_lb", "engine.us_per_round.fs", "engine.recorded_mb",
        "engine.trace_encode_s", "engine.trace_load_s", "analysis.metrics_s",
        "analysis.invariants_s", "analysis.lemma1_s", "analysis.lemma2_s",
        "analysis.consensus_s", "cli.self_s"),
    "sparse_cycle200": (
        "configs.build_s", "graphs.neighbors_calls", "graphs.neighbors_s",
        "noise.draw_s", "noise.draw_calls", "noise.generators", "objectives.project_s",
        "objectives.constants_s", "objectives.constants_calls",
        "objectives.constants_unique_ratio", "objectives.oracle_s", "engine.rounds",
        "engine.self_s", "engine.us_per_round.dgd", "engine.us_per_round.rss_nb",
        "engine.us_per_round.rss_lb", "engine.recorded_mb", "analysis.invariants_s",
        "analysis.lemma1_s", "analysis.lemma2_s"),
    "fs_privacy": (
        "objectives.gradient_s", "objectives.gradient_calls", "polynomials.gradient_calls",
        "objectives.project_s", "privacy.view_s", "privacy.construct_s",
        "privacy.verify_self_s", "privacy.necessity_s", "privacy.exact_ops",
        "privacy.replay_s", "privacy.replays", "privacy.replay_unique_ratio"),
}


def _git_commit() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a git
    checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "privopt").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Runner:
    def __init__(self, seconds: float, plan_path: Path, stem: str):
        self.start = time.perf_counter()
        self.seconds = seconds
        self.plan_path = plan_path
        self.stem = stem
        self.launched = 0
        self.errors: list[str] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def child(self, mode: str) -> tuple[dict | None, float]:
        """One pass in a fresh process; returns its result and wall time."""
        self.launched += 1
        result_path = OUT / f"{self.stem}-{mode}{self.launched}.json"
        timeout = max(1.0, HARD_LIMIT_S - self.elapsed())
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), mode,
                                   str(self.plan_path), str(result_path)],
                                  cwd=ROOT, env=_child_env(), capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode} pass exceeded {timeout:.0f} s")
            return None, time.perf_counter() - start
        wall = time.perf_counter() - start
        if proc.returncode != 0 or not result_path.exists():
            tail = proc.stderr.strip().splitlines()[-3:]
            self.errors.append(f"{mode} pass exited {proc.returncode}: {' | '.join(tail)}")
            return None, wall
        with open(result_path) as fh:
            return json.load(fh), wall

    def fits(self, longest: float, seconds: float | None = None) -> bool:
        end = self.elapsed() + longest
        return end <= (seconds or self.seconds) and end <= HARD_LIMIT_S


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(passes: list, setups: list, extra_trials: list) -> dict:
    run_s = [sum(p["seconds"]["run"]) for p, _ in passes]
    trials = [t for p, _ in passes for t in p["seconds"]["trial"]] + extra_trials
    deciles = statistics.quantiles(trials, n=10, method="inclusive") if len(trials) > 1 else [0.0] * 9
    return {
        "setup_s": _median(setups),
        "run_s": _median(run_s),
        "audit_s": _median([sum(p["seconds"]["audit"]) for p, _ in passes]),
        "agent_rounds_per_s": _median([p["agent_rounds"] / s
                                       for (p, _), s in zip(passes, run_s) if s > 0]),
        "trial_ms_p50": 1e3 * _median(trials),
        "trial_ms_p90": 1e3 * deciles[8],
        "wall_s": _median([wall for _, wall in passes]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p, _ in passes]),
        "trace_mb": _median([p["trace_bytes"] for p, _ in passes]) / 2 ** 20,
    }


COUNT_METRICS = ("noise.generators", "noise.draw_calls", "graphs.neighbors_calls",
                 "objectives.gradient_calls", "polynomials.gradient_calls",
                 "objectives.constants_calls", "privacy.replays", "privacy.exact_ops",
                 "engine.rounds", "engine.recorded_mb", "objectives.constants_unique_ratio",
                 "privacy.replay_unique_ratio")


def per_layer(pairs: list, workload: str, expect) -> dict:
    """Times are medians over the traced passes; counts and ratios come from
    the first and must repeat exactly in the others."""
    layers = [traced["layer"] for (_, _), (traced, _) in pairs]
    out = {name: _median([layer[name] for layer in layers]) for name in layers[0]}
    for name in COUNT_METRICS:
        out[name] = layers[0][name]
        for other in layers[1:]:
            expect(other[name] == out[name], f"count {name} differs between traced passes: "
                                             f"{out[name]} vs {other[name]}")
    for (plain, _), (traced, _) in pairs:
        expect(plain["digests"] == traced["digests"],
               "traced pass wrote different trace digests than the plain pass")
    for name in EXPECT_NONZERO[workload]:
        expect(out[name] > 0, f"self-test: {name} is 0 on {workload}")
    out["trace.overhead_s"] = _median([traced["pass_s"] - plain["pass_s"]
                                       for (plain, _), (traced, _) in pairs])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/privopt/cli.py", "configs/poly_cycle_run.json",
                           "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"not a privopt checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{stem}-{os.getpid()}"
    work.mkdir()
    try:
        plan = make_plan(args.workload, args.seed, str(work), str(ROOT))
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        # byte-compile once, so no pass pays for it; users do not either
        compileall.compile_dir(str(ROOT / "src" / "privopt"), quiet=1)
        runner = Runner(args.seconds, plan_path, stem)
        passes, pairs, setups, privacy = [], [], [], []
        longest = 0.0
        # a workload whose pass takes at most half the run length gets
        # MIN_PROCESSES full passes even if the last one overruns
        while (not passes and not pairs or runner.fits(longest)
               or not args.trace and len(passes) < MIN_PROCESSES and longest <= args.seconds / 2
               and runner.fits(longest, args.seconds * 1.5)):
            began = runner.elapsed()
            plain = runner.child("plain")
            if plain[0] is None:
                break
            if args.trace:
                traced = runner.child("traced")
                if traced[0] is None:
                    break
                pairs.append((plain, traced))
            else:
                passes.append(plain)
                setups.append(plain[0]["setup_s"])
            longest = max(longest, runner.elapsed() - began)
        while not args.trace and passes and len(setups) < MIN_PROCESSES:
            setup, _ = runner.child("setup")
            if setup is None:
                break
            setups.append(setup["setup_s"])
        while not args.trace and passes and len(passes) + len(privacy) < MIN_PROCESSES:
            extra, _ = runner.child("privacy")
            if extra is None:
                break
            privacy.append(extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = list(runner.errors)
    attempted = runner.launched

    def expect(ok: bool, what: str) -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(what)

    done = [p for p, _ in passes] + [p for pair in pairs for p, _ in pair] + privacy
    for result in done:
        attempted += result["attempted"]
        failures += result["failures"]
    if args.trace:
        metrics = per_layer(pairs, args.workload, expect) if pairs else {}
    else:
        extra_trials = [t for p in privacy for t in p["seconds"]["trial"]]
        metrics = end_to_end(passes, setups, extra_trials) if passes else {}
    if metrics and set(metrics) != set(units):
        raise SystemExit(f"metric names differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")

    versions = done[0]["versions"] if done else {}
    provenance = dict(versions, python=platform.python_version(),
                      workload=args.workload, seed=args.seed,
                      git_commit=_git_commit(), source_sha256=_source_digest(),
                      nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
                      thread_pins=THREAD_PINS, seconds=args.seconds, trace=args.trace,
                      passes=len(passes) or len(pairs), setups=len(setups),
                      privacy_passes=len(privacy),
                      trial_samples=sum(len(p["seconds"]["trial"]) for p in done if not args.trace),
                      sizes=plan["sizes"])
    result = {"correct": bool(metrics) and not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in sorted(metrics.items())}}
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({"provenance": provenance, "failures": failures, "result": result,
                   "passes": done}, fh, indent=1)
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
