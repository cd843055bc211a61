"""One workload pass in a fresh, single-threaded process.

    python3 perfbench/child.py {plain|traced|setup|privacy} PLAN.json RESULT.json

Set-up (``import privopt`` plus loading and building every config of the plan)
is timed first. A ``setup`` pass stops there; ``plain`` and ``traced`` passes
then drive each step of the plan through ``privopt.cli.main`` in this process
and check its output. A ``traced`` pass installs the span wrappers after the
import and reports per-layer metrics. A ``privacy`` pass skips the config
builds and repeats only the plan's privacy steps, against the traces an earlier
pass wrote. The result is written as JSON for ``run.py``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import resource
import sys
import time


class Checks:
    """Every command and every output check is one operation; a failed one is
    recorded and the pass goes on."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def set_up(configs_module, paths: list) -> None:
    for path in paths:
        config = configs_module.RunConfig.from_file(path)
        topology = config.build_topology()
        problem = config.build_problem()
        config.build_weights(topology)
        problem.constants()


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _final_suboptimality(csv_path: str) -> float:
    with open(csv_path) as fh:
        rows = [line for line in fh if not line.startswith("#")]
    last = list(csv.DictReader(rows))[-1]
    return float(last["suboptimality"])


class Pass:
    def __init__(self, cli, engine, tracer):
        self.cli = cli
        self.engine = engine
        self.tracer = tracer
        self.checks = Checks()
        self.seconds = {"run": [], "audit": [], "trial": [], "cut": []}
        self.agent_rounds = 0
        self.trace_bytes = 0
        self.digests: dict[str, str] = {}

    @contextlib.contextmanager
    def _untraced(self):
        """Checks made by the benchmark are not program work."""
        if self.tracer is not None:
            self.tracer.active = False
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.active = True

    def command(self, argv: list) -> tuple[int, float]:
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = self.cli.main(argv)
        return code, time.perf_counter() - start

    def step(self, step: dict) -> None:
        kind = step["kind"]
        if kind == "run":
            code, seconds = self.command(["run", "--config", step["config"],
                                          "--out-dir", step["out_dir"]])
            self.seconds["run"].append(seconds)
            with self._untraced():
                self.check_run(step, code)
        elif kind == "audit":
            code, seconds = self.command(["audit", step["trace"], "--checks", step["checks"],
                                          "--out", step["out"]])
            self.seconds["audit"].append(seconds)
            with self._untraced():
                self.check_audit(step, code)
        else:
            code, seconds = self.command(["privacy", step["trace"],
                                          "--coalition", step["coalition"],
                                          "--target", step["target"],
                                          "--alt-objectives", step["alt"],
                                          "--extras-seed", str(step["extras_seed"]),
                                          "--out", step["out"]])
            self.seconds["cut" if step["cut"] else "trial"].append(seconds)
            with self._untraced():
                self.check_privacy(step, code)

    def check_run(self, step: dict, code: int) -> None:
        name = os.path.basename(step["trace"])
        if not self.checks.expect(code == 0, f"run {name} exited {code}"):
            return
        self.agent_rounds += step["n"] * step["rounds"]
        self.trace_bytes += os.path.getsize(step["trace"])
        doc = _load_json(step["trace"])
        digest = self.engine.ExecutionTrace.from_json_dict(doc).state_digest()
        self.digests[name] = digest
        self.checks.expect(digest == doc.get("digest"),
                           f"{name} reloads to digest {digest[:12]}, stored {str(doc.get('digest'))[:12]}")
        if step["subopt_bound"] is not None:
            value = _final_suboptimality(step["metrics_csv"])
            self.checks.expect(value < step["subopt_bound"],
                               f"{name} final suboptimality {value:.3e} >= {step['subopt_bound']:g}")

    def check_audit(self, step: dict, code: int) -> None:
        name = os.path.basename(step["trace"])
        self.checks.expect(code == 0, f"audit {name} exited {code}")
        report = _load_json(step["out"])["report"] if os.path.exists(step["out"]) else {}
        for check in step["checks"].split(","):
            row = report.get(check, {})
            self.checks.expect(bool(row.get("passed")), f"audit {name}: {check} is not PASS")

    def check_privacy(self, step: dict, code: int) -> None:
        label = f"privacy {os.path.basename(step['trace'])} coalition {step['coalition']}"
        report = _load_json(step["out"])["report"] if os.path.exists(step["out"]) else {}
        if step["cut"]:
            self.checks.expect(code == 1, f"{label} (a cut) exited {code}, expected 1")
            self.checks.expect(bool(report.get("necessity_demo", {}).get("passed")),
                               f"{label}: necessity demo did not pass")
            return
        self.checks.expect(code == 0, f"{label} exited {code}")
        self.checks.expect(report.get("passed") is True and report.get("max_residual") == 0
                           and report.get("digest_ok") is True,
                           f"{label}: report passed={report.get('passed')} "
                           f"max_residual={report.get('max_residual')} "
                           f"digest_ok={report.get('digest_ok')}")


def main(argv: list) -> int:
    mode, plan_path, result_path = argv
    plan = _load_json(plan_path)

    began = time.perf_counter()
    import privopt  # noqa: F401  (the import is part of set-up)
    from privopt import cli, configs, engine
    import_s = time.perf_counter() - began

    tracer = None
    wiring: list[str] = []
    if mode == "traced":
        from spans import Tracer, layer_metrics, wiring_problems
        tracer = Tracer()
        tracer.install()
        wiring += wiring_problems(tracer, installed=True)

    import numpy
    result = {"import_s": import_s,
              "versions": {"privopt": privopt.__version__, "numpy": numpy.__version__}}
    steps = plan["steps"]
    if mode == "privacy":
        steps = [step for step in steps if step["kind"] == "privacy"]
    else:
        start = time.perf_counter()
        set_up(configs, plan["configs"])
        result["setup_s"] = import_s + time.perf_counter() - start
    if mode != "setup":
        work = Pass(cli, engine, tracer)
        try:
            for step in steps:
                work.step(step)
            # set-up and steps, without writing and summarising the spans
            result["pass_s"] = time.perf_counter() - began
        finally:
            if tracer is not None:
                tracer.restore()
                wiring += wiring_problems(tracer, installed=False)
        for problem in wiring:
            work.checks.expect(False, f"span wiring: {problem}")
        result.update({
            "seconds": work.seconds, "agent_rounds": work.agent_rounds,
            "trace_bytes": work.trace_bytes, "digests": work.digests,
            "attempted": work.checks.attempted, "failures": work.checks.failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        if tracer is not None:
            result["layer"] = layer_metrics(tracer)
            result["spans"] = len(tracer.spans)
            tracer.write(result_path[:-len(".json")] + ".spans.json")
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
