import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import privopt as po
import privopt.cli as cli_module
from privopt.cli import build_parser, main
from privopt.engine import ExecutionTrace, encode_array

from conftest import INTERIOR_INIT, edit_array, quartic_config, run, save_trace, with_entry


def write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def strip_timestamp(path):
    with open(path) as fh:
        return [line for line in fh if not line.startswith("# timestamp=")
                and '"timestamp"' not in line]


@pytest.fixture
def run_cfg(tmp_path):
    return write(tmp_path / "run.json", quartic_config(algorithm="rss_nb", delta=1.0, seed=3))


class TestRun:
    def test_produces_trace_and_metrics(self, tmp_path, run_cfg):
        out = tmp_path / "out"
        assert main(["run", "--config", run_cfg, "--out-dir", str(out)]) == 0
        assert (out / "run_trace.json").exists()
        csv_lines = (out / "run_metrics.csv").read_text().splitlines()
        assert csv_lines[0].startswith("# timestamp=")
        assert csv_lines[1].startswith("# provenance=")
        assert csv_lines[2] == "k,algorithm,delta,seed,suboptimality,max_disagreement,eta2,F_k,H_k"
        assert len(csv_lines) == 3 + 401  # rounds plus post-run row

    def test_final_suboptimality_small(self, tmp_path, run_cfg):
        out = tmp_path / "out"
        main(["run", "--config", run_cfg, "--out-dir", str(out)])
        last = (out / "run_metrics.csv").read_text().splitlines()[-1].split(",")
        assert float(last[4]) < 1e-3

    def test_zero_delta_digest_matches_dgd(self, tmp_path):
        cfg_nb = write(tmp_path / "nb.json",
                       quartic_config(algorithm="rss_nb", delta=0.0, seed=5,
                                      output_basename="nb"))
        cfg_dgd = write(tmp_path / "dgd.json",
                        quartic_config(algorithm="dgd", output_basename="dgd"))
        main(["run", "--config", cfg_nb, "--out-dir", str(tmp_path / "o")])
        main(["run", "--config", cfg_dgd, "--out-dir", str(tmp_path / "o")])
        nb = json.load(open(tmp_path / "o" / "nb_trace.json"))
        dgd = json.load(open(tmp_path / "o" / "dgd_trace.json"))
        assert nb["digest"] == dgd["digest"]

    def test_malformed_config_exits_2_without_outputs(self, tmp_path):
        bad = write(tmp_path / "bad.json", {"algorithm": "dgd", "bogus_key": 1})
        out = tmp_path / "out"
        assert main(["run", "--config", bad, "--out-dir", str(out)]) == 2
        assert not out.exists() or not list(out.iterdir())

    def test_unknown_algorithm_exits_2(self, tmp_path):
        bad = write(tmp_path / "bad.json", quartic_config(algorithm="sgd"))
        assert main(["run", "--config", bad, "--out-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("overrides", [
        {"algorithm": "rss_nb", "delta": float("inf")},
        {"algorithm": "rss_lb", "delta": float("nan")},
        {"algorithm": "fs", "delta_coeff": float("inf")},
    ])
    def test_non_finite_noise_bound_exits_2(self, tmp_path, capsys, overrides):
        bad = write(tmp_path / "bad.json", quartic_config(**overrides))
        out = tmp_path / "out"
        assert main(["run", "--config", bad, "--out-dir", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("delta", "abc", "delta must be a JSON number, got 'abc'"),
        ("delta", None, "delta must be a JSON number, got None"),
        ("delta", [1], "delta must be a JSON number, got [1]"),
        ("delta", True, "delta must be a JSON number, got True"),
        ("delta", 10 ** 400, f"delta must be finite, got {10 ** 400!r}"),
        ("delta_coeff", "0.5", "delta_coeff must be a JSON number, got '0.5'"),
        ("max_iter", 2.5, "max_iter must be a positive integer, got 2.5"),
        ("max_iter", True, "max_iter must be a positive integer, got True"),
        ("max_iter", "5", "max_iter must be a positive integer, got '5'"),
        ("seed", 1.0, "seed must be a non-negative integer, got 1.0"),
        ("d_max", None, "d_max must be a non-negative integer, got None"),
        ("record_every", False, "record_every must be a positive integer, got False"),
        ("metropolis_self_inclusive", "false",
         "metropolis_self_inclusive must be a JSON bool, got 'false'"),
        ("metropolis_self_inclusive", 0, "metropolis_self_inclusive must be a JSON bool, got 0"),
    ])
    def test_value_of_another_json_type_exits_2(self, tmp_path, capsys, key, value, message):
        bad = write(tmp_path / "bad.json", quartic_config(algorithm="rss_nb", **{key: value}))
        out = tmp_path / "out"
        assert main(["run", "--config", bad, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_overflowing_bound_terms_exit_2(self, tmp_path, capsys):
        # states stay finite (the box clips them), but (L + delta)^2 overflows
        bad = write(tmp_path / "bad.json",
                    quartic_config(algorithm="rss_nb", delta=1e308, seed=3, max_iter=20))
        out = tmp_path / "out"
        with np.errstate(over="ignore"):
            assert main(["run", "--config", bad, "--out-dir", str(out)]) == 2
        assert "round 1: the iterate-lemma coefficients" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_non_finite_state_exits_2(self, tmp_path, capsys):
        # the derivative coefficients of 1e308 x^4 overflow, and agent 2 starts
        # at 0, where inf * 0 makes its gradient NaN
        doc = quartic_config(max_iter=20)
        doc["objectives"][2] = {"kind": "polynomial", "coeffs": [0, 0, 0, 0, 1e308]}
        bad = write(tmp_path / "bad.json", doc)
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", bad, "--out-dir", str(out)]) == 2
        assert "round 1: the next state of agent 2 is not finite" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("init, message", [
        ([[-1.0], [-0.5], [0.0], [0.5], [31.0]], "init must lie in the feasible box"),
        ([[-1.0, 0.0], [-0.5, 0.0], [0.0, 0.0], [0.5, 0.0], [1.0, 0.0]],
         r"init must have shape \(5, 1\) or \(5,\), got \(5, 2\)"),
        ([-1.0, 0.0, 1.0], r"init must have shape \(5, 1\) or \(5,\), got \(3,\)"),
        ([[-1.0], [-0.5], [float("nan")], [0.5], [1.0]], "init must be finite"),
        ([[-1.0], [-0.5], ["0"], [0.5], [1.0]], "init must hold only numbers"),
        ([[-1.0], [-0.5, 0.0], [0.0], [0.5], [1.0]], "init is not a numeric array"),
    ])
    def test_bad_init_exits_2(self, tmp_path, capsys, init, message):
        bad = write(tmp_path / "bad.json", quartic_config(init=init))
        out = tmp_path / "out"
        assert main(["run", "--config", bad, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and re.search(message, err)
        assert not out.exists()

    def test_flat_init_is_one_column(self, tmp_path):
        flat = write(tmp_path / "flat.json",
                     quartic_config(init=INTERIOR_INIT[:, 0].tolist(), output_basename="flat"))
        column = write(tmp_path / "column.json", quartic_config(output_basename="column"))
        for cfg in (flat, column):
            assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 0
        docs = [json.load(open(tmp_path / "o" / f"{name}_trace.json")) for name in ("flat", "column")]
        assert docs[0]["digest"] == docs[1]["digest"]

    def test_artifacts_follow_umask(self, tmp_path, run_cfg):
        out = tmp_path / "out"
        previous = os.umask(0o027)
        try:
            assert main(["run", "--config", run_cfg, "--out-dir", str(out)]) == 0
        finally:
            os.umask(previous)
        for name in ("run_trace.json", "run_metrics.csv"):
            assert (out / name).stat().st_mode & 0o777 == 0o640

    def test_fs_with_a_non_polynomial_objective_exits_2(self, tmp_path, capsys):
        with open(os.path.join(CONFIGS, "fs_complete_run.json")) as fh:
            doc = json.load(fh)
        doc["objectives"][1] = {"kind": "logistic", "seed": 1, "dim": 1}
        out = tmp_path / "out"
        assert main(["run", "--config", write(tmp_path / "fs.json", doc),
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == ("config error: agent 1: function sharing requires "
                                           "polynomial local objectives, got 'logistic'\n")
        assert not out.exists()

    def test_nonconvex_objective_exits_2_despite_an_opt_out(self, tmp_path, capsys):
        # every local objective must be convex on the box; a spec cannot opt out
        doc = quartic_config()
        doc["objectives"][0] = {"kind": "polynomial", "coeffs": [0, 0, 1, 0, -0.1],
                                "enforce_convex": False}  # 2 - 1.2 x^2 < 0 where |x| > 1.29
        out = tmp_path / "out"
        assert main(["run", "--config", write(tmp_path / "c.json", doc),
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: agent 0: polynomial objective is non-convex on the feasible set "
            "(second derivative reaches -1.078e+03)\n")
        assert not out.exists()

    def test_builds_problem_and_topology_once(self, tmp_path, monkeypatch):
        from privopt import objectives

        built = {"objectives": 0, "topologies": 0}
        objective_from_spec, topology_from_spec = objectives.objective_from_spec, po.Topology.from_spec

        def count_objective(spec):
            built["objectives"] += 1
            return objective_from_spec(spec)

        def count_topology(spec):
            built["topologies"] += 1
            return topology_from_spec(spec)

        monkeypatch.setattr(objectives, "objective_from_spec", count_objective)
        monkeypatch.setattr(po.Topology, "from_spec", staticmethod(count_topology))
        cfg = write(tmp_path / "run5.json", quartic_config(algorithm="rss_nb", delta=1.0, seed=3,
                                                           record_every=5))
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 0
        assert built == {"objectives": 5, "topologies": 1}

    @pytest.mark.parametrize("algorithm", ["dgd", "rss_nb", "rss_lb", "fs"])
    def test_builds_the_weights_once(self, tmp_path, monkeypatch, algorithm):
        built, metropolis_weights = [], po.graphs.metropolis_weights

        def count(*args, **kwargs):
            built.append(args)
            return metropolis_weights(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("privopt") and vars(module).get("metropolis_weights") is \
                    metropolis_weights:
                monkeypatch.setattr(module, "metropolis_weights", count)
        cfg = write(tmp_path / "run.json", quartic_config(algorithm=algorithm, delta=1.0, seed=3,
                                                          max_iter=50))
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 0
        assert len(built) == 1

    @pytest.mark.parametrize("schedule, message", [
        ({"kind": "constant", "a": 3}, "unknown constant schedule keys: ['a']"),
        ({"kind": "inv_sqrt", "a": 5, "zzz": 1}, "unknown inv_sqrt schedule keys: ['a', 'zzz']"),
        ({"kind": "inv_k", "a": True}, "schedule a must be a JSON number, got True"),
        ({"kind": "constant", "value": "0.1"}, "schedule value must be a JSON number, got '0.1'"),
        ({"kind": "inv_k", "a": float("nan")}, "schedule parameter a must be finite and positive"),
        ({"kind": "inv_k", "b": float("inf")}, "schedule parameter b must be finite and non-neg"),
        ({"kind": "constant", "value": float("-inf")}, "schedule parameter a must be finite"),
        ({"kind": "inv_k", "a": 10 ** 400}, "schedule a must be finite, got 1000"),
    ])
    def test_strict_schedule_spec_exits_2(self, tmp_path, capsys, schedule, message):
        bad = write(tmp_path / "bad.json", quartic_config(schedule=schedule))
        out = tmp_path / "out"
        assert main(["run", "--config", bad, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()

    def test_rerun_is_byte_identical_modulo_timestamp(self, tmp_path, run_cfg):
        main(["run", "--config", run_cfg, "--out-dir", str(tmp_path / "a")])
        main(["run", "--config", run_cfg, "--out-dir", str(tmp_path / "b")])
        assert strip_timestamp(tmp_path / "a" / "run_metrics.csv") == \
            strip_timestamp(tmp_path / "b" / "run_metrics.csv")


class TestSweep:
    def sweep_doc(self, **grid):
        base = quartic_config(max_iter=120, record_every=40)
        base.pop("algorithm")
        return {"base": base, "grid": grid}

    def test_jobs_option_is_gone(self, tmp_path, capsys):
        cfg = write(tmp_path / "sweep.json", self.sweep_doc(seed=[1, 2]))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg, "--out-dir", str(tmp_path / "out"), "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_grid_rows_and_pairing(self, tmp_path):
        cfg = write(tmp_path / "sweep.json",
                    self.sweep_doc(algorithm=["dgd", "rss_nb", "rss_lb"],
                                   delta=[1.0, 15.0], seed=[1, 2, 3]))
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out-dir", str(out)]) == 0
        lines = (out / "sweep_metrics.csv").read_text().splitlines()
        rows = [l.split(",") for l in lines[3:]]
        # 3 seeds per (algorithm, delta, k)
        from collections import Counter
        counts = Counter((r[1], r[2], r[0]) for r in rows)
        assert set(counts.values()) == {3}

    def test_empty_grid_writes_header_only(self, tmp_path):
        doc = self.sweep_doc(algorithm=[])
        cfg = write(tmp_path / "sweep.json", doc)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out-dir", str(out)]) == 0
        lines = (out / "sweep_metrics.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_failed_cells_recorded_and_sweep_continues(self, tmp_path):
        # a negative noise bound fails that cell's validation, the rest proceed
        doc = self.sweep_doc(algorithm=["dgd", "rss_nb"], delta=[-1.0, 1.0], seed=[1])
        cfg = write(tmp_path / "sweep.json", doc)
        out = tmp_path / "out"
        code = main(["sweep", "--config", cfg, "--out-dir", str(out)])
        report = json.load(open(out / "sweep_report.json"))["report"]
        lines = (out / "sweep_metrics.csv").read_text().splitlines()
        assert len(lines) > 3  # healthy cells still produced rows
        assert report["failed"] and code == 1
        assert any(f["delta"] == -1.0 for f in report["failed"])

    def test_invalid_base_is_a_config_error(self, tmp_path, capsys):
        # a concave objective fails every cell alike: the sweep stops before any runs
        doc = self.sweep_doc(algorithm=["dgd", "rss_nb"], seed=[1])
        doc["base"].update(topology={"family": "cycle", "n": 3}, init=None,
                           objectives=[{"kind": "polynomial", "coeffs": [0, 0, -1]}] * 3)
        cfg = write(tmp_path / "sweep.json", doc)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("grid, message", [
        ({"seed": ["1"]}, "grid seed must be a JSON integer, got '1'"),
        ({"seed": [1.5]}, "grid seed must be a JSON integer, got 1.5"),
        ({"seed": [True]}, "grid seed must be a JSON integer, got True"),
        ({"delta": ["abc"]}, "grid delta must be a JSON number, got 'abc'"),
        ({"delta": [None]}, "grid delta must be a JSON number, got None"),
        ({"delta": 1.0}, "sweep 'base' must be a JSON object and 'grid' an object of lists"),
    ])
    def test_grid_value_of_another_json_type_exits_2(self, tmp_path, capsys, grid, message):
        cfg = write(tmp_path / "sweep.json", self.sweep_doc(algorithm=["rss_nb"], **grid))
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_base_value_of_another_json_type_exits_2(self, tmp_path, capsys):
        doc = self.sweep_doc(algorithm=["rss_nb"], seed=[1])
        doc["base"]["max_iter"] = 2.5
        cfg = write(tmp_path / "sweep.json", doc)
        assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert (capsys.readouterr().err
                == "config error: max_iter must be a positive integer, got 2.5\n")

    def test_bad_base_init_is_a_config_error(self, tmp_path, capsys):
        doc = self.sweep_doc(algorithm=["dgd", "rss_nb"], seed=[1])
        doc["base"]["init"] = [[-1.0], [-0.5], [0.0], [0.5], [-31.0]]
        cfg = write(tmp_path / "sweep.json", doc)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "config error: init must lie in the feasible box\n"
        assert not out.exists()


@pytest.fixture(scope="module")
def audit_trace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("audit")
    cfg = write(tmp / "run.json", quartic_config(algorithm="rss_nb", delta=1.0, seed=3))
    assert main(["run", "--config", cfg, "--out-dir", str(tmp)]) == 0
    return str(tmp / "run_trace.json")


class TestAudit:
    def test_all_checks_pass(self, tmp_path, run_cfg):
        out = tmp_path / "out"
        main(["run", "--config", run_cfg, "--out-dir", str(out)])
        trace = str(out / "run_trace.json")
        report_path = str(tmp_path / "audit.json")
        code = main(["audit", trace, "--checks", "invariants,lemma1,lemma2,consensus",
                     "--consensus-threshold", "0.02", "--out", report_path])
        assert code == 0
        report = json.load(open(report_path))["report"]
        assert all(v["passed"] for v in report.values())

    def test_unknown_check_exits_2(self, tmp_path, run_cfg):
        out = tmp_path / "out"
        main(["run", "--config", run_cfg, "--out-dir", str(out)])
        assert main(["audit", str(out / "run_trace.json"), "--checks", "lemma9"]) == 2

    @pytest.mark.parametrize("option, value", [
        ("--tail-fraction", "nan"), ("--tail-fraction", "0"), ("--tail-fraction", "-1"),
        ("--tail-fraction", "1"), ("--tail-fraction", "2"), ("--tail-fraction", "inf"),
        ("--consensus-threshold", "nan"), ("--consensus-threshold", "-1"),
        ("--consensus-threshold", "0"), ("--consensus-threshold", "inf"),
    ])
    def test_out_of_range_option_is_a_usage_error(self, audit_trace, capsys, option, value):
        with pytest.raises(SystemExit) as exc:
            main(["audit", audit_trace, "--checks", "consensus", option, value])
        assert exc.value.code == 2
        assert f"argument {option}: must be " in capsys.readouterr().err

    @pytest.mark.parametrize("checks", ["", " , "])
    def test_no_check_exits_2(self, audit_trace, capsys, checks):
        assert main(["audit", audit_trace, "--checks", checks]) == 2
        assert capsys.readouterr().err.startswith("--checks names no check; available: ")

    def test_repeated_check_runs_once(self, audit_trace, monkeypatch, capsys):
        calls = []
        audit = cli_module.audit_invariants
        monkeypatch.setattr(cli_module, "audit_invariants",
                            lambda trace: calls.append(trace) or audit(trace))
        assert main(["audit", audit_trace, "--checks", "invariants, invariants,invariants"]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.count("invariants") == 1

    def test_corrupted_trace_fails_invariants(self, tmp_path, run_cfg):
        out = tmp_path / "out"
        main(["run", "--config", run_cfg, "--out-dir", str(out)])
        path = out / "run_trace.json"
        trace = ExecutionTrace.load(path)
        trace.states[50, 2, 0] = 99.0  # outside the feasible box
        save_trace(trace, path)  # stamps a digest that matches the tampered states
        assert main(["audit", str(path), "--checks", "invariants"]) == 1

    def test_tampered_trace_exits_2(self, tmp_path, run_cfg, capsys):
        out = tmp_path / "out"
        main(["run", "--config", run_cfg, "--out-dir", str(out)])
        path = out / "run_trace.json"
        doc = json.load(open(path))
        # digest left as written
        edit_array(doc, ("states",), lambda a: with_entry(a, (50, 2, 0), a[50, 2, 0] + 1e-9))
        write(path, doc)
        assert main(["audit", str(path), "--checks", "invariants"]) == 2
        assert "trace error" in capsys.readouterr().err

    def test_unsupported_version_exits_2(self, tmp_path, run_cfg, capsys):
        out = tmp_path / "out"
        main(["run", "--config", run_cfg, "--out-dir", str(out)])
        path = out / "run_trace.json"
        doc = json.load(open(path))
        doc["version"] = 99
        write(path, doc)
        assert main(["audit", str(path)]) == 2
        assert "unsupported trace version" in capsys.readouterr().err

    def test_huge_noise_bound_exits_2(self, tmp_path, run_cfg, capsys):
        # (L + delta)^2 overflows in the iterate lemma's offset H_k
        out = tmp_path / "out"
        main(["run", "--config", run_cfg, "--out-dir", str(out)])
        path = out / "run_trace.json"
        doc = json.load(open(path))
        doc["config"]["delta"] = 1e200  # the digest covers the states, not the bound
        write(path, doc)
        assert main(["audit", str(path), "--checks", "lemma2"]) == 2
        assert "non-finite value: round 1: the iterate-lemma coefficients" in capsys.readouterr().err

    def test_overflowing_fs_gradient_bound_is_named(self, tmp_path, capsys):
        """With d_max 200 on [-30, 30] the noise functions' gradient sups
        overflow, so the obfuscated gradient bound L is inf: the run exits 2
        and blames L, not the noise bound delta, which is 0."""
        cfg = write(tmp_path / "fs.json", quartic_config(
            algorithm="fs", topology={"family": "complete", "n": 5}, delta_coeff=0.5, d_max=200,
            seed=11, max_iter=5))
        with np.errstate(over="ignore"):
            assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "non-finite value: round 1: the iterate-lemma coefficients" in err
        assert "gradient bound L = inf" in err and "noise bound delta = 0;" in err
        assert err.rstrip().endswith("; L not finite)")

    def test_theorem3_wrong_schedule_exits_2(self, tmp_path):
        cfg = write(tmp_path / "cfg.json",
                    quartic_config(schedule={"kind": "inv_k", "a": 1.0, "b": 1.0}))
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out-dir", str(out)])
        assert main(["audit", str(out / "run_trace.json"), "--checks", "theorem3"]) == 2


class TestAuditOracle:
    """``audit`` solves the centralized oracle only for the checks that read
    the optimum, lemma2 and theorem3."""

    # the report of the checks below, as the code that always solved the
    # oracle wrote it
    REPORT = "c0c0f0ccee8a3b4ef6a6cf35a5dbc619792572b26adbac4b5390fe67d588da9e"

    def test_other_checks_never_solve_it(self, tmp_path, run_cfg, monkeypatch):
        out = tmp_path / "out"
        assert main(["run", "--config", run_cfg, "--out-dir", str(out)]) == 0
        trace = str(out / "run_trace.json")
        calls = []
        solve = cli_module.solve_centralized
        monkeypatch.setattr(cli_module, "solve_centralized",
                            lambda problem: calls.append(problem) or solve(problem))
        report = str(tmp_path / "audit.json")
        assert main(["audit", trace, "--checks", "invariants,lemma1,consensus",
                     "--consensus-threshold", "0.02", "--out", report]) == 0
        assert calls == []
        assert _body_digest(report, str(tmp_path)) == self.REPORT
        for checks in ("lemma2", "theorem3"):
            main(["audit", trace, "--checks", checks])
        assert len(calls) == 2


class TestTraceProblem:
    """A trace's config is checked as a config file is, and its arrays
    against the config; an edited one is a trace error (exit 2), not a
    runtime error of a later check."""

    @pytest.mark.parametrize("command", ["audit", "privacy"])
    def test_problem_of_another_dimension_exits_2(self, tmp_path, run_cfg, command, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", run_cfg, "--out-dir", str(out)]) == 0
        trace = str(out / "run_trace.json")
        doc = json.load(open(trace))
        doc["config"]["objectives"] = [{"kind": "polynomial", "coeffs": [[0, 0, 1]] * 2}] * 5
        doc["config"]["feasible"] = {"lower": [-30, -30], "upper": [30, 30]}
        write(trace, doc)
        alts = write(tmp_path / "alts.json", {"0": [0, 0, 1]})
        argv = {"audit": ["audit", trace],
                "privacy": ["privacy", trace, "--coalition", "1", "--target", "0",
                            "--alt-objectives", alts]}[command]
        capsys.readouterr()
        assert main(argv) == 2
        assert (r"trace error: config: init must have shape (5, 2), got (5, 1)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["audit", "privacy"])
    @pytest.mark.parametrize("value", ["abc", float("nan"), -1])
    def test_fs_delta_coeff_must_be_finite_and_non_negative(self, fs_artifacts, command, value,
                                                             capsys):
        trace, alts, _ = fs_artifacts
        doc = json.load(open(trace))
        doc["config"]["delta_coeff"] = value
        write(trace, doc)
        argv = {"audit": ["audit", trace, "--checks", "invariants"],
                "privacy": ["privacy", trace, "--coalition", "3,4", "--target", "0",
                            "--alt-objectives", alts]}[command]
        capsys.readouterr()
        assert main(argv) == 2
        message = ("delta_coeff must be a JSON number, got 'abc'" if value == "abc" else
                   f"delta_coeff must be finite and non-negative, got {float(value)!r}")
        assert f"trace error: config: {message}" in capsys.readouterr().err


# Malformed traces whose digest still matches (the noise is not digested):
# (key of the array, edit of the array)
MALFORMED = {
    "wrong_shape_edge_array": ("noise", lambda v: v[:, :-1]),
}


@pytest.fixture(params=sorted(MALFORMED))
def malformed_trace(request, tmp_path, run_cfg):
    out = tmp_path / "out"
    main(["run", "--config", run_cfg, "--out-dir", str(out)])
    path = out / "run_trace.json"
    doc = json.load(open(path))
    key, change = MALFORMED[request.param]
    edit_array(doc, (key,), change)
    write(path, doc)
    return str(path), key


class TestMalformedTrace:
    def test_audit_exits_2(self, malformed_trace, capsys):
        path, key = malformed_trace
        assert main(["audit", path, "--checks", "invariants"]) == 2
        assert f"trace error: {key}" in capsys.readouterr().err

    def test_privacy_exits_2(self, malformed_trace, tmp_path, capsys):
        path, key = malformed_trace
        alts = write(tmp_path / "alts.json", {"0": [0, 0, 1]})
        assert main(["privacy", path, "--coalition", "1", "--target", "0",
                     "--alt-objectives", alts]) == 2
        assert f"trace error: {key}" in capsys.readouterr().err


def _set(doc, place, value):
    """Set ``value`` at ``place``: keys into the document, then the index of
    an entry when the keys lead to an encoded array."""
    keys = [p for p in place if isinstance(p, str)]
    index = tuple(p for p in place if isinstance(p, int))
    edit_array(doc, keys, lambda v: with_entry(v, index, value) if index else value)


# Non-finite or out-of-range values the state digest does not cover:
# (algorithm, place in the document, value, the name the error gives)
NON_FINITE = {
    "nb_share": ("rss_nb", ("noise", 5, 1, 0), float("nan"), "noise"),
    "lb_perturbation": ("rss_lb", ("noise", 5, 1, 0), float("inf"), "noise"),
    "fs_noise_function": ("fs", ("noise", 3, 0, 2), float("nan"), "noise"),
    "nan_delta": ("rss_nb", ("config", "delta"), float("nan"),
                  "config: delta must be finite and non-negative, got nan"),
    "negative_delta": ("rss_nb", ("config", "delta"), -1.0,
                       "config: delta must be finite and non-negative, got -1.0"),
}


@pytest.fixture(params=sorted(NON_FINITE))
def non_finite_trace(request, tmp_path):
    algorithm, place, value, name = NON_FINITE[request.param]
    noise = {"delta_coeff": 0.5, "d_max": 8} if algorithm == "fs" else {"delta": 1.0}
    cfg = write(tmp_path / "cfg.json", quartic_config(algorithm=algorithm, seed=3, **noise))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 0
    path = out / "run_trace.json"
    doc = json.load(open(path))
    _set(doc, place, value)
    write(path, doc)
    return str(path), name


class TestNonFiniteTrace:
    def test_audit_exits_2(self, non_finite_trace, capsys):
        path, name = non_finite_trace
        assert main(["audit", path, "--checks", "invariants,lemma1,lemma2"]) == 2
        assert f"trace error: {name}" in capsys.readouterr().err

    def test_privacy_exits_2(self, non_finite_trace, tmp_path, capsys):
        path, name = non_finite_trace
        alts = write(tmp_path / "alts.json", {"0": [0, 0, 1]})
        assert main(["privacy", path, "--coalition", "1", "--target", "0",
                     "--alt-objectives", alts]) == 2
        assert f"trace error: {name}" in capsys.readouterr().err


def _raise_share(trace):
    trace.noise[10, 3] = 0.15  # above delta / (2n) = 0.1


def _break_lb_balance(trace):
    trace.noise[10, 3] += 1e-6  # edge (1, 2) breaks agent 1's balance


# In-memory tampering of a loaded trace; writing it stamps a matching digest, so
# the audit, not the loader, must catch it: (algorithm, tamper, invariant)
TAMPERED = {
    "nb_share": ("rss_nb", _raise_share, "share_bound"),
    "lb_fixed_weights": ("rss_lb", _break_lb_balance, "locally_balanced_sum"),
}


class TestInvariantViolations:
    @pytest.mark.parametrize("case", sorted(TAMPERED))
    def test_audit_names_the_broken_invariant(self, case, quartic_problem, cycle5,
                                              inv_sqrt, tmp_path, capsys):
        algorithm, tamper, invariant = TAMPERED[case]
        trace = run(algorithm, quartic_problem, cycle5, inv_sqrt, 60, delta=1.0,
                    init=INTERIOR_INIT, seed=3)
        path = tmp_path / "t.json"
        save_trace(trace, path)
        assert main(["audit", str(path), "--checks", "invariants"]) == 0
        loaded = ExecutionTrace.load(path)
        tamper(loaded)
        save_trace(loaded, path)
        report_path = tmp_path / "audit.json"
        capsys.readouterr()
        assert main(["audit", str(path), "--checks", "invariants",
                     "--out", str(report_path)]) == 1
        assert f"'invariant': '{invariant}'" in capsys.readouterr().out
        violations = json.load(open(report_path))["report"]["invariants"]["violations"]
        assert violations[0]["invariant"] == invariant

    def test_unbalanced_nb_perturbations_are_named(self, quartic_problem, cycle5, inv_sqrt):
        """rss_nb perturbations are derived from the shares, and cancel by
        construction; the audit still checks what the derivation gives."""
        trace = run("rss_nb", quartic_problem, cycle5, inv_sqrt, 60, delta=1.0,
                    init=INTERIOR_INIT, seed=3)
        trace.perturbations = with_entry(trace.perturbations, (10, 2), trace.perturbations[10, 2]
                                         + 1e-6)  # agent 2's perturbation no longer cancels
        violations = po.audit_invariants(trace).violations
        assert violations[0]["invariant"] == "network_balanced_sum"


@pytest.fixture
def fs_artifacts(tmp_path):
    cfg = write(tmp_path / "fs.json",
                quartic_config(algorithm="fs", delta_coeff=0.5, d_max=8, seed=11,
                               topology={"family": "complete", "n": 5},
                               max_iter=150, output_basename="fs"))
    out = tmp_path / "fsout"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 0
    alts = write(tmp_path / "alts.json", {"0": [0, 0, 1, 0, 1]})
    return str(out / "fs_trace.json"), alts, tmp_path


class TestPrivacy:
    def test_complete_graph_coalition_passes(self, fs_artifacts):
        trace, alts, tmp = fs_artifacts
        report_path = str(tmp / "priv.json")
        code = main(["privacy", trace, "--coalition", "3,4", "--target", "0",
                     "--alt-objectives", alts, "--out", report_path])
        assert code == 0
        report = json.load(open(report_path))["report"]
        assert report["passed"] and report["max_residual"] <= 1e-9

    def test_cut_coalition_exits_1_with_necessity_demo(self, tmp_path):
        cfg = write(tmp_path / "fsc.json",
                    quartic_config(algorithm="fs", delta_coeff=0.5, d_max=8, seed=12,
                                   max_iter=150, output_basename="fsc"))
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out-dir", str(out)])
        alts = write(tmp_path / "alts.json", {"1": [0, 0, 1]})
        report_path = str(tmp_path / "priv.json")
        code = main(["privacy", str(out / "fsc_trace.json"), "--coalition", "0,2",
                     "--target", "1", "--alt-objectives", alts, "--out", report_path])
        assert code == 1
        report = json.load(open(report_path))["report"]
        assert "necessity_demo" in report and report["necessity_demo"]["passed"]

    def test_full_coalition_exits_2(self, fs_artifacts):
        trace, alts, _ = fs_artifacts
        assert main(["privacy", trace, "--coalition", "0,1,2,3,4", "--target", "0",
                     "--alt-objectives", alts]) == 2

    def test_out_of_range_coalition_member_is_named(self, fs_artifacts, capsys):
        # checked before the coalition is found to cover every agent
        trace, alts, _ = fs_artifacts
        assert main(["privacy", trace, "--coalition", "0,1,2,3,9", "--target", "0",
                     "--alt-objectives", alts]) == 2
        assert capsys.readouterr().err == ("privacy check not applicable: "
                                           "coalition member 9 out of range\n")

    @pytest.mark.parametrize("option, value", [("--coalition", "3,a"), ("--target", "0,x")])
    def test_non_integer_agent_names_the_option(self, fs_artifacts, capsys, option, value):
        trace, alts, _ = fs_artifacts
        argv = {"--coalition": "3,4", "--target": "0", option: value}
        assert main(["privacy", trace, "--coalition", argv["--coalition"],
                     "--target", argv["--target"], "--alt-objectives", alts]) == 2
        token = value.split(",")[-1]
        assert capsys.readouterr().err == (f"privacy check not applicable: {option} {value!r}: "
                                           f"{token!r} is not an agent index\n")

    def test_tampered_trace_exits_2(self, fs_artifacts, capsys):
        trace, alts, _ = fs_artifacts
        doc = json.load(open(trace))
        # digest left as written
        edit_array(doc, ("states",), lambda a: with_entry(a, (10, 0, 0), a[10, 0, 0] + 1e-9))
        write(trace, doc)
        assert main(["privacy", trace, "--coalition", "3,4", "--target", "0",
                     "--alt-objectives", alts]) == 2
        assert "trace error" in capsys.readouterr().err

    def test_non_fs_trace_exits_2(self, tmp_path, run_cfg):
        out = tmp_path / "out"
        main(["run", "--config", run_cfg, "--out-dir", str(out)])
        alts = write(tmp_path / "alts.json", {"0": [0, 0, 1]})
        assert main(["privacy", str(out / "run_trace.json"), "--coalition", "1",
                     "--target", "0", "--alt-objectives", alts]) == 2

    @pytest.mark.parametrize("target", ["7", "-1", "0,5"])
    def test_out_of_range_target_is_named(self, fs_artifacts, capsys, target):
        trace, alts, _ = fs_artifacts
        assert main(["privacy", trace, "--coalition", "3,4", "--target", target,
                     "--alt-objectives", alts]) == 2
        agent = target.split(",")[-1]
        assert capsys.readouterr().err == (f"privacy check not applicable: "
                                           f"target agent {agent} out of range\n")

    @pytest.mark.parametrize("present", [True, False])
    def test_negative_extras_seed_is_a_usage_error(self, fs_artifacts, capsys, present):
        trace, alts, tmp = fs_artifacts
        # refused before the trace is read: a missing trace file is never noticed
        path = trace if present else str(tmp / "missing.json")
        with pytest.raises(SystemExit) as exc:
            main(["privacy", path, "--coalition", "3,4", "--target", "0",
                  "--alt-objectives", alts, "--extras-seed", "-3"])
        assert exc.value.code == 2
        assert ("argument --extras-seed: must be a non-negative integer, got '-3'"
                in capsys.readouterr().err)


def _add_an_agent(doc):
    """Make the config of a complete-5 trace one of six agents."""
    config = doc["config"]
    config.update(topology={"family": "complete", "n": 6},
                  objectives=config["objectives"] + config["objectives"][:1],
                  init=config["init"] + [[0.0]])


# Header and config defects of a complete-5 fs trace, each raising
# TraceError that names the fault: (edit of the document, the start of the
# error message)
MALFORMED_HEADER = {
    "version_4": (lambda d: d.update(version=4), "unsupported trace version: 4"),
    "version_6": (lambda d: d.update(version=6), "unsupported trace version: 6"),
    # a version-7 trace stores the fs gradient bounds as extras
    "version_7": (lambda d: d.update(version=7, extras={"obf_grad_bound": 1.0,
                                                         "obf_smoothness_bound": 1.0}),
                  "unsupported trace version: 7"),
    "stored_weights": (lambda d: d.update(weights=encode_array(np.full((5, 5), 0.2))),
                       "a trace document holds the keys"),
    "missing_states": (lambda d: d.pop("states"), "a trace document holds the keys"),
    "unknown_key": (lambda d: d.update(provenance={}), "a trace document holds the keys"),
    "null_seed": (lambda d: d["config"].update(seed=None),
                  "config: seed must be a non-negative integer, got None"),
    "missing_algorithm": (lambda d: d["config"].pop("algorithm"),
                          "config: missing required config key: algorithm"),
    "missing_topology": (lambda d: d["config"].pop("topology"),
                         "config: missing required config key: topology"),
    "missing_problem": (lambda d: d["config"].pop("objectives"),
                        "config: missing required config key: objectives"),
    "unknown_config_key": (lambda d: d["config"].update(bogus=1),
                           "config: unknown config keys: ['bogus']"),
    "max_iter_fraction": (lambda d: d["config"].update(max_iter=2.5),
                          "config: max_iter must be a positive integer, got 2.5"),
    "max_iter_bool": (lambda d: d["config"].update(max_iter=True),
                      "config: max_iter must be a positive integer, got True"),
    "max_iter_string": (lambda d: d["config"].update(max_iter="5"),
                        "config: max_iter must be a positive integer, got '5'"),
    "nonconvex_objective": (lambda d: d["config"]["objectives"][2].update(coeffs=[[0, 0, -1]]),
                            "config: agent 2: polynomial objective is non-convex"),
    "nonconvex_objective_opted_out": (
        lambda d: d["config"]["objectives"][2].update(coeffs=[[0, 0, -1]], enforce_convex=False),
        "config: agent 2: polynomial objective is non-convex"),
    "init_outside_the_box": (lambda d: d["config"]["init"][0].__setitem__(0, 31.0),
                             "config: init must lie in the feasible box"),
    "agents_differ_from_states": (_add_an_agent,
                                  "states has shape (150, 5, 1), expected (150, 6, 1)"),
    "n_not_an_integer": (lambda d: d["config"]["topology"].update(n=5.0),
                         "config: topology n must be an integer, got 5.0"),
    "topology_n_not_an_integer": (lambda d: d["config"]["topology"].update(n="x"),
                                  "config: topology n must be an integer, got 'x'"),
    "edge_out_of_range": (lambda d: d["config"]["topology"]["edges"].append([0, 9]),
                          "config: edge (0, 9) out of range"),
    # extras are no document key since trace version 8
    "extras_not_an_object": (lambda d: d.update(extras=[]), "a trace document holds the keys"),
    "unobfuscatable_problem": (lambda d: d["config"]["objectives"][1].update(kind="logistic",
                                                                            seed=1, dim=1),
                               "config: agent 1: function sharing requires polynomial "
                               "local objectives, got 'logistic'"),
}


class TestMalformedHeader:
    @pytest.mark.parametrize("command", ["audit", "privacy"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_HEADER))
    def test_exits_2_naming_the_key(self, case, command, fs_artifacts, capsys):
        trace, alts, _ = fs_artifacts
        doc = json.load(open(trace))
        edit, message = MALFORMED_HEADER[case]
        edit(doc)
        write(trace, doc)
        argv = {"audit": ["audit", trace],
                "privacy": ["privacy", trace, "--coalition", "3,4", "--target", "0",
                            "--alt-objectives", alts]}[command]
        assert main(argv) == 2
        assert f"trace error: {message}" in capsys.readouterr().err


class TestUnlocatableCriticalPoints:
    """A polynomial whose leading coefficient is too small against the others
    (here a subnormal one) has critical points the root finder cannot
    locate, so its constants cannot be computed: refused with exit 2."""

    COEFFS = [0, 0, 1, 0, 3e-310]

    def test_run_exits_2_naming_the_agent(self, tmp_path, capsys):
        with open(os.path.join(CONFIGS, "fs_complete_run.json")) as fh:
            doc = json.load(fh)
        doc["objectives"][1]["coeffs"] = self.COEFFS
        cfg = write(tmp_path / "fs.json", doc)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: agent 1: polynomial [[0.0, 0.0, 1.0, 0.0, 3e-310]]" in err
        assert not out.exists()

    def test_wide_normal_range_is_refused_too(self, tmp_path, capsys):
        doc = quartic_config(objectives=[{"kind": "polynomial", "coeffs": c} for c in
                                         ([0, 0, 1], [0, 0, 1], [0, 0, 1e10, 0, 1e-300],
                                          [0, 0, 1], [0, 0, 1])])
        assert main(["run", "--config", write(tmp_path / "c.json", doc),
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "config error: agent 2: " in capsys.readouterr().err

    def test_third_derivative_roots_are_refused_by_name(self, tmp_path, capsys):
        """The convexity check locates the roots of the third derivative,
        here 24x + 6e-309 x^2, whose quotient overflows."""
        doc = quartic_config(objectives=[{"kind": "polynomial", "coeffs": c} for c in
                                         ([0, 0, 1], [0, 0, 1], [0, 0, 1],
                                          [0, 0, 1, 0, 1, 1e-310], [0, 0, 1])])
        assert main(["run", "--config", write(tmp_path / "c.json", doc),
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "config error: agent 3: polynomial [[0.0, 0.0, 1.0, 0.0, 1.0, 1e-310]]" in (
            capsys.readouterr().err)

    def test_audit_exits_2(self, tmp_path, run_cfg, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", run_cfg, "--out-dir", str(out)]) == 0
        trace = str(out / "run_trace.json")
        doc = json.load(open(trace))
        doc["config"]["objectives"][1]["coeffs"] = self.COEFFS
        write(trace, doc)
        capsys.readouterr()
        assert main(["audit", trace]) == 2
        assert "trace error: config: agent 1: polynomial" in capsys.readouterr().err


def test_asymmetric_quadratic_names_its_agent(tmp_path, capsys):
    objectives = [{"kind": "quadratic", "matrix": [[1, 0], [0, 1]], "vector": [0, 0]}
                  for _ in range(5)]
    objectives[3]["matrix"] = [[1, 0.5], [0, 1]]
    cfg = write(tmp_path / "q.json", quartic_config(
        objectives=objectives, feasible={"lower": [-1, -1], "upper": [1, 1]}, init=None))
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
    assert ("config error: agent 3: quadratic matrix is not symmetric"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_nonconvex_objective_names_its_agent(tmp_path, capsys):
    objectives = [{"kind": "polynomial", "coeffs": c} for c in
                  ([0, 0, 1], [0, 0, 1], [0, 0, 1], [0, 0, 1, 0, -0.5], [0, 0, -1])]
    cfg = write(tmp_path / "c.json", quartic_config(objectives=objectives))
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
    assert ("config error: agent 3: polynomial objective is non-convex on the feasible set"
            in capsys.readouterr().err)


class TestBounds:
    def test_prints_constants(self, tmp_path, run_cfg, capsys):
        assert main(["bounds", "--config", run_cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        report = doc["report"]
        assert report["rho"] == pytest.approx(1 / 3)
        assert report["contraction"] == pytest.approx(1 - (1 / 3) / 100)
        assert report["delta"] == 1.0
        assert "true_grad_bound" not in report

    def test_fs_reports_the_obfuscated_bounds(self, capsys):
        """On an fs config the report gives the (L, N) the lemma audits of
        the config's trace check against, those of the obfuscated objectives,
        and the true objectives' pair under its own names."""
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "fs_complete_run.json")
        assert main(["bounds", "--config", path]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        config = po.RunConfig.from_file(path)
        effective = po.effective_bounds(po.execute(config)).to_dict()
        assert report == {**effective, "true_grad_bound": 108060.0,
                          "true_grad_smoothness": 10802.0}
        assert report["grad_bound"] == pytest.approx(4.83e11, rel=1e-2)
        assert report["grad_smoothness"] == pytest.approx(1.12e11, rel=1e-2)

    def test_dgd_reports_no_perturbation_bound(self, tmp_path, capsys):
        """A dgd run perturbs no state, whatever its config's ``delta``."""
        doc = quartic_config(algorithm="dgd", delta=1.0)
        assert main(["bounds", "--config", write(tmp_path / "dgd.json", doc)]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report == po.effective_bounds(po.execute(po.RunConfig.from_dict(doc))).to_dict()
        assert report["delta"] == 0.0


class TestReusedParser:
    """``main`` builds its parser on the first call and reuses it for every
    later command in the process."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_not_built_at_import(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.dirname(os.path.dirname(cli_module.__file__)),
             *filter(None, [os.environ.get("PYTHONPATH")])])}
        child = subprocess.run(
            [sys.executable, "-c",
             "import privopt.cli as c; print(c.build_parser.cache_info().currsize)"],
            env=env, capture_output=True, text=True, timeout=60)
        assert child.returncode == 0 and child.stdout == "0\n", child.stderr

    @pytest.mark.parametrize("first, later, defaults", [
        (["audit", "t.json", "--out", "a.json", "--checks", "lemma1",
          "--tail-fraction", "0.5"],
         ["audit", "t.json"],
         {"out": None, "checks": "invariants,lemma1,lemma2,consensus", "tail_fraction": 0.1}),
        (["privacy", "t.json", "--coalition", "1", "--target", "0", "--alt-objectives", "a.json",
          "--extras-seed", "9", "--out", "p.json"],
         ["privacy", "t.json", "--coalition", "1", "--target", "0", "--alt-objectives", "a.json"],
         {"extras_seed": 0, "out": None}),
        (["run", "--config", "c.json", "--out-dir", "o"], ["run", "--config", "c.json"],
         {"out_dir": "."}),
    ])
    def test_later_call_gets_the_defaults(self, monkeypatch, first, later, defaults):
        seen = []
        monkeypatch.setattr(cli_module, f"_cmd_{first[0]}",
                            lambda args: seen.append(vars(args)) or 0)
        assert main(first) == 0 and main(later) == 0
        assert all(seen[0][key] != value for key, value in defaults.items())
        assert {key: seen[1][key] for key in defaults} == defaults

    def test_usage_error_leaves_the_next_call_unaffected(self, audit_trace, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["audit", audit_trace, "--consensus-threshold", "0.5", "--tail-fraction", "x"])
        assert exc.value.code == 2
        report_path = tmp_path / "audit.json"
        assert main(["audit", audit_trace, "--checks", "consensus", "--out", str(report_path)]) == 0
        details = json.load(open(report_path))["report"]["consensus"]["details"]
        assert details["threshold"] == 0.05


class TestRandomizedConfigs:
    """Property net: any valid random small config runs, audits clean, and
    round-trips through trace serialization."""

    @pytest.mark.parametrize("trial", range(6))
    def test_run_and_audit(self, tmp_path, trial):
        import numpy as np

        from privopt.analysis import audit_invariants
        from privopt.configs import RunConfig, execute
        from privopt.engine import ExecutionTrace
        from privopt.objectives import GlobalProblem

        rng = np.random.default_rng(900 + trial)
        n = int(rng.integers(2, 6))
        family = ["cycle", "complete", "star", "path"][trial % 4]
        if family == "cycle" and n < 3:
            n = 3
        coeff_pool = [[0, 0, 1], [0, 0, 0.5, 0, 0.25], [0, 1, 1], [2, 0, 2]]
        doc = quartic_config(
            algorithm=["dgd", "rss_nb", "rss_lb"][trial % 3],
            topology={"family": family, "n": n},
            objectives=[{"kind": "polynomial",
                         "coeffs": coeff_pool[int(rng.integers(0, len(coeff_pool)))]}
                        for _ in range(n)],
            delta=float(rng.choice([0.0, 0.5, 3.0])),
            seed=int(rng.integers(0, 1000)),
            max_iter=int(rng.integers(50, 200)),
            init=np.linspace(-0.5, 0.5, n)[:, None].tolist(),
            record_every=int(rng.choice([1, 7])),
        )
        config = RunConfig.from_dict(doc)
        trace = execute(config)
        assert audit_invariants(trace).passed
        path = tmp_path / f"t{trial}.json"
        save_trace(trace, path)
        assert ExecutionTrace.load(path).state_digest() == trace.state_digest()


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def _body_digest(path, mask):
    """sha256 of an artifact with its timestamp dropped and ``mask`` (the
    directory it was written in) replaced, so reruns elsewhere compare."""
    text = "".join(strip_timestamp(path)).replace(mask, "OUT")
    return hashlib.sha256(text.encode()).hexdigest()


class TestArtifactsPinned:
    """The metrics CSVs and audit reports of the shipped configs, and the CSV
    of a small sweep, are byte for byte those of the per-objective code they
    replaced (timestamps aside)."""

    SHIPPED = {
        "poly_cycle_run.json": (
            "poly_cycle",
            "600cfcecd17787f0681bfb3edc60e4795b673512027d248c4bfb28f903459c3b",
            "d9a1198b2fb0e0d002fcb7758285317194b11cec9ce6697bef99e60640269493"),
        "fs_complete_run.json": (
            "fs_complete",
            "74d8f4a2de363c4bb4703f4d4eebc8c48959a3dc82e61aeb38ff48d55054c6eb",
            "72e9cdaf8806219cb0157f9f590735d857385bef5203ebbcf3b1ec63f1703a56"),
    }
    DOWN_SAMPLED = "6751ef7c4c2e90c68c6d5d314a4e308dcc1accf2f86f0553c6af93c0dcf63a8b"
    SWEEP = "75404a7c06a3210c81e08a1f25b755c2f56b04162ade7207bfc50e40d4da70d3"

    @pytest.mark.parametrize("config", sorted(SHIPPED))
    def test_shipped_config_metrics_and_audit(self, tmp_path, config):
        base, metrics_digest, audit_digest = self.SHIPPED[config]
        out = tmp_path / "out"
        assert main(["run", "--config", os.path.join(CONFIGS, config),
                     "--out-dir", str(out)]) == 0
        report = str(tmp_path / "audit.json")
        main(["audit", str(out / f"{base}_trace.json"),
              "--checks", "invariants,lemma1,lemma2,consensus", "--out", report])
        assert _body_digest(out / f"{base}_metrics.csv", str(tmp_path)) == metrics_digest
        assert _body_digest(report, str(tmp_path)) == audit_digest

    def test_down_sampled_audit(self, tmp_path):
        """Lemma margins over a trace that records every 7th round."""
        cfg = write(tmp_path / "lb.json", quartic_config(algorithm="rss_lb", delta=1.0, seed=9,
                                                         max_iter=400, record_every=7))
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        report = str(tmp_path / "audit.json")
        assert main(["audit", str(tmp_path / "out" / "run_trace.json"),
                     "--checks", "lemma1,lemma2", "--out", report]) == 0
        assert _body_digest(report, str(tmp_path)) == self.DOWN_SAMPLED

    def test_sweep_metrics(self, tmp_path):
        base = quartic_config(max_iter=200, record_every=1)
        base.pop("algorithm")
        cfg = write(tmp_path / "sweep.json", {"base": base, "grid": {
            "algorithm": ["rss_nb", "rss_lb"], "delta": [1.0, 15.0], "seed": [101, 202]}})
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out-dir", str(out)]) == 0
        assert _body_digest(out / "sweep_metrics.csv", str(tmp_path)) == self.SWEEP
