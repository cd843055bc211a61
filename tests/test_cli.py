import json
import os

import numpy as np
import pytest

import privopt as po
from privopt.cli import main
from privopt.engine import ExecutionTrace

from conftest import INTERIOR_INIT, quartic_config


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

    def test_artifacts_follow_umask(self, tmp_path, run_cfg):
        out = tmp_path / "out"
        previous = os.umask(0o027)
        try:
            assert main(["run", "--config", run_cfg, "--out-dir", str(out)]) == 0
        finally:
            os.umask(previous)
        for name in ("run_trace.json", "run_metrics.csv"):
            assert (out / name).stat().st_mode & 0o777 == 0o640

    def test_builds_problem_and_topology_once(self, tmp_path, run_cfg, monkeypatch):
        from privopt import configs

        built = {"objectives": 0, "topologies": 0}
        objective_from_spec, topology_from_spec = configs.objective_from_spec, po.Topology.from_spec

        def count_objective(spec):
            built["objectives"] += 1
            return objective_from_spec(spec)

        def count_topology(spec):
            built["topologies"] += 1
            return topology_from_spec(spec)

        monkeypatch.setattr(configs, "objective_from_spec", count_objective)
        monkeypatch.setattr(po.Topology, "from_spec", staticmethod(count_topology))
        argv = ["run", "--config", run_cfg, "--out-dir", str(tmp_path / "o"), "--record-every", "5"]
        assert main(argv) == 0
        assert built == {"objectives": 5, "topologies": 1}

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

    def test_corrupted_trace_fails_invariants(self, tmp_path, run_cfg):
        out = tmp_path / "out"
        main(["run", "--config", run_cfg, "--out-dir", str(out)])
        path = out / "run_trace.json"
        trace = ExecutionTrace.load(path)
        trace.states[50, 2, 0] = 99.0  # outside the feasible box
        trace.save(path)  # stamps a digest that matches the tampered states
        assert main(["audit", str(path), "--checks", "invariants"]) == 1

    def test_tampered_trace_exits_2(self, tmp_path, run_cfg, capsys):
        out = tmp_path / "out"
        main(["run", "--config", run_cfg, "--out-dir", str(out)])
        path = out / "run_trace.json"
        doc = json.load(open(path))
        doc["rounds"]["states"][50][2][0] += 1e-9  # digest left as written
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

    def test_theorem3_wrong_schedule_exits_2(self, tmp_path):
        cfg = write(tmp_path / "cfg.json",
                    quartic_config(schedule={"kind": "inv_k", "a": 1.0, "b": 1.0}))
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out-dir", str(out)])
        assert main(["audit", str(out / "run_trace.json"), "--checks", "theorem3"]) == 2


# Malformed traces whose digest still matches (step and shares are not digested;
# the index check runs before the digest check)
MALFORMED = {
    "truncated_step": ("step", lambda v: v[:-1]),
    "wrong_shape_edge_array": ("shares", lambda v: [row[:-1] for row in v]),
    "shifted_index": ("index", lambda v: [k + 1 for k in v]),
}


@pytest.fixture(params=sorted(MALFORMED))
def malformed_trace(request, tmp_path, run_cfg):
    out = tmp_path / "out"
    main(["run", "--config", run_cfg, "--out-dir", str(out)])
    path = out / "run_trace.json"
    doc = json.load(open(path))
    key, change = MALFORMED[request.param]
    doc["rounds"][key] = change(doc["rounds"][key])
    write(path, doc)
    return str(path), key


class TestMalformedTrace:
    def test_audit_exits_2(self, malformed_trace, capsys):
        path, key = malformed_trace
        assert main(["audit", path, "--checks", "invariants"]) == 2
        assert f"trace error: rounds.{key}" in capsys.readouterr().err

    def test_privacy_exits_2(self, malformed_trace, tmp_path, capsys):
        path, key = malformed_trace
        alts = write(tmp_path / "alts.json", {"0": [0, 0, 1]})
        assert main(["privacy", path, "--coalition", "1", "--target", "0",
                     "--alt-objectives", alts]) == 2
        assert f"trace error: rounds.{key}" in capsys.readouterr().err


def _set(doc, path, value):
    *outer, last = path
    for key in outer:
        doc = doc[key]
    doc[last] = value


# Non-finite or out-of-range values the state digest does not cover:
# (algorithm, place in the document, value, the name the error gives)
NON_FINITE = {
    "nb_perturbation": ("rss_nb", ("rounds", "perturbations", 5, 1, 0), float("nan"),
                        "rounds.perturbations"),
    "nb_share": ("rss_nb", ("rounds", "shares", 5, 1, 0), float("nan"), "rounds.shares"),
    "lb_perturbation": ("rss_lb", ("rounds", "perturbations", 5, 1, 0), float("inf"),
                        "rounds.perturbations"),
    "weight": ("rss_nb", ("weights", 0, 1), float("nan"), "weights"),
    "nan_delta": ("rss_nb", ("delta",), float("nan"), "delta"),
    "negative_delta": ("rss_nb", ("delta",), -1.0, "delta must be non-negative"),
    "obf_grad_bound": ("fs", ("extras", "obf_grad_bound"), float("nan"),
                       "extras.obf_grad_bound"),
    "obf_smoothness_bound": ("fs", ("extras", "obf_smoothness_bound"), float("inf"),
                             "extras.obf_smoothness_bound"),
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


def _break_nb_sum(trace):
    trace.perturbations[10, 2] += 1e-6  # agent 2's perturbation no longer cancels


def _raise_share(trace):
    trace.shares[10, 3] = 0.15  # above delta / (2n) = 0.1


def _break_lb_balance(trace):
    trace.perturbations[10, 3] += 1e-6  # edge (1, 2) breaks agent 1's balance


# In-memory tampering of a loaded trace; save() stamps a matching digest, so
# the audit, not the loader, must catch it: (algorithm, provider, tamper, invariant)
TAMPERED = {
    "nb_sum": ("rss_nb", False, _break_nb_sum, "network_balanced_sum"),
    "nb_share": ("rss_nb", False, _raise_share, "share_bound"),
    "lb_fixed_weights": ("rss_lb", False, _break_lb_balance, "locally_balanced_sum"),
    "lb_provider": ("rss_lb", True, _break_lb_balance, "locally_balanced_sum"),
}


class TestInvariantViolations:
    @pytest.mark.parametrize("case", sorted(TAMPERED))
    def test_audit_names_the_broken_invariant(self, case, quartic_problem, cycle5,
                                              inv_sqrt, tmp_path, capsys):
        algorithm, provider, tamper, invariant = TAMPERED[case]
        runner = po.run_rss_nb if algorithm == "rss_nb" else po.run_rss_lb
        regular = po.metropolis_weights(cycle5)
        lazy = po.metropolis_weights(cycle5, self_inclusive_degree=True)
        weights = (lambda k: regular if k % 2 else lazy) if provider else None
        trace = runner(quartic_problem, cycle5, inv_sqrt, 1.0, 60, init=INTERIOR_INIT,
                       seed=3, weights=weights)
        path = tmp_path / "t.json"
        trace.save(path)
        assert main(["audit", str(path), "--checks", "invariants"]) == 0
        loaded = ExecutionTrace.load(path)
        assert (loaded.weights_series is not None) == provider
        tamper(loaded)
        loaded.save(path)
        report_path = tmp_path / "audit.json"
        capsys.readouterr()
        assert main(["audit", str(path), "--checks", "invariants",
                     "--out", str(report_path)]) == 1
        assert f"'invariant': '{invariant}'" in capsys.readouterr().out
        violations = json.load(open(report_path))["report"]["invariants"]["violations"]
        assert violations[0]["invariant"] == invariant


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

    def test_tampered_trace_exits_2(self, fs_artifacts, capsys):
        trace, alts, _ = fs_artifacts
        doc = json.load(open(trace))
        doc["rounds"]["states"][10][0][0] += 1e-9  # digest left as written
        write(trace, doc)
        assert main(["privacy", trace, "--coalition", "3,4", "--target", "0",
                     "--alt-objectives", alts]) == 2
        assert "trace error" in capsys.readouterr().err

    def test_down_sampled_provider_trace_exits_2(self, quartic_problem, cycle5, inv_sqrt,
                                                 tmp_path, capsys):
        # its unrecorded rounds' weights are not in the trace, so there is no replay
        regular = po.metropolis_weights(cycle5)
        lazy = po.metropolis_weights(cycle5, self_inclusive_degree=True)
        trace = po.run_fs(quartic_problem, cycle5, inv_sqrt, 0.5, 8, 60, init=INTERIOR_INIT,
                          seed=3, weights=lambda k: regular if k % 2 else lazy, record_every=4)
        path = tmp_path / "t.json"
        trace.save(path)
        alts = write(tmp_path / "alts.json", {"0": [0, 0, 1]})
        assert main(["privacy", str(path), "--coalition", "2", "--target", "0",
                     "--alt-objectives", alts]) == 2
        assert "privacy check not applicable" in capsys.readouterr().err

    def test_non_fs_trace_exits_2(self, tmp_path, run_cfg):
        out = tmp_path / "out"
        main(["run", "--config", run_cfg, "--out-dir", str(out)])
        alts = write(tmp_path / "alts.json", {"0": [0, 0, 1]})
        assert main(["privacy", str(out / "run_trace.json"), "--coalition", "1",
                     "--target", "0", "--alt-objectives", alts]) == 2


class TestBounds:
    def test_prints_constants(self, tmp_path, run_cfg, capsys):
        assert main(["bounds", "--config", run_cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        report = doc["report"]
        assert report["rho"] == pytest.approx(1 / 3)
        assert report["contraction"] == pytest.approx(1 - (1 / 3) / 100)
        assert report["delta"] == 1.0


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
        problem = config.build_problem()
        assert audit_invariants(trace, problem).passed
        path = tmp_path / f"t{trial}.json"
        trace.save(path)
        assert ExecutionTrace.load(path).state_digest() == trace.state_digest()
