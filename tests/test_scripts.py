"""Smoke tests: the scripts under ``scripts/`` run end to end."""

import contextlib
import importlib.util
import io
import pathlib
import re

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_main(name: str, argv=None) -> tuple[int, str]:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = module.main() if argv is None else module.main(argv)
    return code, out.getvalue()


def test_privacy_walkthrough():
    code, out = run_main("privacy_walkthrough")
    assert code == 0
    assert "passed=True, max residual=0.0e+00, replay digest ok=True" in out
    residuals = re.findall(r"recovered with residual (\S+)", out)
    assert len(residuals) == 2 and all(float(r) == 0.0 for r in residuals)


def test_poly_cycle_experiment(tmp_path):
    code, out = run_main("poly_cycle_experiment", ["--out-dir", str(tmp_path), "--max-iter", "120"])
    assert code == 0
    lines = (tmp_path / "suboptimality.csv").read_text().splitlines()
    assert lines[0] == "label,k,suboptimality,max_disagreement"
    # five runs, each with its 120 rounds and the post-run row
    assert len(lines) == 1 + 5 * 121
    label, k, sub, dis = lines[-1].split(",")
    assert (label, k) == ("rss_lb d=15", "121") and float(sub) >= 0.0 and float(dis) >= 0.0
    # every run prints the probe rounds it reaches, each once
    assert len(re.findall(r"k=100: \S+  k=120: \S+\n", out)) == 5
    code, out = run_main("poly_cycle_experiment", ["--out-dir", str(tmp_path), "--max-iter", "100"])
    assert code == 0
    summaries = [line for line in out.splitlines() if "k=" in line]
    assert len(summaries) == 5 and all(line.count("k=100:") == 1 for line in summaries)


def test_engine_scaling():
    code, out = run_main("engine_scaling", ["--sizes", "5", "8", "--rounds", "3", "--repeats", "1"])
    assert code == 0
    cycle, quartic = out.split("\n\n")
    rows = [line for line in cycle.splitlines() if line.startswith("| ") and "algorithm" not in line]
    assert [row.split("|")[1].strip() for row in rows] == ["dgd", "rss_nb", "rss_lb"]
    assert all(float(cell) > 0.0 for row in rows for cell in row.split("|")[2:4])
    # the paper's quartic 5-cycle row of every algorithm, at 2000 rounds whatever --rounds says
    assert "2000 rounds, quartic 5-cycle (poly_cycle_run.json)" in quartic
    rows = [line for line in quartic.splitlines() if line.startswith("| ")
            and "algorithm" not in line]
    assert [row.split("|")[1].strip() for row in rows] == ["dgd", "rss_nb", "rss_lb", "fs"]
    assert all(float(row.split("|")[2]) > 0.0 for row in rows)
