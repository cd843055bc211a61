"""Smoke test: ``scripts/engine_scaling.py`` runs end to end."""

import contextlib
import importlib.util
import io
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_main(name: str, argv) -> tuple[int, str]:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = module.main(argv)
    return code, out.getvalue()


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
