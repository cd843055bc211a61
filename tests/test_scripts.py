"""Smoke tests: the scripts under ``scripts/`` run end to end."""

import contextlib
import importlib.util
import io
import pathlib
import re

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_main(name: str) -> tuple[int, str]:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = module.main()
    return code, out.getvalue()


def test_privacy_walkthrough():
    code, out = run_main("privacy_walkthrough")
    assert code == 0
    assert "passed=True, max residual=0.0e+00, replay digest ok=True" in out
    residuals = re.findall(r"recovered with residual (\S+)", out)
    assert len(residuals) == 2 and all(float(r) == 0.0 for r in residuals)
