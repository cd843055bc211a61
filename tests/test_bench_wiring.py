"""The benchmark's span wrappers reach every privopt lookup site they name.

``perfbench/spans.py`` patches privopt functions by module and name. A name
renamed or deleted in privopt would otherwise fail only a traced benchmark run.
"""

import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    return spans


def test_install_wraps_and_restore_unwraps_every_site(spans):
    # as in the benchmark, the modules are imported before the wrappers go in
    from privopt import cli, configs, engine  # noqa: F401

    tracer = spans.Tracer()
    try:
        tracer.install()
        assert spans.wiring_problems(tracer, True) == []
    finally:
        tracer.restore()
    assert spans.wiring_problems(tracer, False) == []

