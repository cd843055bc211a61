"""The benchmark's span wrappers reach every privopt lookup site they name,
and its readers of privopt objects read real ones.

``perfbench/spans.py`` patches privopt functions by module and name, and reads
traces, views and objectives by attribute. A name renamed or deleted in
privopt would otherwise fail only a traced benchmark run.
"""

import pathlib

import pytest

import privopt as po

from conftest import INTERIOR_INIT, run

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


def test_execute_reaches_the_wrapped_runners(spans, quartic_problem, cycle5, inv_sqrt):
    """``privopt.execute`` looks its runner up when called, so each run is
    recorded under its algorithm while the wrappers are installed."""
    noise = {"dgd": {}, "rss_nb": {"delta": 1.0}, "rss_lb": {"delta": 1.0},
             "fs": {"delta_coeff": 0.5, "d_max": 8}}
    tracer = spans.Tracer()
    try:
        tracer.install()
        for algorithm, keys in noise.items():
            run(algorithm, quartic_problem, cycle5, inv_sqrt, 5, init=INTERIOR_INIT, **keys)
    finally:
        tracer.restore()
    assert [r["algorithm"] for r in tracer.engine_runs] == list(noise)


def test_readers_take_real_objects(spans, quartic_problem, cycle5, inv_sqrt):
    """The traced benchmark's own readers of privopt objects: a renamed trace
    attribute or view field fails here, not only in a traced run."""
    kw = dict(max_iter=20, init=INTERIOR_INIT)
    traces = [run("dgd", quartic_problem, cycle5, inv_sqrt, **kw),
              run("rss_nb", quartic_problem, cycle5, inv_sqrt, delta=1.0, seed=1, **kw),
              run("rss_lb", quartic_problem, cycle5, inv_sqrt, delta=1.0, seed=1, **kw),
              run("fs", quartic_problem, cycle5, inv_sqrt, delta_coeff=0.5, d_max=8, seed=1,
                  **kw)]
    for trace in traces:
        assert spans._trace_nbytes(trace) >= trace.states.nbytes + trace.final_states.nbytes
    # a view's replay key is the public dynamics', whatever the coalition
    views = [po.extract_view(traces[-1], coalition) for coalition in ([0], [1, 3])]
    assert spans._view_key(views[0]) == spans._view_key(views[1])
    keys = {spans._constants_key(obj, quartic_problem.feasible)
            for obj in quartic_problem.objectives}
    assert len(keys) == len(quartic_problem.objectives)
