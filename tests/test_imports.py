"""The package's modules import one another at module level, so the import
graph is visible at the top of each file. The only function-level import
inside the package is ``engine``'s ``from .configs import`` in
``ExecutionTrace.from_json_dict``, which validates a loaded trace's config:
``configs`` imports ``engine``, because the benchmark's span table patches the
run functions at their ``privopt.configs.run_*`` lookup sites, so ``configs``
keeps importing them by name.

No command imports ``numpy.ma``. Under numpy 2.4, ``np.unique``,
``np.quantile``, ``np.percentile``, ``np.median`` and ``np.setdiff1d`` each
import it on first use (about 25 ms, a third of a small audit), while
``np.histogram``, ``np.isin``, ``np.sort`` and ``np.partition`` do not; so the
package calls none of the former, and the commands are checked in one fresh
interpreter. The same interpreter checks that no command imports
``numpy.polynomial``: the package evaluates polynomials with its own Horner
loop, in ``polyval``'s operations, and only the tests import numpy's as the
reference."""

import ast
import json
import os
import pathlib
import subprocess
import sys

from conftest import quartic_config

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "privopt"

ALLOWED = {("engine.py", "ExecutionTrace.from_json_dict", "configs")}

# numpy functions that import numpy.ma on first use
LOADS_NUMPY_MA = {"unique", "quantile", "percentile", "median", "setdiff1d"}


def _function_level_relative_imports(path: pathlib.Path) -> set:
    """(file, qualified function name, module) of every relative import
    inside a function of ``path``."""
    found = set()

    def visit(node, scope: tuple, in_function: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level and in_function:
                found.add((path.name, ".".join(scope), child.module or ""))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,),
                      in_function or not isinstance(child, ast.ClassDef))
            else:
                visit(child, scope, in_function)

    visit(ast.parse(path.read_text(), filename=str(path)), (), False)
    return found


def test_relative_imports_sit_at_module_level():
    found = set().union(*map(_function_level_relative_imports, sorted(PACKAGE.glob("*.py"))))
    assert found == ALLOWED


def _numpy_ma_loaders(path: pathlib.Path) -> set:
    """(file, line, name) of every ``np.<name>``/``numpy.<name>`` use and
    ``from numpy import <name>`` of a ``LOADS_NUMPY_MA`` name in ``path``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Attribute) and node.attr in LOADS_NUMPY_MA
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.add((path.name, node.lineno, node.attr))
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found |= {(path.name, node.lineno, a.name) for a in node.names
                      if a.name in LOADS_NUMPY_MA}
    return found


def test_no_function_that_imports_numpy_ma():
    assert set().union(*map(_numpy_ma_loaders, sorted(PACKAGE.glob("*.py")))) == set()


CHILD = """
import contextlib, io, json, sys
from privopt.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, (argv, code)
    assert "numpy.ma" not in sys.modules, argv
    assert "numpy.polynomial" not in sys.modules, argv
print("ok")
"""


def test_commands_leave_numpy_ma_unimported(tmp_path):
    configs = {"quartic": quartic_config(algorithm="rss_nb", delta=1.0, seed=3,
                                         output_basename="quartic"),
               "fs": quartic_config(algorithm="fs", delta_coeff=0.5, d_max=8, seed=11,
                                    topology={"family": "complete", "n": 5},
                                    output_basename="fs")}
    argv = []
    for name, doc in configs.items():
        config, trace = tmp_path / f"{name}.json", tmp_path / f"{name}_trace.json"
        config.write_text(json.dumps(doc))
        argv += [["run", "--config", str(config), "--out-dir", str(tmp_path)],
                 # a short fs run disagrees by more than the default threshold of 0.05
                 ["audit", str(trace), "--checks", "invariants,lemma1,lemma2,consensus,theorem3",
                  "--consensus-threshold", "0.5"],
                 ["bounds", "--config", str(config), "--out", str(tmp_path / f"{name}_bounds.json")]]
    alternatives = tmp_path / "alternatives.json"
    alternatives.write_text(json.dumps({"0": [0, 0, 1, 0, 1]}))
    argv.append(["privacy", str(tmp_path / "fs_trace.json"), "--coalition", "3,4",
                 "--target", "0", "--alt-objectives", str(alternatives),
                 "--out", str(tmp_path / "privacy.json")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    child = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0 and child.stdout == "ok\n", child.stderr
