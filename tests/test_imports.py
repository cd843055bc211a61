"""The package's modules import one another at module level, so the import
graph is visible at the top of each file. The only function-level import
inside the package is ``engine``'s ``from .configs import`` in
``ExecutionTrace.from_json_dict``, which validates a loaded trace's config:
``configs`` imports ``engine``, because the benchmark's span table patches the
run functions at their ``privopt.configs.run_*`` lookup sites, so ``configs``
keeps importing them by name."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "privopt"

ALLOWED = {("engine.py", "ExecutionTrace.from_json_dict", "configs")}


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
