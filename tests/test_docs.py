"""README.md names only repository paths that exist."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]

# a path under one of the repository's top-level directories, not part of a longer path
REPO_PATH = re.compile(r"(?<![\w./-])((?:configs|scripts|perfbench|tests|src)/[\w./-]*)")


def test_readme_paths_exist():
    named = set(REPO_PATH.findall((ROOT / "README.md").read_text()))
    assert {"configs/poly_cycle_run.json", "tests/test_acceptance.py"} <= named
    assert sorted(path for path in named if not (ROOT / path).exists()) == []
