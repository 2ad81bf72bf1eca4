"""Every public function, class and method of roadcost is reached from
somewhere other than its own unit tests: the package, the benchmark harness
or the README."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "roadcost"

# names whose only callers are the acceptance criteria or the shared fixtures
ALLOWED = {
    "tag_weight": "tests/test_acceptance.py checks the overlap weight of one record",
    "trip_cost": "tests/test_acceptance.py checks the cost model on one trip",
    "dense": "tests/test_acceptance.py compares PageRank against the dense matrix",
    "row_sums": "tests/test_acceptance.py checks that transition rows are stochastic",
    "peak_offpeak_schedule": "the tests' default schedule fixture",
}


def _public_names() -> list[tuple[str, str]]:
    """(module, name) of every public top-level function and class, and of
    every public method, defined in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in (node, *members):
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                    if not item.name.startswith("_"):
                        found.append((path.stem, item.name))
    return found


def test_every_public_name_is_used_outside_its_tests():
    # the package without __init__.py's re-exports, the harness (its TIMED
    # list names functions in strings) and the README
    package = [
        line
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for line in path.read_text().splitlines()
    ]
    others = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    others.append((ROOT / "README.md").read_text())
    unused = []
    for module, name in _public_names():
        definition = re.compile(rf"^\s*(def|class)\s+{name}\b")
        word = re.compile(rf"\b{name}\b")
        code = (line for line in package if not definition.match(line))
        if name not in ALLOWED and not any(map(word.search, [*code, *others])):
            unused.append(f"{module}.{name}")
    assert not unused, f"defined, but used nowhere outside the unit tests: {unused}"


def test_allowed_names_exist():
    assert set(ALLOWED) <= {name for _, name in _public_names()}
