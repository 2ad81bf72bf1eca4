"""Every public function, class and method of roadcost is reached from
code other than its own unit tests: the package, the benchmark harness or the
README's python blocks. A docstring or a README sentence naming it does not
count. So is every defaulted parameter: some call there sets it."""

from __future__ import annotations

import ast
import math
import re
from collections import defaultdict
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
    "format_hhmmss": "the scalar reference the tests compare _format_clock_column against",
    "speed_limit_baseline": "tests/test_acceptance.py checks the speed-limit baselines",
}

# parameters that only the acceptance criteria set, as function.parameter
ALLOWED_PARAMETERS = {
    "build_a.method": "tests/test_acceptance.py builds the exact similarity matrix by name",
    "pagerank.max_iters": "tests/test_acceptance.py refines to 1e-13 with more steps",
    "pagerank.tol": "tests/test_acceptance.py solves to 1e-13",
    "run_comparison.variants": "tests/test_acceptance.py compares a subset of F1-F4",
    "speed_limit_baseline.lam": "tests/test_acceptance.py doubles the urban travel time",
    "training_size_sweep.seed": "tests/test_acceptance.py draws one split per dataset",
}


def _public_defs() -> list[tuple[str, ast.FunctionDef | ast.ClassDef, bool]]:
    """(module, definition, is_method) of every public top-level function and
    class, and of every public method, defined in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                found.append((path.stem, node, False))
            for item in node.body if isinstance(node, ast.ClassDef) else []:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found.append((path.stem, item, True))
    return found


def _caller_trees() -> list[tuple[ast.Module, bool]]:
    """The code that counts as a caller, parsed, each with whether its string
    constants name code too: the package without __init__.py's re-exports,
    the harness (True: its TIMED list names functions in strings) and the
    README's python blocks."""
    package = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return [
        *((ast.parse(p.read_text()), False) for p in package),
        *((ast.parse(p.read_text()), True) for p in sorted((ROOT / "perfbench").glob("*.py"))),
        *((ast.parse(block), False) for block in blocks),
    ]


def _module_aliases(tree: ast.AST) -> set[str]:
    """Names that an ``import`` statement binds to a module (np, sp, rc, ...)."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }


def _is_module(node: ast.expr, aliases: set[str]) -> bool:
    """A module alias, or a lowercase attribute of one (a submodule: np.random)."""
    if isinstance(node, ast.Name):
        return node.id in aliases
    return isinstance(node, ast.Attribute) and node.attr.islower() and _is_module(
        node.value, aliases
    )


def _method_accesses() -> set[str]:
    """Attribute names accessed on something other than a module: ``x.m``
    reaches a method m, ``np.m`` does not."""
    found = set()
    for tree, _ in _caller_trees():
        aliases = _module_aliases(tree)
        found |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and not _is_module(node.value, aliases)
        }
    return found


def _name_uses() -> set[str]:
    """Every name and attribute that the callers' code reads, and every word
    of the string constants that name code."""
    found = set()
    for tree, strings_name_code in _caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif strings_name_code and isinstance(node, ast.Constant):
                found.update(re.findall(r"\w+", str(node.value)))
    return found


def test_every_public_name_is_used_outside_its_tests():
    used, accessed = _name_uses(), _method_accesses()
    unused = [
        f"{module}.{node.name}"
        for module, node, is_method in _public_defs()
        if node.name not in ALLOWED and node.name not in (accessed if is_method else used)
    ]
    assert not unused, f"defined, but used nowhere outside the unit tests: {unused}"


def _defaulted(node: ast.FunctionDef, is_method: bool) -> dict[str, int | None]:
    """Each defaulted parameter and the position a call passes it at (None:
    keyword only); a method's position counts from the argument after self or
    cls (the package has no static methods)."""
    args = node.args
    positional = args.posonlyargs + args.args
    found = {
        arg.arg: i - is_method
        for i, arg in enumerate(positional)
        if i >= len(positional) - len(args.defaults)
    }
    found.update(
        {arg.arg: None for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default}
    )
    return found


def _set_parameters() -> tuple[dict[str, set], dict[str, float]]:
    """For each callee name: the keywords some call passes it, and the most
    positional arguments one passes (unbounded from a starred one on)."""
    keywords, counts = defaultdict(set), defaultdict(int)
    for tree, _ in _caller_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            counts[name] = max(counts[name], math.inf if starred else len(node.args))
            keywords[name] |= {kw.arg for kw in node.keywords}
    return keywords, counts


def test_every_defaulted_parameter_is_set_outside_its_tests():
    keywords, counts = _set_parameters()
    unset = []
    for module, node, is_method in _public_defs():
        if not isinstance(node, ast.FunctionDef):
            continue
        for param, position in _defaulted(node, is_method).items():
            key = f"{node.name}.{param}"
            by_keyword = param in keywords[node.name]
            by_position = position is not None and position < counts[node.name]
            if not (by_keyword or by_position or key in ALLOWED_PARAMETERS):
                unset.append(f"{module}.{key}")
    assert not unset, f"defaulted, but set by no call outside the unit tests: {unset}"


def test_allowed_names_exist():
    assert set(ALLOWED) <= {node.name for _, node, _ in _public_defs()}
    parameters = {
        f"{node.name}.{param}"
        for _, node, is_method in _public_defs()
        if isinstance(node, ast.FunctionDef)
        for param in _defaulted(node, is_method)
    }
    assert set(ALLOWED_PARAMETERS) <= parameters
