"""Every imported name is referenced by the module that imports it, the
package imports nothing outside the standard library, every private
top-level name of the package is referenced somewhere in it, no
top-level name is defined in two modules of the package, only the search
harness starts worker processes, only the profile, verify and the
landscape and figure commands enumerate the cube, only enumeration and
the family records build a Pareto set, the naive model in
tests/naive.py is independent of the package and wholly used by the tests,
and every module parses as the oldest Python that pyproject.toml admits."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# A package __init__ imports names to export them, so it is not scanned.
MODULES = [p for p in sorted((ROOT / "src" / "bibench").glob("*.py")) if p.name != "__init__.py"]
MODULES += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


SOURCES = sorted((ROOT / "src" / "bibench").glob("*.py"))
NAIVE = ROOT / "tests" / "naive.py"


@pytest.mark.parametrize("path", SOURCES + [NAIVE], ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    # pyproject.toml declares no dependencies, so nothing may need one. The
    # naive model imports nothing from the package it checks.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    tops = {module.split(".")[0] for module in modules}
    allowed = sys.stdlib_module_names | ({"bibench"} if path in SOURCES else set())
    assert sorted(tops - allowed) == []


def top_level_names(tree):
    """Names a module defines at top level: functions, classes and plain
    assignment targets."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_no_unreferenced_private_names():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    defined = {name for tree in trees for name in top_level_names(tree)}
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(private - used) == []


def test_each_top_level_name_is_defined_once():
    owners = {}
    for path in SOURCES:
        if path.name != "__init__.py":
            for name in top_level_names(ast.parse(path.read_text(encoding="utf-8"))):
                owners.setdefault(name, set()).add(path.name)
    assert {name: sorted(paths) for name, paths in owners.items() if len(paths) > 1} == {}


def test_only_the_search_harness_names_a_process_pool():
    # hitting_time_experiment is the one caller that needs workers; every
    # other command runs in one process.
    naming = [p.name for p in SOURCES if "ProcessPoolExecutor" in p.read_text(encoding="utf-8")]
    assert naming == ["evolve.py"]


def test_only_the_profile_verify_and_two_commands_enumerate():
    # Each enters enumeration once; the other predicates read the automata
    # or the image they count, so they answer beyond the cap.
    callers = {
        func.name
        for path in SOURCES
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if getattr(node, "id", getattr(node, "attr", None)) == "enumerate_landscape"
    }
    assert callers == {"characteristic_profile", "verify", "cmd_landscape", "cmd_figure"}


def test_only_enumeration_and_the_records_build_a_pareto_set():
    # One kernel selects every Pareto set from pairs of statistics:
    # enumeration's from those its value tables send onto the front, each
    # record's, and two records' local optima, from the record's pairs.
    callers = {
        func.name
        for path in SOURCES
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if getattr(node, "id", getattr(node, "attr", None)) == "_pair_bits"
    }
    assert callers == {"_report", "_statistic_pairs"}


def test_every_naive_name_is_used_by_a_test():
    naive = ast.parse(NAIVE.read_text(encoding="utf-8"))
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in (ROOT / "tests").glob("test_*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert sorted(set(top_level_names(naive)) - used) == []


OLDEST_PYTHON = tuple(
    int(part)
    for part in re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$',
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"),
        re.MULTILINE,
    ).groups()
)


@pytest.mark.parametrize(
    "path",
    SOURCES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_parses_as_the_oldest_supported_python(path):
    ast.parse(path.read_text(encoding="utf-8"), feature_version=OLDEST_PYTHON)
