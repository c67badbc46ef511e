"""Every imported name is referenced by the module that imports it, the
package imports nothing outside the standard library, every private
top-level name of the package is referenced somewhere in it, no
top-level name is defined in two modules of the package, only the search
harness starts worker processes, only the profile, verify and the
landscape and figure commands enumerate the cube, only enumeration and
the family records build a Pareto set, only problems.py names a family or
the blocks' span and only the tests' span helper changes the span, every
library cache is bounded, the naive model in tests/naive.py is independent
of the package and wholly used by the tests, every module parses as the
oldest Python that pyproject.toml admits, and each test name that CI's
memory step selects is defined."""

import ast
import re
import sys
from pathlib import Path

import pytest

from bibench.problems import FAMILY_NAMES

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


def test_every_predicate_is_annotated_to_return_a_bool():
    # An object such as a report is truthy whatever it says, so a caller
    # that writes `if is_...(inst):` would always take the branch.
    returns = {
        func.name: ast.unparse(func.returns) if func.returns else None
        for path in SOURCES
        for func in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(func, ast.FunctionDef) and func.name.startswith("is_")
    }
    assert returns and {name: r for name, r in returns.items() if r != "bool"} == {}


def test_only_the_search_harness_names_a_process_pool():
    # hitting_time_experiment is the one caller that needs workers; every
    # other command runs in one process.
    naming = [p.name for p in SOURCES if "ProcessPoolExecutor" in p.read_text(encoding="utf-8")]
    assert naming == ["evolve.py"]


def test_only_problems_names_the_block_span():
    # The blocks' span is decided in one place: _cells and _split cut the
    # cube by it, and the local-optimum scan takes the width from the blocks
    # it is given.
    naming = [p.name for p in SOURCES if "_SET_BITS" in p.read_text(encoding="utf-8")]
    assert naming == ["problems.py"]


def test_only_problems_names_a_family():
    # Each family is defined in one place, its record: a module that held a
    # family's name, or compared an instance's family, could give that
    # family claims or rules apart from the record.
    naming = set()
    for path in SOURCES:
        if path.name != "problems.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Constant) and node.value in FAMILY_NAMES:
                    naming.add((path.name, node.value))
                elif isinstance(node, ast.Compare):
                    operands = [node.left, *node.comparators]
                    if any(getattr(x, "attr", None) == "family" for x in operands):
                        naming.add((path.name, "family comparison"))
    assert naming == set()


def test_only_the_span_helper_changes_the_span():
    # The cells are kept per automaton whatever the span, so a test that set
    # _SET_BITS other than through planes.at_span, which clears them on entry
    # and on exit, would read cells cut at another span. A change is a patch
    # or setattr given the name as a string, or an assignment to the
    # attribute.
    setters = {"patch", "object", "setattr", "delattr"}
    changing = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                setter = getattr(node.func, "attr", getattr(node.func, "id", None))
                named = [a.value for a in node.args if isinstance(a, ast.Constant)]
                if setter in setters and any(str(v).endswith("_SET_BITS") for v in named):
                    changing.add(path.name)
            elif isinstance(node, ast.Attribute) and node.attr == "_SET_BITS":
                if not isinstance(node.ctx, ast.Load):
                    changing.add(path.name)
    assert changing == {"planes.py"}


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


def test_only_run_verify_and_evaluate_name_the_index_evaluator():
    # index_evaluator maps an index to its objective pair, a Python step per
    # string: the search evaluates its offspring, verify the strings it
    # lists as counterexamples, and evaluate one BitString. Enumeration reads
    # only the automata, so a per-string path cannot come back to it unseen.
    callers = {
        func.name
        for path in SOURCES
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if getattr(node, "id", getattr(node, "attr", None)) == "index_evaluator"
    }
    assert callers == {"run", "verify", "evaluate"}


def test_only_enumeration_and_the_records_build_a_pareto_set():
    # One kernel, _statistic_pairs, selects every Pareto set from pairs of
    # statistics: enumeration's from those its value tables send onto the
    # front, and each record's from the record's pairs. Two records' local
    # optima call it from lambdas in the catalog, which are not function
    # definitions and so are not counted here.
    callers = {
        func.name
        for path in SOURCES
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if getattr(node, "id", getattr(node, "attr", None)) == "_statistic_pairs"
    }
    assert callers == {"_report", "pareto_set"}


def test_every_library_cache_is_bounded():
    # Every functools cache is written lru_cache(maxsize=<int literal>): no
    # functools.cache (no name cache at all), bare lru_cache or
    # maxsize=None, so no module-level cache grows without bound between
    # calls. cached_property keeps a value on one report and is not counted.
    cached = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        owners = {
            id(decorator): func.name
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            for decorator in func.decorator_list
        }
        for node in ast.walk(tree):
            # functools.cache, imported or read as an attribute.
            names = [alias.name for alias in getattr(node, "names", ())]
            name = getattr(node, "id", getattr(node, "attr", None))
            where = (path.name, getattr(node, "lineno", None))
            assert "cache" not in names and name != "cache", where
            if name == "lru_cache":
                call = calls.get(id(node))
                assert call is not None and not call.args, where
                assert [keyword.arg for keyword in call.keywords] == ["maxsize"], where
                bound = call.keywords[0].value
                assert isinstance(bound, ast.Constant) and type(bound.value) is int, where
                cached[owners.get(id(call))] = bound.value
    assert cached == {
        "_step_tables": 128,
        "index_evaluator": 128,
        "_cells": 128,
        "_state_pair_polys": 32,
        "_report": 1,
    }


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


def test_each_name_the_memory_step_selects_is_defined():
    # CI runs the memory tests again, alone, by -k "A or B"; were one name
    # renamed away, the step would pass on the other alone.
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    step = workflow.split("name: the memory tests on their own", 1)[1].split("- name:", 1)[0]
    terms = re.search(r'-k "([^"]+)"', step).group(1).split(" or ")
    defined = {
        node.name
        for path in (ROOT / "tests").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }
    assert sorted(set(terms) - defined) == []
