"""Every name the benchmark in ``perfbench/`` and the scripts in
``demos/`` use still exists, and every name the package exports has a
caller.

The benchmark's trace mode wraps functions by name, and its workloads
and checks call the package through ``gw.<name>``.  Some demos are slow
and run only outside tier-1.  A rename or a deletion in ``gwreduced``
should fail here rather than there.  An export that only tests call is
a second route to something, or a route nothing takes.
"""

import ast
import importlib
import importlib.util
import pathlib

import pytest

import gwreduced

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))
DEMOS = sorted((PERFBENCH.parent / "demos").glob("*.py"))
PACKAGE = sorted((PERFBENCH.parent / "src" / "gwreduced").glob("*.py"))


def _package_names(path):
    """(module, name) of every package attribute the file reaches by name:
    ``from gwreduced[.mod] import name`` and ``gw.name`` after
    ``import gwreduced as gw``."""
    tree = ast.parse(path.read_text())
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "gwreduced"
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "gwreduced"
        ):
            for alias in node.names:
                yield node.module, alias.name
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            yield "gwreduced", node.attr


def test_benchmark_sources_found():
    assert {"tracer.py", "workloads.py", "checks.py"} <= {p.name for p in SOURCES}
    assert {"02_population_series.py", "05_mrca_distance.py"} <= {
        p.name for p in DEMOS
    }


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for span_name, owner, attr in tracer.TARGETS:
        assert callable(getattr(owner, attr)), span_name


def _unresolved(path):
    return [
        f"{module}.{name}"
        for module, name in _package_names(path)
        if not hasattr(importlib.import_module(module), name)
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_names_used_by_benchmark_resolve(path):
    assert _unresolved(path) == []


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_package_names_used_by_demos_resolve(path):
    assert _unresolved(path) == []


def test_all_names_resolve():
    missing = [name for name in gwreduced.__all__ if not hasattr(gwreduced, name)]
    assert missing == []


def _names_read(path):
    """Every name a package module reads, apart from the reads of a
    top-level definition's own name inside it."""
    for statement in ast.parse(path.read_text()).body:
        own = getattr(statement, "name", None)
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id != own:
                    yield node.id


def test_every_exported_name_has_a_caller():
    reached = {
        name
        for path in PACKAGE
        if path.name != "__init__.py"
        for name in _names_read(path)
    }
    reached |= {name for path in SOURCES + DEMOS for _, name in _package_names(path)}
    assert [name for name in gwreduced.__all__ if name not in reached] == []
