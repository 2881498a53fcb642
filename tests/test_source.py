"""Checks on the package source itself."""

import ast
import importlib.util
import sys
from graphlib import TopologicalSorter
from pathlib import Path

import pytest

import skewtab

SRC = Path(skewtab.__file__).resolve().parent
TRACING = SRC.parents[1] / "bench" / "tracing.py"


def test_no_assert_statements():
    # `python -O` strips asserts, so invariants must be checked by explicit
    # raises; this keeps an assert from creeping back in as the only guard
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def _relative_imports(node, in_function=False):
    """Yield (import, inside a function) for every relative import under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ImportFrom) and child.level:
            yield child, in_function
        nested = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        yield from _relative_imports(child, in_function or nested)


def test_package_imports_at_module_level_and_acyclic():
    # an import inside a function hides a dependency, often one that would
    # close a cycle; every package import sits in a module header instead,
    # and the modules import each other in one order
    modules = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    inside, graph = [], {}
    for name, tree in modules.items():
        graph[name] = deps = set()
        for node, in_function in _relative_imports(tree):
            if in_function:
                inside.append(f"{name}.py:{node.lineno}")
            elif node.module:
                deps.add(node.module.split(".")[0])
            else:  # from . import a, b
                deps.update(alias.name for alias in node.names)
    assert inside == []
    assert set().union(*graph.values()) <= set(modules)
    # raises graphlib.CycleError, naming the cycle, if there is one
    tuple(TopologicalSorter(graph).static_order())
    assert graph["cli"] >= {"asymptotics", "bounds", "exact", "excited", "verify"}


def test_package_needs_only_the_standard_library():
    # the runtime dependency list is empty; an import anywhere, even inside a
    # function, is relative or names a standard-library module
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []


def test_benchmark_tracer_names_resolve():
    # a traced benchmark run wraps every name in TRACED and crashes on one
    # that has gone; tracing.py imports only the standard library
    if not TRACING.is_file():
        pytest.skip("no bench/ next to the package source")
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for mod_name, attr, _ in tracing.TRACED:
        owner = importlib.import_module(f"skewtab.{mod_name}")
        for part in attr.split("."):  # ShapeFamily.build is a method
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{mod_name}.{attr}")
    assert missing == []


def test_every_parameter_is_read():
    # a parameter that its function never reads is an option that does
    # nothing; a read in a nested function or lambda counts
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                sub.id
                for stmt in body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            found += [
                f"{path.name}:{node.lineno} {p.arg}"
                for p in params
                if p is not None and p.arg not in read
            ]
    assert found == []
