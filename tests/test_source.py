"""Checks on the package source itself."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

import skewtab

SRC = Path(skewtab.__file__).resolve().parent


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
