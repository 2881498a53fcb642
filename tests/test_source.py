"""Checks on the package source itself."""

import ast
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
