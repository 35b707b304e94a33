"""Every function the benchmark traces still exists under the name it traces.

perfbench/spans.py wraps the functions it lists, by module and name, in every
triortho namespace that bound them.  A deleted or renamed function would
drop out of a traced pass without an error, so the names are checked here,
read from the file's SPANNED and COUNTED literals without importing it.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names():
    tree = ast.parse(SPANS.read_text())
    tables = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED")
    }
    assert sorted(tables) == ["COUNTED", "SPANNED"]
    return [(module, name) for table in tables.values() for module, names in table.items() for name in names]


@pytest.mark.parametrize("module, name", traced_names())
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"triortho.{module}"), name, None))
