"""The benchmark's traced names still exist in the package.

``perfbench/child.py`` wraps public functions by name; a name it cannot
find is skipped silently, so its metrics would vanish rather than fail.
The table is read with ``ast`` so that the benchmark file is neither run
nor changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def traced_names() -> list[tuple[str, str]]:
    tree = ast.parse(CHILD.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            table = ast.literal_eval(node.value)
            return [(mod, name) for mod, names in table.items() for name in names]
    raise AssertionError(f"no TRACED table in {CHILD}")


@pytest.mark.parametrize("module, name", traced_names())
def test_traced_name_resolves_to_a_callable(module, name):
    obj = importlib.import_module(f"walkup.{module}")
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
