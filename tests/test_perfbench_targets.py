import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def span_targets():
    """TARGETS of perfbench/spans.py, read without importing the harness."""
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS")


@pytest.mark.parametrize("module, attr, span", span_targets())
def test_every_traced_attribute_resolves(module, attr, span):
    # the traced benchmark runs wrap each one with getattr
    assert callable(getattr(importlib.import_module(f"trigcolloc.{module}"), attr))
