"""The end-to-end benchmark harness can still wrap what it names.

``benchmarks/e2e/spans.py`` wraps every ``(module, attribute)`` of its
``LAYER_CALLS`` by name when a run is traced, and fails when one is
missing.  This test reads that table from the file (it imports nothing
from the harness) and resolves every entry, so a change that breaks
traced benchmark runs fails here too.
"""

from __future__ import annotations

import ast
import importlib
from operator import attrgetter
from pathlib import Path

SPANS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "spans.py"


def _layer_calls() -> tuple:
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "LAYER_CALLS"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_CALLS in {SPANS}")


def test_every_wrapped_layer_call_resolves():
    calls = _layer_calls()
    assert calls
    for module_name, attribute, _span in calls:
        module = importlib.import_module(module_name)
        assert callable(attrgetter(attribute)(module)), \
            f"{module_name}.{attribute}"
