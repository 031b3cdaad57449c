"""The public surface: what ``__all__`` lists exists, and is defined there."""

import ast
import importlib
import inspect

import nrayleigh

MODULES = ("cli", "fading", "moments", "montecarlo", "schemes", "validation")
REMOVED = (
    "MomentsAfEstimate",
    "estimate_moments_af",
    "moment_tas_mrc",
    "moment_tas_sc",
    "validate_cascade_order",
)


def top_level_names(module):
    """Names bound by the module's own top-level statements, not imports."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_every_exported_name_resolves_and_is_defined_where_it_is_listed():
    # perfbench/tracer.py wraps each layer's ``__all__`` through
    # getattr(..., None), so a stale entry would silently lose its span.
    assert [name for name in nrayleigh.__all__ if not hasattr(nrayleigh, name)] == []
    for module_name in MODULES:
        module = importlib.import_module(f"nrayleigh.{module_name}")
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], module_name
        assert set(module.__all__) <= top_level_names(module), module_name
    for name in REMOVED:
        assert not hasattr(nrayleigh, name), name
        for module_name in MODULES:
            assert not hasattr(importlib.import_module(f"nrayleigh.{module_name}"), name)
