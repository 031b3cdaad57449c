"""The public surface: what ``__all__`` lists exists, and is defined there."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import nrayleigh

MODULES = ("cli", "fading", "moments", "montecarlo", "schemes", "validation")
# The modules whose public names the package re-exports.
LIBRARY_MODULES = ("fading", "moments", "montecarlo", "schemes")
REMOVED = (
    "AsymptoticForm",
    "CriterionResult",
    "ValidationConfig",
    "MomentsAfEstimate",
    "estimate_moments_af",
    "moment_tas_mrc",
    "moment_tas_sc",
    "postproc_cdf",
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


def test_top_level_is_version_plus_the_library_modules_all():
    # Each module's ``__all__`` is the one list of its public names; the
    # package re-exports exactly those, each as the module's own object,
    # and leaves validation and cli off the top level.
    expected = ["__version__"]
    for module_name in LIBRARY_MODULES:
        module = importlib.import_module(f"nrayleigh.{module_name}")
        expected += module.__all__
        for name in module.__all__:
            assert getattr(nrayleigh, name) is getattr(module, name), name
    assert len(set(expected)) == len(expected)
    assert sorted(nrayleigh.__all__) == sorted(expected)


def test_fading_params_holds_only_the_fit():
    assert [f.name for f in dataclasses.fields(nrayleigh.FadingParams)] == ["m", "omega"]


def test_import_leaves_scipy_integrate_and_optimize_unloaded():
    # Every command pays for what ``import nrayleigh.cli`` loads; the moment
    # oracle is built on scipy.special alone, and scipy.integrate would add
    # ~0.3 s of start-up with scipy.optimize, scipy.linalg and scipy.sparse.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(nrayleigh.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    probe = (
        "import sys, nrayleigh, nrayleigh.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['scipy', 'integrate'], ['scipy', 'optimize'])))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
