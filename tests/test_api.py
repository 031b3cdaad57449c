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


# The private names that one module of the package takes from another, as
# (taker, module, name).  Each is deliberate: ``moments`` builds its sums on
# the analytics' own incomplete gamma and law, and c01 judges the incomplete
# gamma through the call the analytics make.
CROSS_MODULE_PRIVATE_NAMES = {
    ("moments", "schemes", "_ln_reg_lower_gamma"),
    ("moments", "schemes", "_shape_exponent_scale"),
    ("validation", "schemes", "_ln_reg_lower_gamma"),
}


def is_private(name):
    return name.startswith("_") and not name.endswith("__")


def private_names_taken(path, modules):
    """(module, name) of each private name that the source at ``path`` takes
    from a module of ``modules`` (the package's), by ``from .module import
    _name`` or as ``module._name`` with ``module`` bound by an import."""
    tree = ast.parse(path.read_text())
    bound, taken = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "nrayleigh" and module in modules and alias.asname:
                    bound[alias.asname] = module
        elif isinstance(node, ast.ImportFrom):
            # The module read from, relative to the package: "" for the package.
            head, _, rest = (node.module or "").partition(".")
            source = None
            if node.level == 1:
                source = node.module or ""
            elif node.level == 0 and head == "nrayleigh":
                source = rest
            if source == "":
                bound.update((a.asname or a.name, a.name) for a in node.names if a.name in modules)
            elif source in modules:
                taken.update((source, a.name) for a in node.names if is_private(a.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and is_private(node.attr)):
            taken.add((bound[node.value.id], node.attr))
    return taken


def test_modules_take_only_the_deliberate_private_names_from_each_other():
    # A private helper that another module calls is an API without the
    # name: it either gets a public home or stays on this short list.
    sources = list(Path(nrayleigh.__file__).parent.glob("*.py"))
    modules = {path.stem for path in sources}
    taken = {
        (path.stem, module, name)
        for path in sources for module, name in private_names_taken(path, modules)
        if module != path.stem
    }
    assert taken == CROSS_MODULE_PRIVATE_NAMES


def test_fading_params_holds_only_the_fit():
    assert [f.name for f in dataclasses.fields(nrayleigh.FadingParams)] == ["m", "omega"]


def child_stdout(code):
    """What a fresh interpreter, with this package on its path, prints for ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(nrayleigh.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    return result.stdout


def test_import_leaves_scipy_integrate_and_optimize_unloaded():
    # Every command pays for what ``import nrayleigh.cli`` loads.  The moment
    # oracle is built on scipy.special's scalar kernels alone: scipy.integrate
    # would add ~0.3 s of start-up with scipy.optimize, scipy.linalg and
    # scipy.sparse, and scipy.special's package init ~0.3 s with numpy.f2py
    # and numpy.testing, so ``schemes`` loads cython_special without it.
    probe = (
        "import sys, nrayleigh, nrayleigh.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['scipy', 'integrate'], ['scipy', 'optimize'], ['scipy', 'special'], "
        "['numpy', 'f2py'], ['numpy', 'testing'])))"
    )
    assert child_stdout(probe).strip() == "[]"


# Float bits of outages on both branches of ln P (gammainc, gammaincc) and
# of required-SNR solves (gammaincinv), and whether scipy.special got imported.
ANALYTIC_BITS = """
import sys
from nrayleigh import ChannelConfig, OutageQuery, Scheme, outage, required_snr
query = OutageQuery(threshold=1.0)
for n, mean_snr in ((1, 0.5), (2, 10.0), (5, 1e4)):
    cfg = ChannelConfig(n=n, n_t=2, n_r=3, mean_snr=mean_snr)
    for scheme in Scheme:
        print(outage(scheme, query, cfg).hex(), required_snr(scheme, 1e-6, query, cfg).hex())
print("scipy.special" in sys.modules)
"""


def test_cython_special_fallback_gives_the_same_bits():
    # A scipy layout the stand-in cannot serve takes the plain import.
    stand_in = child_stdout(ANALYTIC_BITS).splitlines()
    refused = (
        "import importlib.util\n"
        "def find_spec(*args, **kwargs):\n"
        "    raise ImportError('no spec')\n"
        "importlib.util.find_spec = find_spec\n"
    )
    plain = child_stdout(refused + ANALYTIC_BITS).splitlines()
    assert (stand_in.pop(), plain.pop()) == ("False", "True")
    assert stand_in == plain


def test_later_scipy_special_import_is_the_real_package():
    probe = """
import sys
from nrayleigh import schemes
import scipy.special
from scipy.special import cython_special
args = [(0.5, 1e-3), (2.5, 1.3), (6.0, 40.0), (12.0, 3.0)]
print(
    scipy.special is sys.modules["scipy.special"],
    cython_special is scipy.special.cython_special is schemes.cython_special,
    all(float(scipy.special.gammainc(a, x)).hex() == schemes.cython_special.gammainc(a, x).hex()
        and float(scipy.special.gammaincinv(a, x / 50)).hex()
        == schemes.cython_special.gammaincinv(a, x / 50).hex() for a, x in args),
)
"""
    assert child_stdout(probe).split() == ["True"] * 3


def test_thread_importing_scipy_special_meanwhile_gets_the_real_package():
    # A meta-path hook starts the second thread while the stand-in is in
    # sys.modules and lets it run for 0.5 s: it waits on scipy.special's
    # module lock, then imports the real package.  Without the lock, the
    # initializing mark or the forwarding of the stand-in's attributes, its
    # ``from scipy.special import gammainc`` raises ImportError.
    probe = """
import sys, threading, time
got = []
def second():
    from scipy.special import gammainc
    import scipy.special
    got.append((gammainc, scipy.special))
thread = threading.Thread(target=second)
class Hook:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "scipy.special.cython_special" and thread.ident is None:
            assert "gammainc" not in vars(sys.modules["scipy.special"])
            thread.start()
            time.sleep(0.5)
sys.meta_path.insert(0, Hook)
import nrayleigh.cli
thread.join(60)
gammainc, special = got[0]
real = sys.modules["scipy.special"]
print(thread.is_alive(), special is real, gammainc is real.gammainc, hasattr(real, "gamma"))
"""
    assert child_stdout(probe).split() == ["False", "True", "True", "True"]
