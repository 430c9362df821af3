"""Every exported name resolves, and every public function has a direct
definition to be checked against. ``bench/tracer.py`` wraps the functions
listed in each module's ``__all__`` and skips a missing name silently, so a
stale or misplaced entry would drop a layer from the trace unnoticed."""

import importlib
import inspect
import pkgutil
import sys

import pytest

import backproc

from reference import TOLERANCES

MODULES = [importlib.import_module(f"backproc.{info.name}")
           for info in pkgutil.iter_modules(backproc.__path__)]


@pytest.mark.parametrize("module", [backproc, *MODULES], ids=lambda m: m.__name__)
def test_every_exported_name_exists(module):
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_exported_functions_are_defined_where_listed(module):
    functions = {name: getattr(module, name) for name in getattr(module, "__all__", ())
                 if inspect.isfunction(getattr(module, name, None))}
    assert {name: fn.__module__ for name, fn in functions.items()
            if fn.__module__ != module.__name__} == {}


def test_package_functions_are_listed_by_their_defining_module():
    for name in backproc.__all__:
        fn = getattr(backproc, name)
        if inspect.isfunction(fn):
            assert name in sys.modules[fn.__module__].__all__, (name, fn.__module__)


def public_callables(module):
    """(name, object) of each function in the module's ``__all__`` and each
    public method, class method or static method defined by a class there."""
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                fn = getattr(member, "__func__", member)  # classmethod, staticmethod
                if not attr.startswith("_") and inspect.isfunction(fn):
                    yield f"{name}.{attr}", fn


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_callable_has_a_docstring(module):
    assert [name for name, fn in public_callables(module) if not fn.__doc__] == []


def test_docstring_check_covers_the_window_engine():
    from backproc import backward

    assert "WindowEngine.bootstrap" in dict(public_callables(backward))


# public functions with no row in the differential table: file I/O, the
# validator, the study harness, and the simulation law with its oracle,
# which test_simulate.py and test_columnar.py check against reference.py
EXEMPT = {"ingest", "write_cohort", "validate_cohort", "run_study", "true_mean_oracle",
          "generate_cohort"}


def test_every_public_function_has_a_reference_or_is_exempt():
    functions = {name for name in backproc.__all__ if inspect.isfunction(getattr(backproc, name))}
    assert functions - EXEMPT - set(TOLERANCES) == set()
    assert EXEMPT <= functions and not EXEMPT & set(TOLERANCES)
