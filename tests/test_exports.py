"""Names that code outside a module looks up must exist: the attributes the
benchmark tracer wraps, and every name a module exports in ``__all__``; the
package exports exactly what its modules do."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import procure2d

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def test_traced_attributes_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracer.WRAPPED
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert tracer.WRAPPED and not missing


def submodules():
    return [
        importlib.import_module(f"procure2d.{info.name}")
        for info in pkgutil.iter_modules(procure2d.__path__)
    ]


def test_exported_names_resolve():
    modules = [procure2d] + submodules()
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing


def test_package_exports_the_union_of_its_modules():
    union = {name for module in submodules() for name in getattr(module, "__all__", ())}
    assert sorted(procure2d.__all__) == sorted(union)
    assert len(procure2d.__all__) == len(set(procure2d.__all__))
