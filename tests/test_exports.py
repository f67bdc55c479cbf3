"""Names that code outside a module looks up must exist: the attributes the
benchmark tracer wraps, and every name a module exports in ``__all__``."""

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


def test_exported_names_resolve():
    modules = [procure2d] + [
        importlib.import_module(f"procure2d.{info.name}")
        for info in pkgutil.iter_modules(procure2d.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing
