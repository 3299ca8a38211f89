"""The traced benchmark patches prelie functions by name; every name must resolve.

`bench/tracer.py` lists in `TRACED` the functions it wraps, by defining
module.  A rename in the library would break the traced benchmark run, so
each name is looked up here the way `Tracer.install` looks it up: a module
attribute, or ``Class.method`` in the class ``__dict__``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _resolves(layer: str, qualname: str) -> bool:
    module = importlib.import_module(f"prelie.{layer}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        return callable(getattr(module, cls_name, object).__dict__.get(attr))
    return callable(getattr(module, qualname, None))


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(layer, name) for layer, names in tracer.TRACED.items() for name in names]
    assert len(names) > 50
    assert [f"{layer}.{name}" for layer, name in names if not _resolves(layer, name)] == []
