"""The benchmark's span tracer wraps ``cho`` functions by dotted name.

A renamed or removed function would silently drop its per-layer metric
from a traced benchmark run; here it fails at once.  Importing the tracer
module has no side effects (``Tracer.install`` is explicit).
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def resolve(module, qualname):
    obj = importlib.import_module(module)
    for attr in qualname.split("."):
        obj = getattr(obj, attr, None)
    return obj


def test_every_traced_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(module, qualname)
             for module, targets in tracer.CHO_TARGETS.items() for qualname in targets]
    assert names
    unresolved = [f"{module}.{qualname}" for module, qualname in names
                  if not callable(resolve(module, qualname))]
    assert not unresolved, f"traced names missing from cho: {unresolved}"
