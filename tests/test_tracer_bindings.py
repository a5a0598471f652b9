"""The benchmark's span tracer wraps ``cho`` functions by dotted name.

A renamed or removed function would silently drop its per-layer metric
from a traced benchmark run; here it fails at once.  Importing the tracer
module has no side effects (``Tracer.install`` is explicit).
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def resolve(module, qualname):
    obj = importlib.import_module(module)
    for attr in qualname.split("."):
        obj = getattr(obj, attr, None)
    return obj


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves_to_a_callable():
    tracer = load_tracer()
    names = [(module, qualname)
             for module, targets in tracer.CHO_TARGETS.items() for qualname in targets]
    assert names
    unresolved = [f"{module}.{qualname}" for module, qualname in names
                  if not callable(resolve(module, qualname))]
    assert not unresolved, f"traced names missing from cho: {unresolved}"


def test_verify_checks_are_a_flat_tuple_of_the_traced_functions():
    # The tracer rewraps functions inside flat module tuples only, and
    # names each check's metric after the name the check reports.
    from cho import verify

    targets = load_tracer().CHO_TARGETS["cho.verify"]
    checks = verify.ALL_CHECKS
    assert isinstance(checks, tuple)
    assert all(inspect.isfunction(check) for check in checks)
    assert {check.__name__: f"verify.check_s.{check.name}" for check in checks} == targets
