"""The names the benchmark's tracer wraps must exist in the package.

perfbench/tracer.py wraps package functions and methods by name to take its
per-layer metrics; a renamed or deleted target would only show up in a traced
benchmark run.  This test loads the tracer by path and resolves every target.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_the_package():
    tracer = _load_tracer()
    for mod, attr in tracer.FUNCTIONS:
        module = importlib.import_module(f"superspecial.{mod}")
        assert callable(getattr(module, attr, None)), f"{mod}.{attr}"
    for mod, cls_name, attr in tracer.METHODS:
        cls = getattr(importlib.import_module(f"superspecial.{mod}"), cls_name, None)
        assert cls is not None, f"{mod}.{cls_name}"
        assert callable(vars(cls).get(attr)), f"{mod}.{cls_name}.{attr}"


def test_every_acceptance_criterion_is_traced():
    tracer = _load_tracer()
    acceptance = importlib.import_module("superspecial.acceptance")
    traced = {int(m.group(1)) for name in vars(acceptance)
              if (m := tracer._CRITERION.match(name)) and callable(getattr(acceptance, name))}
    assert traced == set(range(1, 10))
