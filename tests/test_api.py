"""API guards: ``seriesmine.__all__`` is exactly what the package exposes, and
every internal name the benchmark's tracer binds still exists."""

import importlib
import importlib.util
import types
from pathlib import Path

import seriesmine


def test_all_names_resolve():
    missing = [name for name in seriesmine.__all__ if not hasattr(seriesmine, name)]
    assert missing == []


def test_no_public_name_outside_all():
    exposed = {name for name, value in vars(seriesmine).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(exposed - set(seriesmine.__all__)) == []
    assert len(seriesmine.__all__) == len(set(seriesmine.__all__))


def test_tracer_bindings_resolve():
    # perfbench/tracer.py wraps package names from outside; a renamed one
    # would only show up as "not traced (missing)" in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracer.FUNCTIONS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    missing += [f"{mod}.{cls}.{attr}" for mod, cls, attr, _ in tracer.METHODS
                if not callable(getattr(getattr(importlib.import_module(mod), cls, None),
                                        attr, None))]
    if not callable(getattr(importlib.import_module("seriesmine.cli"), "RunTrace", None)):
        missing.append("seriesmine.cli.RunTrace")
    assert missing == []
