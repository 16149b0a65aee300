"""The names the benchmark's tracer wraps must exist in the package.

``perfbench/tracer.py`` looks its spans up by name when ``--trace 1``
installs it; a function, method or measure class renamed or deleted in
``fuzzyrough`` would break traced runs without failing any other test, and
a measure class bound under two names would have its calls counted twice.
"""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = load_tracer()
    for mod, names in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"fuzzyrough.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"fuzzyrough.{mod}.{name}"
    for span, (mod, cls, attr) in tracer.METHODS.items():
        owner = getattr(importlib.import_module(f"fuzzyrough.{mod}"), cls, None)
        assert owner is not None and attr in vars(owner), span
    measures = importlib.import_module("fuzzyrough.measures")
    for kind in tracer.MEASURE_KINDS:
        cls = getattr(measures, kind, None)
        assert isinstance(cls, type) and issubclass(cls, measures.MonotoneMeasure), kind


def test_each_measure_class_has_one_name_in_its_module():
    # the tracer wraps chain_values once per module name bound to a class, so a
    # second name would count every call twice
    measures = importlib.import_module("fuzzyrough.measures")
    bound = [value for value in vars(measures).values() if isinstance(value, type)
             and issubclass(value, measures.MonotoneMeasure)]
    assert len(bound) == len(set(bound))
