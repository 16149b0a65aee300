"""The names the benchmark's tracer wraps must exist in the package.

``perfbench/tracer.py`` looks its spans up by name when ``--trace 1``
installs it; a function, method or measure class renamed or deleted in
``fuzzyrough`` would break traced runs without failing any other test, and
a measure class bound under two names would have its calls counted twice.
The same holds for the names ``perfbench/workloads.py`` reads from the
package in its workload bodies.
"""

import ast
import importlib
import os

from tests.scripts import ROOT, load_script


def load_tracer():
    return load_script("perfbench/tracer.py", "perfbench_tracer")


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


def test_workload_bodies_read_existing_names():
    # the workload bodies call the library as fr.<name> and approx.<name>; a
    # name renamed or deleted in the package would break only the benchmark run
    with open(os.path.join(ROOT, "perfbench", "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    modules = {"fr": importlib.import_module("fuzzyrough"),
               "approx": importlib.import_module("fuzzyrough.approx")}
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {alias for alias, _ in read} == set(modules)
    missing = [f"{alias}.{name}" for alias, name in sorted(read)
               if not hasattr(modules[alias], name)]
    assert not missing


def test_each_measure_class_has_one_name_in_its_module():
    # the tracer wraps chain_values once per module name bound to a class, so a
    # second name would count every call twice
    measures = importlib.import_module("fuzzyrough.measures")
    bound = [value for value in vars(measures).values() if isinstance(value, type)
             and issubclass(value, measures.MonotoneMeasure)]
    assert len(bound) == len(set(bound))
