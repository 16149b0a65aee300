"""The benchmark's tracer sees properly nested spans while kernels split by rows.

``perfbench/tracer.py`` keeps one stack of open spans and takes a span's
self time as its duration minus its children's, which holds only if spans
open and close on one thread. The kernels that ``rows.over_row_ranges``
splits call no traced function from their helper threads, so with every
call split the spans must still nest: each inside its parent's interval,
and siblings one after another, all opened by the main thread.
"""

import os
import sys
import threading

import numpy as np
import pytest

import fuzzyrough as fr
from fuzzyrough import classifier, rows
from tests.scripts import load_script


@pytest.fixture
def tracer():
    """The tracer installed in this process, and every wrapped name restored after.

    ``opened_on`` lists the thread that opened each span.
    """
    modules = [m for name, m in sys.modules.items()
               if name == "fuzzyrough" or name.startswith("fuzzyrough.")]
    classes = {value for m in modules for value in vars(m).values()
               if isinstance(value, type) and value.__module__.startswith("fuzzyrough")}
    saved = [(owner, dict(vars(owner))) for owner in (*modules, *classes)]
    traced = load_script("perfbench/tracer.py", "perfbench_tracer").Tracer()
    traced.opened_on = []
    span = traced._span  # what install() binds into every wrapper

    def recorded(*args):
        traced.opened_on.append(threading.get_ident())
        return span(*args)

    traced._span = recorded
    traced.install()
    try:
        yield traced
    finally:
        for owner, attrs in saved:
            for name, value in attrs.items():
                if vars(owner).get(name) is not value:
                    setattr(owner, name, value)


def test_spans_nest_on_one_thread_with_every_kernel_split(tracer, monkeypatch):
    monkeypatch.setattr(rows, "PARALLEL_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2000, 10))
    y = np.where(X[:, 0] + rng.normal(size=2000) > 0, "a", "b").astype(object)
    ds = fr.DecisionSystem(tuple(f"a{j}" for j in range(10)), X, y)
    model = fr.fit(ds, fr.AggregatorSpec(kind="wowa"))
    monkeypatch.setattr(rows, "_pool", None)
    try:
        classifier.predict_batch(model, rng.normal(size=(200, 10)))
        assert rows._pool is not None  # the kernels did split
    finally:
        if rows._pool is not None:
            rows._pool.shutdown(wait=True)

    names = [tracer.names[i] for i in tracer.name_id]
    assert set(tracer.opened_on) == {threading.main_thread().ident}
    # the similarity blocks are built inside predict_batch's span
    assert "outliers.lof_scores" in names and "classifier.predict_batch" in names
    start, end, parent = list(tracer.start), list(tracer.end), list(tracer.parent)
    assert all(s <= e for s, e in zip(start, end))
    children: dict = {}
    for i, p in enumerate(parent):
        if p >= 0:
            assert start[p] <= start[i] and end[i] <= end[p], (names[i], names[p])
        children.setdefault(p, []).append(i)
    for siblings in children.values():
        siblings.sort(key=lambda i: start[i])
        for a, b in zip(siblings, siblings[1:]):
            assert end[a] <= start[b], (names[a], names[b])
