"""Spans around the public functions of fuzzyrough, installed from outside.

The package binds names with ``from .x import y``, so a function is wrapped
wherever it is looked up: every attribute of a fuzzyrough module that is the
original function object is replaced by the wrapper. Methods are wrapped on
the class that defines them; ``chain_values`` spans are keyed by the concrete
measure class, and a measure's ``__init__`` is one ``measures.construct``
span however many base-class initialisers it runs.

Spans (name, start, end, parent) stay in memory as flat arrays and are
written out when the run ends. A span's self time is its duration minus the
durations of its child spans; calls nest on one thread, so the children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

FUNCTIONS = {
    "approx": ("similarity_matrix", "similarity_to_test", "lower_approximation",
               "upper_approximation"),
    "outliers": ("scored_with_labels", "lof_scores"),
    "classifier": ("fit", "comb_select", "predict_batch", "predict", "class_memberships",
                   "aggregate"),
    "choquet": ("choquet_integral", "owa_values"),
    "quantifiers": ("weights_from_quantifier",),
    "connectives": ("tnorm_eval", "implicator_eval"),
    "evaluation": ("run_benchmark", "balanced_accuracy", "wilcoxon_signed_rank",
                   "write_report_csvs"),
    "data": ("ingest_csv", "load_features"),
    "cli": ("main",),
}
METHODS = {  # span name -> (module, class, attribute)
    "quantifiers.RIMQuantifier.call": ("quantifiers", "RIMQuantifier", "__call__"),
    "data.DecisionSystem.subset": ("data", "DecisionSystem", "subset"),
}
MEASURE_KINDS = ("SymmetricMeasure", "AdditiveMeasure", "DualMeasure", "WowaMeasure",
                 "OrderedTwoSymmetricMeasure", "PartialUniversalMeasure",
                 "PartialExistentialMeasure", "FuzzyRemovalMeasure")
CONSTRUCT = "measures.construct"


def span_names():
    names = [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
    names += list(METHODS)
    names.append(CONSTRUCT)
    names += [f"measures.{kind}.chain_values" for kind in MEASURE_KINDS]
    return names


# Derived per-layer metrics: name -> unit. The byte counts are computed from
# the arguments (the program allocates them), not measured.
DERIVED = {
    "approx.similarity_to_test.calls_per_test_row": "calls/row",
    "classifier.aggregate.calls_per_label": "calls/label",
    "outliers.lof_scores.tensor_bytes": "bytes-computed",
    "evaluation.wilcoxon_signed_rank.table_bytes": "bytes-computed",
}


def layer_metric_units():
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    return units


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.tensor_bytes = 0  # sum of n^2 * m * 8 over lof_scores calls
        self.table_bytes = 0  # largest 2^m * 4 exact Wilcoxon sign table
        self.loo_labels = 0  # labels comb_select predicts with one row left out
        self.exact_wilcoxon_limit = 0
        for name in span_names():
            self._id(name)

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, nid, fn, args, kwargs):
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter_ns()
            self.stack.pop()

    def _wrap(self, fn, name, hook=None):
        nid = self._id(name)
        span = self._span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            return span(nid, fn, args, kwargs)
        return traced

    def _wrap_chain_values(self, fn):
        ids = {}
        span = self._span

        @functools.wraps(fn)
        def traced(mu, *args, **kwargs):
            kind = type(mu)
            if kind not in ids:
                ids[kind] = self._id(f"measures.{kind.__name__}.chain_values")
            return span(ids[kind], fn, (mu, *args), kwargs)
        return traced

    def _wrap_construct(self, init):
        nid = self._id(CONSTRUCT)
        span = self._span
        stack, name_id = self.stack, self.name_id

        @functools.wraps(init)
        def traced(mu, *args, **kwargs):
            top = stack[-1]
            if top >= 0 and name_id[top] == nid:  # base-class or inner measure init
                return init(mu, *args, **kwargs)
            return span(nid, init, (mu, *args), kwargs)
        return traced

    # hooks: run before the span opens, so they never count as its self time

    def _lof_hook(self, points, k):
        shape = np.shape(points)
        n, m = shape[0], (shape[1] if len(shape) > 1 else 1)
        self.tensor_bytes += n * n * m * 8

    def _wilcoxon_hook(self, a, b):
        d = np.asarray(a, dtype=float).ravel() - np.asarray(b, dtype=float).ravel()
        m = int(np.count_nonzero(d))
        if 0 < m <= self.exact_wilcoxon_limit:
            self.table_bytes = max(self.table_bytes, (1 << m) * 4)

    def _comb_hook(self, ds_train, candidate_specs, *args, **kwargs):
        self.loo_labels += ds_train.n * len(candidate_specs)

    def install(self):
        """Wrap every traced function, method and measure initialiser."""
        for mod in FUNCTIONS:
            importlib.import_module(f"fuzzyrough.{mod}")
        package = [m for name, m in sys.modules.items()
                   if name == "fuzzyrough" or name.startswith("fuzzyrough.")]
        measures = sys.modules["fuzzyrough.measures"]
        self.exact_wilcoxon_limit = sys.modules["fuzzyrough.evaluation"].EXACT_WILCOXON_LIMIT
        hooks = {"outliers.lof_scores": self._lof_hook,
                 "evaluation.wilcoxon_signed_rank": self._wilcoxon_hook,
                 "classifier.comb_select": self._comb_hook}

        for mod, fns in FUNCTIONS.items():
            for fn in fns:
                original = getattr(sys.modules[f"fuzzyrough.{mod}"], fn)
                wrapped = self._wrap(original, f"{mod}.{fn}", hooks.get(f"{mod}.{fn}"))
                for module in package:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
        for name, (mod, cls, attr) in METHODS.items():
            owner = getattr(sys.modules[f"fuzzyrough.{mod}"], cls)
            setattr(owner, attr, self._wrap(getattr(owner, attr), name))
        for cls in vars(measures).values():
            if isinstance(cls, type) and issubclass(cls, measures.MonotoneMeasure):
                if "chain_values" in vars(cls) and cls is not measures.MonotoneMeasure:
                    cls.chain_values = self._wrap_chain_values(vars(cls)["chain_values"])
                if "__init__" in vars(cls):
                    cls.__init__ = self._wrap_construct(vars(cls)["__init__"])

    def layer_metrics(self, test_rows):
        """Per-layer metrics: calls and self time per span name, plus derived."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = (np.frombuffer(self.end, dtype=np.int64)
                    - np.frombuffer(self.start, dtype=np.int64)).astype(float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=name_id.size)
        own = duration - child
        calls = np.bincount(name_id, minlength=len(self.names))
        self_ns = np.bincount(name_id, weights=own, minlength=len(self.names))
        metrics = {}
        for name in span_names():
            i = self._ids[name]
            metrics[f"{name}.calls"] = int(calls[i])
            metrics[f"{name}.self_s"] = float(self_ns[i]) / 1e9
        sim = metrics["approx.similarity_to_test.calls"]
        labels = metrics["classifier.predict.calls"] + self.loo_labels
        metrics["approx.similarity_to_test.calls_per_test_row"] = (
            sim / test_rows if test_rows else 0.0)
        metrics["classifier.aggregate.calls_per_label"] = (
            metrics["classifier.aggregate.calls"] / labels if labels else 0.0)
        metrics["outliers.lof_scores.tensor_bytes"] = self.tensor_bytes
        metrics["evaluation.wilcoxon_signed_rank.table_bytes"] = self.table_bytes
        return metrics

    def write(self, path):
        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 start_ns=np.frombuffer(self.start, np.int64),
                 end_ns=np.frombuffer(self.end, np.int64))
